"""Stable softmax / entropy helpers. All probability math runs in float64."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InputError


class ScaledRows:
    """The package's one softmax / log-softmax / entropy kernel over a
    (rows, V) logit block: each row divided by a temperature and shifted by
    its maximum, with the exps, their row sums and math.log of those sums.
    Each row is reduced on its own along its last axis, so it does not depend
    on the rows beside it; softmax, log_softmax and entropy_from_logits are
    the one-row case. A row whose maximum is not finite (all -inf, a +inf or
    a NaN) is marked not ok; its entries are undefined."""

    __slots__ = ("z", "temperature", "shifted", "exp", "sums", "log_sums", "ok")

    def __init__(self, z: np.ndarray, temperature: float):
        self.z = z
        self.temperature = temperature
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = z / float(temperature)
            peak = shifted.max(axis=1)
            shifted -= peak[:, None]
            self.exp = np.exp(shifted)
        self.shifted = shifted
        self.ok = np.isfinite(peak)
        self.sums = self.exp.sum(axis=1)
        # math.log rather than np.log, which need not round the same way
        self.log_sums = np.array([math.log(v) if v > 0 else math.nan
                                  for v in self.sums.tolist()])

    def probs(self) -> np.ndarray:
        """softmax of every row."""
        return self.exp / self.sums[:, None]

    def log_probs(self) -> np.ndarray:
        """log_softmax of every row."""
        return self.shifted - self.log_sums[:, None]

    def log_prob(self, tokens: np.ndarray) -> np.ndarray:
        """log_softmax of every row, at one token per row."""
        return self.shifted[np.arange(len(tokens)), tokens] - self.log_sums

    def entropy(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's entropy in nats with 0*log(0) = 0 (NaN for rows not
        ok), with the log-probabilities and their exps it sums."""
        with np.errstate(invalid="ignore"):
            ls = self.log_probs()
            p = np.exp(ls)
            h = -np.where(p > 0.0, p * ls, 0.0).sum(axis=1)
        h[~self.ok] = math.nan
        return h, ls, p


def read_text(path, kind: str) -> str:
    """A file's contents, which must be UTF-8 text: ConfigError naming the
    kind of file otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{kind} file is not UTF-8 text: {exc}") from None


def gemv_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ rows[r] for every row r of an (R, d) block, as an (R, V) block.

    matmul runs one gemv per row, so each result row equals matrix @ rows[r]
    bit for bit; one gemm over the block (rows @ matrix.T) may round
    differently."""
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def _one_row(logits, temperature, part) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    scaled = ScaledRows(z.reshape(1, -1), temperature)
    if not scaled.ok[0]:
        return np.full_like(z, np.nan)
    return part(scaled).reshape(z.shape)


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax with max-subtraction. NaN poisons the output
    instead of raising so optimizer abort paths can detect it."""
    return _one_row(logits, temperature, ScaledRows.probs)


def log_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    return _one_row(logits, temperature, ScaledRows.log_probs)


def entropy_from_logits(logits, temperature: float = 1.0) -> float:
    """Shannon entropy in nats of softmax(logits/temperature), with 0*log(0)=0.

    NaN when the scaled logits are degenerate (poisoned log_softmax), so the
    failure is visible to abort checks rather than masked as zero entropy.
    """
    z = np.asarray(logits, dtype=np.float64)
    h, _, _ = ScaledRows(z.reshape(1, -1), temperature).entropy()
    return float(h[0])


def two_point_logits(target_entropy: float, size: int, hot: int = 0,
                     temperature: float = 1.0) -> np.ndarray:
    """Logit vector whose temperature-scaled softmax entropy equals target_entropy.

    One position (`hot`) carries a gap g >= 0 over the rest; entropy is ln(size)
    at g=0 and decreases monotonically, so bisection pins g to machine precision.
    """
    if size < 2:
        raise InputError("need at least two tokens")
    if not 0.0 < target_entropy < math.log(size):
        raise InputError(f"target entropy must lie in (0, ln {size})")

    def h(gap):
        z = np.zeros(size)
        z[hot] = gap
        return entropy_from_logits(z, temperature)

    lo, hi = 0.0, 1.0
    while h(hi) > target_entropy:
        hi *= 2.0
        if hi > 1e6:
            raise InputError("entropy target unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > target_entropy:
            lo = mid
        else:
            hi = mid
    z = np.zeros(size)
    z[hot] = 0.5 * (lo + hi)
    return z
