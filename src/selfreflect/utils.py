"""Stable softmax / entropy helpers (all probability math in float64), and the
readers of config, backend and trace files."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError, InputError


class ScaledRows:
    """The package's one softmax / log-softmax / entropy kernel over a
    (rows, V) logit block: each row divided by a temperature and shifted by
    its maximum, with the exps, their row sums and math.log of those sums.
    Each row is reduced on its own along its last axis, so it does not depend
    on the rows beside it. A row whose maximum is not finite (all -inf, a
    +inf or a NaN) is marked not ok; its entries are undefined.

    A V vector is the one-row case: it is reduced as a vector, and its
    per-row values (ok, sums, log_sums, its entropy and a log-probability)
    are Python scalars, each equal to the block's value for that row, bit
    for bit. It enters no errstate guard of its own: its caller holds one
    with overflow and invalid operations ignored, once for all the one-row
    kernels of a decode step. softmax, log_softmax and entropy_from_logits
    are this one-row case."""

    __slots__ = ("z", "temperature", "shifted", "exp", "sums", "log_sums", "ok")

    def __init__(self, z: np.ndarray, temperature: float):
        self.z = z
        self.temperature = temperature
        if z.ndim == 1:
            shifted = z / float(temperature)
            peak = float(np.maximum.reduce(shifted))
            shifted -= peak
            self.shifted = shifted
            self.exp = np.exp(shifted)
            self.ok = math.isfinite(peak)
            self.sums = float(np.add.reduce(self.exp))
            self.log_sums = math.log(self.sums) if self.sums > 0 else math.nan
            return
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

    def _per_row(self, values):
        """values, one per row, as a column to broadcast against the block
        (the one row's value itself)."""
        return values if self.z.ndim == 1 else values[:, None]

    def probs(self) -> np.ndarray:
        """softmax of every row."""
        return self.exp / self._per_row(self.sums)

    def log_probs(self) -> np.ndarray:
        """log_softmax of every row."""
        return self.shifted - self._per_row(self.log_sums)

    def log_prob(self, tokens):
        """log_softmax of every row, at one token per row (an int token and a
        float for the one row)."""
        if self.z.ndim == 1:
            return float(self.shifted[tokens]) - self.log_sums
        return self.shifted[np.arange(len(tokens)), tokens] - self.log_sums

    def entropy(self) -> tuple:
        """Each row's entropy in nats with 0*log(0) = 0 (NaN for rows not
        ok), with the log-probabilities and their exps it sums."""
        if self.z.ndim == 1:
            ls = self.shifted - self.log_sums
            p = np.exp(ls)
            h = -float(np.add.reduce(np.where(p > 0.0, p * ls, 0.0))) if self.ok else math.nan
            return h, ls, p
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


def read_json(path, kind: str):
    """The JSON value of a file: ConfigError naming the kind of file when it is not
    UTF-8 text or not valid JSON (json refuses too long an integer with ValueError)."""
    text = read_text(path, kind)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{kind} file is not valid JSON: {exc}") from None


# The JSON value rule of config, backend and trace files. A reader returns a
# parsed leaf as its Python value, or raises TypeError (another kind) or
# ValueError (an integer literal beyond float range) with a message that its
# caller prefixes with the key. An integer is a JSON integer, never true or
# false; a number is a JSON integer or float, never a flag, a string or null,
# and comes back as a float.

def json_integer(value) -> int:
    if type(value) is int:
        return value
    raise TypeError(f"must be an integer, got {value!r}")


def json_number(value) -> float:
    if type(value) is float:
        return value
    if type(value) is int or isinstance(value, float):
        try:
            return float(value)
        except OverflowError:
            raise ValueError("holds a number beyond float range") from None
    raise TypeError(f"must be a number, got {value!r}")


def json_flag(value) -> bool:
    if type(value) is bool:
        return value
    raise TypeError(f"must be true or false, got {value!r}")


def json_string(value) -> str:
    if type(value) is str:
        return value
    raise TypeError(f"must be a string, got {value!r}")


def json_list(value, kind: type, n: int | None = None) -> list:
    """A JSON array of integers, flags or strings (kind int, bool or str, by
    the readers above) of n items, or of any number if n is None."""
    if type(value) is list and (n is None or len(value) == n) and \
            set(map(type, value)) <= {kind}:
        return value
    what = {int: "integers", bool: "true/false flags", str: "strings"}[kind]
    raise TypeError(f"must be a list of {what if n is None else f'{n} {what}'}, got {value!r}")


def json_array(value) -> np.ndarray:
    """A float64 array from a JSON array of numbers (by json_number's rule),
    or of equal-length arrays of them nested to any depth."""
    level = value  # a loop, not recursion: json nests about as deep as recursion can
    while type(level) is list and set(map(type, level)) == {list}:
        level = [x for row in level for x in row]
    if type(level) is list and set(map(type, level)) <= {int, float}:
        try:
            return np.array(value, dtype=np.float64)
        except OverflowError:
            raise ValueError("holds a number beyond float range") from None
        except ValueError:  # unequal lengths, or more dimensions than numpy holds
            pass
    raise TypeError("must be a list of numbers or of equal-length lists of them")


def gemv_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ rows[r] for every row r of an (R, d) block, as an (R, V) block.

    matmul runs one gemv per row, so each result row equals matrix @ rows[r]
    bit for bit; one gemm over the block (rows @ matrix.T) may round
    differently."""
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def _one_row(logits, temperature, part) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = ScaledRows(z.reshape(-1), temperature)
        if not scaled.ok:
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
    with np.errstate(over="ignore", invalid="ignore"):
        h, _, _ = ScaledRows(z.reshape(-1), temperature).entropy()
    return h


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
