"""Per-step predictive-entropy monitoring with a dynamic trigger threshold."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class TriggerConfig:
    """Dynamic trigger: fire when the step entropy exceeds mean + sensitivity * std
    of the last window_size entropies (population std, strict inequality).

    temperature scales logits before the monitored distribution is formed.
    """

    window_size: int = 25
    sensitivity: float = 4.0
    temperature: float = 0.6

    def __post_init__(self):
        if self.window_size < 2:
            raise InputError("window_size must be at least 2")
        if not self.sensitivity >= 0:
            raise InputError("sensitivity must be non-negative")
        if not self.temperature > 0:
            raise InputError("temperature must be positive")


@dataclass(frozen=True)
class TriggerDecision:
    entropy: float
    mean: float
    std: float
    threshold: float
    fired: bool
    window_full: bool


def entropy(probs) -> float:
    """Shannon entropy in nats of a probability vector, with 0*log(0) = 0."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise InputError("probs must be a non-empty 1-d vector")
    if not np.all(np.isfinite(p)):
        raise InputError("probability entries must be finite")
    if np.any(p < 0):
        raise InputError("probability entries must be non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise InputError(f"probabilities sum to {total}, expected 1")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-terms.sum())


class EntropyWindow:
    """Fixed-capacity ring buffer of recent step entropies."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise InputError("window capacity must be at least 2")
        self.capacity = int(capacity)
        self._buf = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def full(self) -> bool:
        return len(self._buf) == self.capacity

    def values(self) -> list[float]:
        return list(self._buf)

    def observe(self, value: float) -> None:
        """Push one entropy, evicting the oldest when full. Rejects non-finite
        or negative values rather than letting them poison the statistics."""
        v = float(value)
        if not math.isfinite(v) or v < 0:
            raise InputError(f"entropy observations must be finite and non-negative, got {v}")
        self._buf.append(v)

    def mean(self) -> float:
        if not self._buf:
            return math.nan
        return float(np.mean(self._buf))

    def std(self) -> float:
        # population standard deviation (divide by n), matching the trigger rule
        if not self._buf:
            return math.nan
        return float(np.std(self._buf))


class EntropyWindows:
    """The entropy windows of a batch of decodes that advance in lock-step.

    Every row receives one entropy per step, so all windows hold the same
    number of entries. Row r holds them right-aligned in values[r], oldest
    first: the entries an EntropyWindow would hold, in the same order, so each
    row's statistics reduce the same numbers in numpy's same summation order
    and equal EntropyWindow.mean()/std() bit for bit. Columns left of the
    filled part are never read: a sum over them would change that order.
    """

    def __init__(self, rows: int, capacity: int):
        if capacity < 2:
            raise InputError("window capacity must be at least 2")
        self.capacity = int(capacity)
        self.values = np.zeros((rows, self.capacity))
        self.count = 0

    @property
    def full(self) -> bool:
        return self.count == self.capacity

    def push(self, entropies) -> None:
        """Append one entropy per row, evicting each row's oldest when full."""
        v = self.values
        v[:, :-1] = v[:, 1:]
        v[:, -1] = entropies
        self.count = min(self.count + 1, self.capacity)

    def keep(self, rows) -> None:
        """Drop every row not selected by the boolean mask `rows`."""
        self.values = self.values[rows]

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and population std of each row's window, NaN while empty."""
        n = self.count
        if n == 0:
            mean = np.full(len(self.values), math.nan)
            return mean, mean.copy()
        block = self.values[:, -n:]
        mean = block.sum(axis=1) / n
        dev = block - mean[:, None]
        dev *= dev
        return mean, np.sqrt(dev.sum(axis=1) / n)


def trigger_rows(windows: EntropyWindows, entropies: np.ndarray, config: TriggerConfig):
    """should_trigger for every row of a batch at once: each row's window
    mean, std, threshold and fired flag, equal to what should_trigger
    decides for that row's window and entropy (window_full is windows.full)."""
    mean, std = windows.moments()
    threshold = mean + config.sensitivity * std
    fired = entropies > threshold if windows.full else np.zeros(len(entropies), dtype=bool)
    return mean, std, threshold, fired


def should_trigger(window: EntropyWindow, step_entropy: float,
                   config: TriggerConfig) -> TriggerDecision:
    """Consult the trigger for the current step. Never inserts step_entropy:
    the caller pushes it afterwards, so the step is judged against history only.
    Fires only on a full window, with strict inequality against the threshold.
    """
    h = float(step_entropy)
    if not math.isfinite(h):
        raise InputError("step entropy must be finite")
    mean = window.mean()
    std = window.std()
    threshold = mean + config.sensitivity * std
    fired = bool(window.full and h > threshold)
    return TriggerDecision(entropy=h, mean=mean, std=std, threshold=threshold,
                           fired=fired, window_full=window.full)
