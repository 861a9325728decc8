"""Per-step predictive-entropy monitoring with a dynamic trigger threshold."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .utils import _integer_fields, _number_fields


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
        _integer_fields(self, "window_size")
        _number_fields(self, "sensitivity", "temperature")
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


class EntropyWindows:
    """The entropy windows of a batch of decodes that advance in lock-step.

    Every row receives one entropy per step, so all windows hold the same
    number of entries. Row r holds them right-aligned in its block row,
    oldest first, and its statistics reduce only the filled part along the
    row's contiguous last axis: a row's statistics do not depend on the rows
    beside it, and a one-row block is an EntropyWindow. Columns left of the
    filled part are never read: a sum over them would change the order.
    The block doubles as it fills, so a window longer than a decode costs its steps.
    """

    def __init__(self, rows: int, capacity: int):
        if capacity < 2:
            raise InputError("window capacity must be at least 2")
        self.capacity = int(capacity)
        self.block = np.zeros((rows, min(self.capacity, 64)))
        self.count = 0

    @property
    def full(self) -> bool:
        return self.count == self.capacity

    def push(self, entropies) -> None:
        """Append one entropy per row, evicting each row's oldest when full."""
        v = self.block
        if self.count == v.shape[1] < self.capacity:
            grown = min(self.capacity, 2 * self.count)
            v = self.block = np.concatenate([np.zeros((len(v), grown - self.count)), v], axis=1)
        v[:, :-1] = v[:, 1:]
        v[:, -1] = entropies
        self.count = min(self.count + 1, self.capacity)

    def keep(self, rows) -> None:
        """Drop every row not selected by the boolean mask `rows`."""
        self.block = self.block[rows]

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and population std of each row's window, NaN while empty."""
        n = self.count
        if n == 0:
            mean = np.full(len(self.block), math.nan)
            return mean, mean.copy()
        block = self.block[:, -n:]
        mean = block.sum(axis=1) / n
        dev = block - mean[:, None]
        dev *= dev
        return mean, np.sqrt(dev.sum(axis=1) / n)

    def _row_moments(self) -> tuple[float, float]:
        """moments() of a one-row block, reduced as a vector, as Python
        floats equal to the block's bit for bit."""
        n = self.count
        if n == 0:
            return math.nan, math.nan
        window = self.block[0, -n:]
        mean = float(np.add.reduce(window)) / n
        dev = window - mean
        dev *= dev
        return mean, math.sqrt(float(np.add.reduce(dev)) / n)


class EntropyWindow(EntropyWindows):
    """The window of one decode: a one-row EntropyWindows that checks each
    entropy it receives."""

    def __init__(self, capacity: int):
        super().__init__(1, capacity)

    def __len__(self) -> int:
        return self.count

    def values(self) -> list[float]:
        return self.block[0, self.block.shape[1] - self.count:].tolist()

    def observe(self, value: float) -> None:
        """Push one entropy, evicting the oldest when full. Rejects non-finite
        or negative values rather than letting them poison the statistics."""
        v = float(value)
        if not math.isfinite(v) or v < 0:
            raise InputError(f"entropy observations must be finite and non-negative, got {v}")
        self.push(v)

    def mean(self) -> float:
        return self._row_moments()[0]

    def std(self) -> float:
        # population standard deviation (divide by n), matching the trigger rule
        return self._row_moments()[1]


def trigger_rows(windows: EntropyWindows, entropies, config: TriggerConfig):
    """The trigger rule for every row of a batch at once: each row's window
    mean, std, threshold (mean + sensitivity * std) and fired flag, which is
    set only on full windows, by strict inequality (window_full is
    windows.full). A float entropy is the one-row case, for a one-row
    block: the four values are Python floats and a bool."""
    if isinstance(entropies, float):
        mean, std = windows._row_moments()
        threshold = mean + config.sensitivity * std
        return mean, std, threshold, windows.full and entropies > threshold
    mean, std = windows.moments()
    threshold = mean + config.sensitivity * std
    fired = entropies > threshold if windows.full else np.zeros(len(entropies), dtype=bool)
    return mean, std, threshold, fired


def should_trigger(window: EntropyWindow, step_entropy: float,
                   config: TriggerConfig) -> TriggerDecision:
    """Consult the trigger for the current step: the one-row case of
    trigger_rows. Never inserts step_entropy: the caller pushes it
    afterwards, so the step is judged against history only. Fires only on a
    full window, with strict inequality against the threshold.
    """
    h = float(step_entropy)
    if not math.isfinite(h):
        raise InputError("step entropy must be finite")
    mean, std, threshold, fired = trigger_rows(window, h, config)
    return TriggerDecision(entropy=h, mean=mean, std=std, threshold=threshold, fired=fired,
                           window_full=window.full)
