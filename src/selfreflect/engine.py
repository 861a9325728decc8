"""Autoregressive decode loop with entropy-triggered self-reflection.

Per generated token: form next-token logits from the cached final hidden state
(the backend's step_logits), measure predictive entropy at the monitor
temperature, and consult the dynamic trigger against the window of previous
step entropies. On a fired trigger, optimize a transient correction vector
and add it to the current hidden state for this step's sampling only; the
vector is discarded afterwards and cached states are never modified, so later
steps see the unmodified model. The step's pre-correction entropy enters the
window after the trigger was consulted.

One loop serves every decode: `decode_batch` advances many decodes in
lock-step, and `decode` is its one-row case. Logits, entropies, trigger
statistics, sampling and log-probabilities are array operations over the
rows (utils.ScaledRows, monitor.trigger_rows), each reducing every row on
its own, so a row's trace does not depend on the rows beside it; the
one-row helpers (softmax, entropy_from_logits, should_trigger, sample) are
the one-row case of the same code. A step with one row runs that one-row
case: its row is reduced as a vector and its values are Python scalars,
equal to the block's bit for bit. The rows that fired are corrected
together, one optimizer.optimize_rows call per group of rows whose prefixes
share a |scope| length. Backend appends and random draws stay per row.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .backends import ModelBackend, PrefixActivations
from .errors import InputError
from .monitor import EntropyWindows, TriggerConfig, TriggerDecision, trigger_rows
from .optimizer import (Correction, HybridLossReport, ReflectionConfig,
                        adapt_lambda, ce_positions, optimize_rows)
from .utils import ScaledRows, _integer_fields, _number_fields
# The decode loop computes these on row blocks; the one-row functions stay
# importable from here because perfbench/tracing.py wraps these names.
from .backends import logits_at  # noqa: F401
from .monitor import should_trigger  # noqa: F401
from .optimizer import optimize_delta  # noqa: F401
from .utils import entropy_from_logits, log_softmax  # noqa: F401


@dataclass(frozen=True)
class SamplingConfig:
    """greedy: argmax with lowest-id tie-break. temperature: nucleus sampling
    at the given temperature, keeping the smallest descending-probability
    prefix whose cumulative mass reaches top_p (ties enter by ascending id)."""

    mode: str = "temperature"
    temperature: float = 0.6
    top_p: float = 0.95

    def __post_init__(self):
        _number_fields(self, "temperature", "top_p")
        if self.mode not in ("greedy", "temperature"):
            raise InputError(f"unknown sampling mode: {self.mode!r}")
        if not self.temperature > 0:
            raise InputError("sampling temperature must be positive")
        if not 0.0 < self.top_p <= 1.0:
            raise InputError("top_p must lie in (0, 1]")


@dataclass(frozen=True)
class DecodeConfig:
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    reflection: ReflectionConfig = field(default_factory=ReflectionConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    max_tokens: int = 4096
    eos_token: int | None = None
    seed: int = 0
    reflect: bool = True

    def __post_init__(self):
        _integer_fields(self, "max_tokens", "seed")
        if self.eos_token is not None:
            _integer_fields(self, "eos_token")
        if self.max_tokens < 1:
            raise InputError("max_tokens must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be a non-negative integer")


def _nucleus_rows(probs: np.ndarray, top_p: float):
    """The nucleus filter of each row of a (rows, V) probability block.

    Returns each row's ids in descending probability (equal probabilities by
    ascending id), their probabilities renormalized over the row's support,
    and the support sizes; entries of row r from size[r] on are outside it.
    """
    rows = np.arange(len(probs))
    order = (-probs).argsort(axis=1, kind="stable")
    kept = probs[rows[:, None], order]
    cum = np.add.accumulate(kept, axis=1)  # np.cumsum, without its wrapper
    # searchsorted(cum, top_p, "left") of each row; a float shortfall when
    # top_p ~ 1 keeps the whole row
    size = np.minimum(np.add.reduce(cum < top_p, axis=1), probs.shape[1] - 1) + 1
    # np.sum adds fewer than 8 terms left to right, exactly as cumsum does;
    # a longer support is summed on its own in numpy's pairwise order
    total = cum[rows, size - 1]
    if size.max() >= 8:
        for r in np.flatnonzero(size >= 8):
            total[r] = kept[r, :size[r]].sum()
    return order, kept / total[:, None], size


def nucleus_distribution(probs, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Support ids and renormalized probabilities of the nucleus filter."""
    p = np.asarray(probs, dtype=np.float64)
    order, kept, size = _nucleus_rows(p[None], top_p)
    return order[0, :size[0]], kept[0, :size[0]]


def _nucleus_draw(probs: np.ndarray, top_p: float, draws) -> np.ndarray:
    """One token per row: the first support id whose cumulative renormalized
    probability exceeds the row's uniform draw (the last one on a shortfall)."""
    tokens = probs.argmax(axis=1)
    # a row whose top probability reaches top_p keeps only its argmax
    open_rows = np.flatnonzero(probs.max(axis=1) < top_p)
    if len(open_rows):
        order, kept, size = _nucleus_rows(probs[open_rows], top_p)
        # cum never decreases along a row, so counting past the support only
        # happens when the whole support counts, and the clip below undoes it
        cum = np.add.accumulate(kept, axis=1)
        idx = np.add.reduce(cum <= np.asarray(draws)[open_rows, None], axis=1)
        tokens[open_rows] = order[np.arange(len(open_rows)), np.minimum(idx, size - 1)]
    return tokens


def _check_logits(z: np.ndarray) -> None:
    if np.any(np.isnan(z)):
        raise InputError("logits must not contain NaN")
    top = np.max(z)
    if top == -math.inf:
        raise InputError("cannot sample: all logits are -inf")
    if top == math.inf:
        raise InputError("logits must not contain +inf")


def sample(logits, sampling: SamplingConfig, rng: np.random.Generator) -> int:
    """Draw one token id: the one-row case of the decode loop's draw. Greedy
    mode never consumes randomness."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise InputError("logits must be a non-empty 1-d vector")
    _check_logits(z)
    return int(_sample_rows(z[None], None, [rng], sampling)[0])


def _sample_rows(z: np.ndarray, scaled: ScaledRows | None, rngs,
                 sampling: SamplingConfig):
    """One token per row of the logit block z: its argmax in greedy mode, else
    a nucleus draw with one uniform from the row's generator (a None generator
    draws 0.0 and consumes nothing). `scaled` is z at the sampling temperature
    when the caller has it already. A V vector z is the one-row case
    (ScaledRows'), whose token is an int."""
    if sampling.mode == "greedy":
        return int(z.argmax()) if z.ndim == 1 else z.argmax(axis=1)
    if scaled is None:
        scaled = ScaledRows(z, sampling.temperature)
    draws = [0.0 if rng is None else rng.random() for rng in rngs]
    if z.ndim == 1:
        return int(_nucleus_draw(scaled.probs()[None], sampling.top_p, draws)[0])
    return _nucleus_draw(scaled.probs(), sampling.top_p, draws)


@dataclass
class CorrectionSummary:
    """What the trace keeps from a correction; the vector itself is discarded."""

    steps_taken: int
    aborted: bool
    entropy_weight: float
    delta_norm: float
    final_l_ce: float | None
    final_l_aem: float | None
    final_f_lambda: float | None
    opt_wall_time: float
    trajectory: list[HybridLossReport] = field(default_factory=list)


@dataclass(frozen=True)
class StepRecord:
    """One generated token, as a trace's steps hand it out. Frozen: a trace
    keeps its steps as columns (StepColumns) and builds these on read, so a
    write to one would change nothing that the trace holds."""

    position: int
    token: int
    entropy: float
    trigger: TriggerDecision
    logprob: float
    wall_time: float
    correction: CorrectionSummary | None = None


# the six float fields of a step, in the row order of StepColumns.floats
STEP_FLOATS = ("entropy", "logprob", "wall_time", "mean", "std", "threshold")


class StepColumns(Sequence):
    """A trace's steps as columns: the in-memory form of a version 2 steps
    record, which the decode loop fills, serialize_trace writes and
    parse_trace reads.

    floats is one (6, n) float64 block, one row per STEP_FLOATS name;
    position, fired and window_full are lists; tokens is the trace's output;
    corrections maps the index of each corrected step to its summary, in step
    order. Indexing or iterating builds the StepRecords, and their
    TriggerDecisions, once, on the first read.
    """

    __slots__ = ("floats", "position", "fired", "window_full", "tokens", "corrections",
                 "_records")

    def __init__(self, floats: np.ndarray, position: list[int], fired: list[bool],
                 window_full: list[bool], tokens, corrections: dict[int, CorrectionSummary]):
        self.floats = floats
        self.position = position
        self.fired = fired
        self.window_full = window_full
        self.tokens = tokens
        self.corrections = corrections
        self._records: list[StepRecord] | None = None

    @classmethod
    def from_rows(cls, rows, position, fired, window_full, tokens, corrections) -> StepColumns:
        """Columns whose floats come as one flat list: six per step, in
        STEP_FLOATS order."""
        floats = np.array(rows, dtype=np.float64).reshape(-1, len(STEP_FLOATS)).T
        return cls(floats, position, fired, window_full, tokens, corrections)

    @classmethod
    def of(cls, steps: Sequence[StepRecord]) -> StepColumns:
        """The columns of a sequence of StepRecords; columns are their own."""
        if isinstance(steps, StepColumns):
            return steps
        steps = list(steps)
        rows = [x for s in steps for x in (s.entropy, s.logprob, s.wall_time, s.trigger.mean,
                                           s.trigger.std, s.trigger.threshold)]
        cols = cls.from_rows(rows, [s.position for s in steps], [s.trigger.fired for s in steps],
                             [s.trigger.window_full for s in steps], [s.token for s in steps],
                             {i: s.correction for i, s in enumerate(steps)
                              if s.correction is not None})
        cols._records = steps
        return cols

    def rows(self):
        """(position, token, entropy, logprob, wall_time, mean, std, threshold,
        fired, window_full, correction) of each step, as Python values."""
        get = self.corrections.get
        return ((p, token, h, lp, wall, m, sd, thr, f, full, get(i))
                for i, (p, token, h, lp, wall, m, sd, thr, f, full) in enumerate(zip(
                    self.position, self.tokens, *self.floats.tolist(), self.fired,
                    self.window_full)))

    def _read(self) -> list[StepRecord]:
        if self._records is None:
            self._records = [StepRecord(p, token, h, TriggerDecision(h, m, sd, thr, f, full),
                                        lp, wall, c)
                             for p, token, h, lp, wall, m, sd, thr, f, full, c in self.rows()]
        return self._records

    def __len__(self) -> int:
        return len(self.position)

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other):
        if isinstance(other, (StepColumns, list)):
            return self._read() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"StepColumns({self._read()!r})"


@dataclass
class TraceTotals:
    n_activations: int
    inner_steps: int
    wall_time: float
    baseline_time: float | None = None


@dataclass
class DecodeTrace:
    model_id: str
    prompt: tuple[int, ...]
    output: tuple[int, ...]
    steps: Sequence[StepRecord]  # a StepColumns, unless built by hand
    totals: TraceTotals
    config: DecodeConfig
    seed: int


def _summarize(corr: Correction, weight: float, opt_time: float) -> CorrectionSummary:
    last = corr.trajectory[-1] if corr.trajectory else None
    return CorrectionSummary(
        steps_taken=corr.steps_taken,
        aborted=corr.aborted,
        entropy_weight=weight,
        delta_norm=float(np.linalg.norm(corr.delta)),
        final_l_ce=last.l_ce if last else None,
        final_l_aem=last.l_aem if last else None,
        final_f_lambda=last.f_lambda if last else None,
        opt_wall_time=opt_time,
        trajectory=list(corr.trajectory),
    )


class _Row:
    """One decode of a batch: its prefix, random stream, adaptive weight, and
    the trace it is building."""

    __slots__ = ("config", "prompt", "acts", "rng", "weight", "floats", "fired",
                 "window_full", "corrections", "output", "activations", "inner_steps", "wall")

    def __init__(self, backend: ModelBackend, prompt, config: DecodeConfig):
        if config.eos_token is not None and not 0 <= config.eos_token < backend.vocab.size:
            raise InputError(f"eos_token {config.eos_token} out of range")
        prompt = tuple(prompt)
        longest = len(prompt) + config.max_tokens - 1  # the last token is never appended
        if backend.max_len is not None and longest > backend.max_len:
            raise InputError(f"a prompt of {len(prompt)} tokens plus max_tokens {config.max_tokens} "
                             f"needs prefixes of {longest} tokens, beyond max_len {backend.max_len}")
        self.config = config
        self.acts: PrefixActivations = backend.forward_prefix(prompt)
        self.prompt = self.acts.tokens
        self.rng = np.random.default_rng(config.seed)
        self.weight = config.reflection.entropy_weight
        # the trace's StepColumns, filled one step at a time
        self.floats: list[float] = []  # six per step, in STEP_FLOATS order
        self.fired: list[bool] = []
        self.window_full: list[bool] = []
        self.corrections: dict[int, CorrectionSummary] = {}
        self.output: list[int] = []
        self.activations = 0
        self.inner_steps = 0
        self.wall = 0.0

    def trace(self, backend: ModelBackend) -> DecodeTrace:
        totals = TraceTotals(n_activations=self.activations, inner_steps=self.inner_steps,
                             wall_time=self.wall)
        output = tuple(self.output)
        steps = StepColumns.from_rows(self.floats, list(range(len(output))), self.fired,
                                      self.window_full, output, self.corrections)
        return DecodeTrace(model_id=backend.model_id, prompt=self.prompt, output=output,
                           steps=steps, totals=totals, config=self.config,
                           seed=self.config.seed)


def _correct(rows: list[_Row], head, reflection: ReflectionConfig) -> list:
    """Correct rows whose prefixes share one |scope| length together, with one
    optimize_rows call. Per row: its summary and corrected logits (None when
    nothing changes the row's logits), or the exception that ended it. A
    row's opt_wall_time is its equal share of the optimize_rows call."""
    weights = [row.weight for row in rows]
    for row in rows:
        row.activations += 1
    if reflection.steps == 0:
        # monitor-only fast path: delta stays 0, skip the loss machinery
        return [(_summarize(Correction(np.zeros(head.hidden_dim)), w, 0.0), None) for w in weights]
    t_opt = time.perf_counter()
    try:
        corrections = optimize_rows([row.acts for row in rows], head, reflection, weights)
    except Exception as exc:
        return [exc] * len(rows)
    opt_time = (time.perf_counter() - t_opt) / len(rows)
    kept = [r for r, corr in enumerate(corrections) if not corr.aborted]
    logits = dict(zip(kept, head.project_rows(np.array(
        [rows[r].acts.last_hidden + corrections[r].delta for r in kept])))) if kept else {}
    out = []
    for r, (row, corr, weight) in enumerate(zip(rows, corrections, weights)):
        summary = _summarize(corr, weight, opt_time)
        row.inner_steps += corr.steps_taken
        if corr.aborted:
            out.append((summary, None))
            continue
        try:
            if reflection.adaptive is not None and corr.trajectory:
                row.weight = adapt_lambda(replace(reflection, entropy_weight=weight),
                                          corr.trajectory[-1].l_ce)
            _check_logits(logits[r])
            out.append((summary, logits[r]))
        except Exception as exc:
            out.append(exc)
    return out


def _correct_fired(rows: list[_Row], fired: list[bool], z: np.ndarray, head,
                   reflection: ReflectionConfig, failed: dict):
    """Correct the rows that fired, one _correct call per group of rows whose
    prefixes share a |scope| length. Returns the sampling logits (a copy of
    z with each corrected row's logits), each corrected row's summary, and
    each correcting row's share of its group's correction; a row that failed
    enters `failed`."""
    z = z.copy()  # the monitor keeps the uncorrected block
    summaries: dict[int, CorrectionSummary] = {}
    own: dict[int, float] = {}
    groups: dict[int, list[int]] = {}
    for i, fire in enumerate(fired):
        if fire:
            groups.setdefault(len(ce_positions(rows[i].acts, reflection.ce_scope)), []).append(i)
    for group in groups.values():
        t_corr = time.perf_counter()
        outcomes = _correct([rows[i] for i in group], head, reflection)
        elapsed = (time.perf_counter() - t_corr) / len(group)
        for i, outcome in zip(group, outcomes):
            if isinstance(outcome, Exception):
                failed[i] = outcome
            else:
                summaries[i], z_fix = outcome
                if z_fix is not None:
                    z[i] = z_fix
            own[i] = elapsed
    return z, summaries, own


def _columns(one: bool, *values) -> list[list]:
    """Per-row kernel values as lists: the one row's Python scalars in the
    one-row case, else each array's rows."""
    return [[v] for v in values] if one else [v.tolist() for v in values]


def decode_batch(backend: ModelBackend, runs) -> list[DecodeTrace | Exception]:
    """Decode several (prompt, DecodeConfig) runs in lock-step, one row each.

    Rows may differ in prompt, seed, max_tokens and eos_token; every other
    config field must be shared, or InputError is raised. Each row stops on
    its own at EOS or max_tokens, and its trace equals what the row's decode
    alone records, timings aside. A row's step wall_time is its equal share of
    the lock-step step plus its equal share of its group's correction.

    Returns one entry per run, in order: its DecodeTrace, or the exception
    that ended it, which is what decode raises for that run alone. A failing
    row stops alone; the other rows continue.
    """
    runs = list(runs)
    if not runs:
        raise InputError("decode_batch needs at least one run")
    if not all(isinstance(config, DecodeConfig) for _, config in runs):
        raise InputError("each run must be a (prompt, DecodeConfig) pair")
    shared = runs[0][1]
    for _, config in runs:
        if (config.trigger, config.reflection, config.sampling, config.reflect) != \
                (shared.trigger, shared.reflection, shared.sampling, shared.reflect):
            raise InputError("batched runs may differ only in seed, max_tokens and eos_token")

    results: list[DecodeTrace | Exception] = [None] * len(runs)
    rows: list[_Row] = []
    slots: list[int] = []  # rows[i] decodes runs[slots[i]]
    for index, (prompt, config) in enumerate(runs):
        try:
            rows.append(_Row(backend, prompt, config))
            slots.append(index)
        except Exception as exc:
            results[index] = exc

    head = backend.head
    trigger = shared.trigger
    windows = EntropyWindows(len(rows), trigger.window_size)
    errors = np.geterr()  # the caller's settings, which corrections run under
    temperature = 1.0 if shared.sampling.mode == "greedy" else shared.sampling.temperature
    while rows:
        t_step = time.perf_counter()
        n = len(rows)
        z = backend.step_logits([row.acts for row in rows])
        # one row is the kernels' one-row case: its row is reduced as a
        # vector and its values come back as Python scalars; the step's
        # one-row kernels share this one errstate guard, where the block
        # kernels hold their own
        one = n == 1
        with np.errstate(over="ignore", invalid="ignore") if one else contextlib.nullcontext():
            monitored = ScaledRows(z[0] if one else z, trigger.temperature)
            entropy, _, _ = monitored.entropy()
            ok, entropy, mean, std, threshold, fired = _columns(
                one, monitored.ok, entropy, *trigger_rows(windows, entropy, trigger))
            # tested as Python lists: a numpy any() costs about 2 us, which every
            # reflective step would pay over the baseline arm
            if not shared.reflect:
                fired = [False] * n
            failed: dict[int, Exception] = {i: InputError("step entropy must be finite")
                                            for i, good in enumerate(ok) if not good}
            summaries: dict[int, CorrectionSummary] = {}
            own: dict[int, float] = {}  # each correcting row's share of its group's correction
            corrected = any(fired)
            if corrected:
                with np.errstate(**errors):
                    z, summaries, own = _correct_fired(rows, fired, z, head, shared.reflection,
                                                       failed)
            # sampling reuses the monitor's scaled block when it holds the sampling
            # logits at the sampling temperature; failed rows are zeroed to keep
            # the block finite and draw no randomness
            scaled = monitored
            if failed or corrected or temperature != monitored.temperature:
                if failed:
                    z = z.copy()
                    z[list(failed)] = 0.0
                scaled = ScaledRows(z[0] if one else z, temperature)
            rngs = [None if i in failed else row.rng for i, row in enumerate(rows)]
            tokens = _sample_rows(z[0] if one else z, scaled, rngs, shared.sampling)
            tokens, logprob = _columns(one, tokens, scaled.log_prob(tokens))

        stepped = max(n - len(failed), 1)  # rows that record this step
        corrections = sum(own.values())
        share = (time.perf_counter() - t_step - corrections) / stepped
        full = windows.full
        columns = zip(rows, tokens, logprob, entropy, mean, std, threshold, fired)
        for i, (row, token, lp, h, m, sd, thr, fire) in enumerate(columns):
            if i in failed:
                continue
            if i in summaries:
                row.corrections[len(row.output)] = summaries[i]
            row.floats += (h, lp, share + own.get(i, 0.0), m, sd, thr)
            row.fired.append(fire)
            row.window_full.append(full)
            row.output.append(token)
        windows.push(entropy)  # pre-correction entropies, after consultation

        finished = []
        for i, (row, token) in enumerate(zip(rows, tokens)):
            if i in failed:
                continue
            if token == row.config.eos_token or len(row.output) >= row.config.max_tokens:
                finished.append(i)
                continue
            try:
                row.acts = backend.append_token(row.acts, token)
            except Exception as exc:
                failed[i] = exc
        share = (time.perf_counter() - t_step - corrections) / stepped
        for i, row in enumerate(rows):
            row.wall += share + own.get(i, 0.0)

        if finished or failed:
            for i in finished:
                results[slots[i]] = rows[i].trace(backend)
            for i, exc in failed.items():
                results[slots[i]] = exc
            live = np.ones(n, dtype=bool)
            live[finished + list(failed)] = False
            windows.keep(live)
            rows = [row for row, alive in zip(rows, live) if alive]
            slots = [slot for slot, alive in zip(slots, live) if alive]
    return results


def decode(backend: ModelBackend, prompt, config: DecodeConfig) -> DecodeTrace:
    """Generate until EOS or max_tokens, recording one step per token.

    The one-row case of decode_batch. With reflect=False the monitor still
    runs (entropies and thresholds are recorded) but the trigger is disabled:
    decisions carry fired=False, no corrections happen, and token-for-token
    output matches plain sampling under the same seed since randomness is only
    consumed by sampling.
    """
    result, = decode_batch(backend, [(prompt, config)])
    if isinstance(result, Exception):
        raise result
    return result
