"""Autoregressive decode loop with entropy-triggered self-reflection.

Per generated token: form next-token logits from the cached final hidden state,
measure predictive entropy at the monitor temperature, and consult the dynamic
trigger against the window of previous step entropies. On a fired trigger,
optimize a transient correction vector and add it to the current hidden state
for this step's sampling only; the vector is discarded afterwards and cached
states are never modified, so later steps see the unmodified model. The step's
pre-correction entropy enters the window after the trigger was consulted.

One loop serves every decode: `decode_batch` advances many decodes in
lock-step, and `decode` is its one-row case. Logits, entropies, trigger
statistics, sampling and log-probabilities are array operations over the
rows (utils.ScaledRows, monitor.trigger_rows), each reducing every row on
its own, so a row's trace does not depend on the rows beside it; the
one-row helpers (softmax, entropy_from_logits, should_trigger, sample) are
the one-row case of the same code. Corrections, backend appends and random
draws stay per row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .backends import ModelBackend, PrefixActivations, logits_at
from .errors import InputError
from .monitor import EntropyWindows, TriggerConfig, TriggerDecision, trigger_rows
from .optimizer import (Correction, HybridLossReport, ReflectionConfig,
                        adapt_lambda, optimize_delta)
from .utils import ScaledRows
# The decode loop computes these on row blocks; the one-row functions stay
# importable from here because perfbench/tracing.py wraps these names.
from .monitor import should_trigger  # noqa: F401
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
                 sampling: SamplingConfig) -> np.ndarray:
    """One token per row of the logit block z: its argmax in greedy mode, else
    a nucleus draw with one uniform from the row's generator (a None generator
    draws 0.0 and consumes nothing). `scaled` is z at the sampling temperature
    when the caller has it already."""
    if sampling.mode == "greedy":
        return z.argmax(axis=1)
    if scaled is None:
        scaled = ScaledRows(z, sampling.temperature)
    draws = [0.0 if rng is None else rng.random() for rng in rngs]
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


@dataclass
class StepRecord:
    position: int
    token: int
    entropy: float
    trigger: TriggerDecision
    logprob: float
    wall_time: float
    correction: CorrectionSummary | None = None


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
    steps: list[StepRecord]
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

    __slots__ = ("config", "prompt", "acts", "rng", "weight", "steps", "output",
                 "activations", "inner_steps", "wall")

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
        self.steps: list[StepRecord] = []
        self.output: list[int] = []
        self.activations = 0
        self.inner_steps = 0
        self.wall = 0.0

    def correct(self, head, reflection: ReflectionConfig):
        """Run this step's correction: its summary, and the corrected logits
        (None when nothing changes the step's logits)."""
        self.activations += 1
        weight = self.weight
        refl = replace(reflection, entropy_weight=weight)
        if refl.steps == 0:
            # monitor-only fast path: delta stays 0, skip the loss machinery
            return _summarize(Correction(np.zeros(head.hidden_dim)), weight, 0.0), None
        t_opt = time.perf_counter()
        corr = optimize_delta(self.acts, head, refl)
        summary = _summarize(corr, weight, time.perf_counter() - t_opt)
        self.inner_steps += corr.steps_taken
        if corr.aborted:
            return summary, None
        if refl.adaptive is not None and corr.trajectory:
            self.weight = adapt_lambda(refl, corr.trajectory[-1].l_ce)
        return summary, logits_at(head, self.acts.last_hidden, corr.delta)

    def trace(self, backend: ModelBackend) -> DecodeTrace:
        totals = TraceTotals(n_activations=self.activations, inner_steps=self.inner_steps,
                             wall_time=self.wall)
        return DecodeTrace(model_id=backend.model_id, prompt=self.prompt,
                           output=tuple(self.output), steps=self.steps, totals=totals,
                           config=self.config, seed=self.config.seed)


def decode_batch(backend: ModelBackend, runs) -> list[DecodeTrace | Exception]:
    """Decode several (prompt, DecodeConfig) runs in lock-step, one row each.

    Rows may differ in prompt, seed, max_tokens and eos_token; every other
    config field must be shared, or InputError is raised. Each row stops on
    its own at EOS or max_tokens, and its trace equals what the row's decode
    alone records, timings aside. A row's step wall_time is its equal share of
    the lock-step step plus its own correction time.

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
    while rows:
        t_step = time.perf_counter()
        n = len(rows)
        z = np.empty((n, head.vocab_size))
        for i, row in enumerate(rows):
            z[i] = head.matrix @ row.acts.last_hidden  # per-row gemv: a gemm may round differently
        monitored = ScaledRows(z, trigger.temperature)
        entropy, _, _ = monitored.entropy()
        mean, std, threshold, fired = trigger_rows(windows, entropy, trigger)
        failed: dict[int, Exception] = {}
        if not monitored.ok.all():
            for i in np.flatnonzero(~monitored.ok).tolist():
                failed[i] = InputError("step entropy must be finite")
        summaries: dict[int, CorrectionSummary] = {}
        own: dict[int, float] = {}  # seconds each correcting row spent on its own
        if not shared.reflect:
            fired[:] = False
        elif fired.any():
            z = z.copy()  # the sampling logits; monitored keeps the uncorrected block
            for i in np.flatnonzero(fired).tolist():
                t_corr = time.perf_counter()
                try:
                    summaries[i], z_fix = rows[i].correct(head, shared.reflection)
                    if z_fix is not None:
                        _check_logits(z_fix)
                        z[i] = z_fix
                except Exception as exc:
                    failed[i] = exc
                own[i] = time.perf_counter() - t_corr
        # sampling reuses the monitor's scaled block when it holds the sampling
        # logits at the sampling temperature; failed rows are zeroed to keep
        # the block finite and draw no randomness
        temperature = 1.0 if shared.sampling.mode == "greedy" else shared.sampling.temperature
        scaled = monitored
        if failed or z is not monitored.z or temperature != monitored.temperature:
            if failed:
                z = z.copy()
                z[list(failed)] = 0.0
            scaled = ScaledRows(z, temperature)
        rngs = [None if i in failed else row.rng for i, row in enumerate(rows)]
        tokens = _sample_rows(z, scaled, rngs, shared.sampling)
        logprob = scaled.log_prob(tokens).tolist()
        tokens = tokens.tolist()

        stepped = max(n - len(failed), 1)  # rows that record this step
        corrections = sum(own.values())
        share = (time.perf_counter() - t_step - corrections) / stepped
        columns = zip(rows, tokens, logprob, entropy.tolist(), mean.tolist(), std.tolist(),
                      threshold.tolist(), fired.tolist())
        for i, (row, token, lp, h, m, sd, thr, fire) in enumerate(columns):
            if i in failed:
                continue
            row.steps.append(StepRecord(
                position=len(row.output), token=token, entropy=h,
                trigger=TriggerDecision(entropy=h, mean=m, std=sd, threshold=thr,
                                        fired=fire, window_full=windows.full),
                logprob=lp, wall_time=share + own.get(i, 0.0), correction=summaries.get(i)))
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
    """Generate until EOS or max_tokens, recording one StepRecord per token.

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
