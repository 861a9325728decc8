"""Autoregressive decode loop with entropy-triggered self-reflection.

Per generated token: form next-token logits from the cached final hidden state,
measure predictive entropy at the monitor temperature, and consult the dynamic
trigger against the window of previous step entropies. On a fired trigger,
optimize a transient correction vector and add it to the current hidden state
for this step's sampling only; the vector is discarded afterwards and cached
states are never modified, so later steps see the unmodified model. The step's
pre-correction entropy enters the window after the trigger was consulted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .backends import ModelBackend, logits_at
from .errors import InputError
from .monitor import EntropyWindow, TriggerConfig, TriggerDecision, should_trigger
from .optimizer import (Correction, HybridLossReport, ReflectionConfig,
                        adapt_lambda, optimize_delta)
from .utils import entropy_from_logits, log_softmax, softmax


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


def nucleus_distribution(probs, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Support ids and renormalized probabilities of the nucleus filter."""
    p = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-p, kind="stable")  # descending prob, equal probs by ascending id
    cum = np.cumsum(p[order])
    cut = int(np.searchsorted(cum, top_p, side="left"))
    if cut >= len(order):  # float shortfall when top_p ~ 1
        cut = len(order) - 1
    support = order[: cut + 1]
    kept = p[support]
    return support, kept / kept.sum()


def sample(logits, sampling: SamplingConfig, rng: np.random.Generator) -> int:
    """Draw one token id. Greedy mode never consumes randomness."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise InputError("logits must be a non-empty 1-d vector")
    if np.any(np.isnan(z)):
        raise InputError("logits must not contain NaN")
    if np.max(z) == -math.inf:
        raise InputError("cannot sample: all logits are -inf")
    if sampling.mode == "greedy":
        return int(np.argmax(z))
    p = softmax(z, sampling.temperature)
    support, kept = nucleus_distribution(p, sampling.top_p)
    cum = np.cumsum(kept)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    if idx >= len(support):
        idx = len(support) - 1
    return int(support[idx])


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


def decode(backend: ModelBackend, prompt, config: DecodeConfig) -> DecodeTrace:
    """Generate until EOS or max_tokens, recording one StepRecord per token.

    With reflect=False the monitor still runs (entropies and thresholds are
    recorded) but the trigger is disabled: decisions carry fired=False, no
    corrections happen, and token-for-token output matches plain sampling
    under the same seed since randomness is only consumed by sample().
    """
    if config.eos_token is not None and not 0 <= config.eos_token < backend.vocab.size:
        raise InputError(f"eos_token {config.eos_token} out of range")
    prompt = tuple(prompt)
    longest = len(prompt) + config.max_tokens - 1  # the last token is never appended
    if backend.max_len is not None and longest > backend.max_len:
        raise InputError(f"a prompt of {len(prompt)} tokens plus max_tokens {config.max_tokens} "
                         f"needs prefixes of {longest} tokens, beyond max_len {backend.max_len}")
    head = backend.head
    acts = backend.forward_prefix(prompt)
    window = EntropyWindow(config.trigger.window_size)
    rng = np.random.default_rng(config.seed)
    weight = config.reflection.entropy_weight
    lp_temp = (config.sampling.temperature
               if config.sampling.mode == "temperature" else 1.0)

    steps: list[StepRecord] = []
    output: list[int] = []
    activations = 0
    inner_steps = 0
    t_start = time.perf_counter()

    while True:
        t_step = time.perf_counter()
        z = logits_at(head, acts.last_hidden)
        step_entropy = entropy_from_logits(z, config.trigger.temperature)
        decision = should_trigger(window, step_entropy, config.trigger)
        if decision.fired and not config.reflect:
            decision = replace(decision, fired=False)

        summary = None
        z_sample = z
        if decision.fired:
            activations += 1
            refl = replace(config.reflection, entropy_weight=weight)
            if refl.steps == 0:
                # monitor-only fast path: delta stays 0, skip the loss machinery
                summary = CorrectionSummary(
                    steps_taken=0, aborted=False, entropy_weight=weight,
                    delta_norm=0.0, final_l_ce=None, final_l_aem=None,
                    final_f_lambda=None, opt_wall_time=0.0)
            else:
                t_opt = time.perf_counter()
                corr = optimize_delta(acts, head, refl)
                opt_time = time.perf_counter() - t_opt
                summary = _summarize(corr, weight, opt_time)
                inner_steps += corr.steps_taken
                if not corr.aborted:
                    z_sample = logits_at(head, acts.last_hidden, corr.delta)
                    if refl.adaptive is not None and corr.trajectory:
                        weight = adapt_lambda(refl, corr.trajectory[-1].l_ce)

        token = sample(z_sample, config.sampling, rng)
        logprob = float(log_softmax(z_sample, lp_temp)[token])
        steps.append(StepRecord(
            position=len(output), token=token, entropy=step_entropy,
            trigger=decision, logprob=logprob,
            wall_time=time.perf_counter() - t_step, correction=summary))
        output.append(token)
        window.observe(step_entropy)  # pre-correction entropy, after consultation

        if token == config.eos_token or len(output) >= config.max_tokens:
            break
        acts = backend.append_token(acts, token)

    totals = TraceTotals(n_activations=activations, inner_steps=inner_steps,
                         wall_time=time.perf_counter() - t_start)
    return DecodeTrace(model_id=backend.model_id, prompt=acts.tokens[:acts.prompt_len],
                       output=tuple(output), steps=steps, totals=totals,
                       config=config, seed=config.seed)
