"""Deterministic toy task families plus the benchmark loop and sample metrics.

Three families ship with the package:

  * copy-recall: a Markov chain that repeatedly pairs a slot token with one
    key, then walks a long distractor chain before asking for the key back.
    The chain is longer than the default entropy window, so the uncertain
    recall step stands out against a near-zero-entropy background.
  * modular-chain: render a mod-10 arithmetic chain as tokens. The bundled
    backend is a uniform Markov model, so this family mostly exercises
    prompt/answer plumbing and scoring.
  * spike-fixture: a scripted backend whose per-position entropies are flat
    except for programmed spikes, for trigger/accounting tests.

Answers are extracted as the last maximal run of answer-alphabet tokens in
the generated output; a miss yields None, which scoring treats as an
"invalid" vote of its own.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .backends import MarkovBackend, ModelBackend, ScriptedBackend, VocabSpec
from .engine import DecodeConfig, DecodeTrace, decode_batch
from .engine import decode  # noqa: F401  (perfbench/tracing.py patches harness.decode)
from .errors import ConfigError, InputError
from .utils import two_point_logits

FAMILIES = ("copy-recall", "modular-chain", "spike-fixture")

_RECALL_KEYS = 4
_RECALL_SLOT = 4
_RECALL_CHAIN_START = 5
_RECALL_REPEATS = 5
_RECALL_SMOOTHING = 1e-9

# The most samples run_benchmark decodes at once. A wider batch spreads each
# lock-step step's fixed cost over more rows; the cap bounds the live prefixes
# held in memory.
_LIVE_ROWS = 64

# The spike-fixture script: entropies in nats at the monitor temperature, a
# spike every _SPIKE_SPACING generated steps, _SPIKE_TAIL flat steps after the last.
_SPIKE_BASE_ENTROPY = 0.1
_SPIKE_PEAK_ENTROPY = 1.4
_SPIKE_TEMPERATURE = 0.6
_SPIKE_SPACING = 30
_SPIKE_TAIL = 10

_MOD_BASE = 10
_MOD_ADD = 10
_MOD_MUL = 11
_MOD_EQ = 12
_MOD_VOCAB = 13


@dataclass(frozen=True)
class Task:
    task_id: str
    prompt: tuple[int, ...]
    answer: tuple[int, ...]
    family: str
    alphabet: frozenset[int]
    max_tokens: int | None = None

    def __post_init__(self):
        if not self.prompt:
            raise InputError("task prompt must be non-empty")
        if not self.answer:
            raise InputError("task answer must be non-empty")
        if not self.alphabet:
            raise InputError("task alphabet must be non-empty")
        if any(t not in self.alphabet for t in self.answer):
            raise InputError("task answer must lie inside its alphabet")


def extract_answer(output, alphabet) -> tuple[int, ...] | None:
    """Last maximal run of alphabet tokens in `output`, or None if absent."""
    alpha = frozenset(alphabet)
    best = None
    run: list[int] = []
    for tok in output:
        if tok in alpha:
            run.append(tok)
        elif run:
            best = tuple(run)
            run = []
    if run:
        best = tuple(run)
    return best


# --- corpus generation ------------------------------------------------------

def _recall_chain_length(difficulty: int) -> int:
    return 27 + difficulty


def _copy_recall_transition(difficulty: int) -> np.ndarray:
    length = _recall_chain_length(difficulty)
    size = _RECALL_CHAIN_START + length
    p = np.zeros((size, size))
    for k in range(_RECALL_KEYS):
        p[k, _RECALL_SLOT] = 0.95
        p[k, k] = 0.05  # self-loop keeps the key columns distinguishable
    p[_RECALL_SLOT, :_RECALL_KEYS] = 0.2
    p[_RECALL_SLOT, _RECALL_CHAIN_START] = 0.2
    for j in range(length - 1):
        p[_RECALL_CHAIN_START + j, _RECALL_CHAIN_START + j + 1] = 1.0
    p[size - 1, :_RECALL_KEYS] = 0.25
    return p


def _degenerate_transition(size: int) -> np.ndarray:
    return np.eye(size)


def _spike_length(n_spikes: int) -> int:
    return _SPIKE_SPACING * n_spikes + _SPIKE_TAIL


def build_spike_backend(n_spikes: int, vocab_size: int = 32, base_token: int = 1,
                        spike_token: int = 2) -> tuple[ScriptedBackend, int, list[int]]:
    """Scripted backend whose entropy at _SPIKE_TEMPERATURE is
    _SPIKE_BASE_ENTROPY everywhere except at generated-step indices
    _SPIKE_SPACING - 1, 2 * _SPIKE_SPACING - 1, ..., where it is
    _SPIKE_PEAK_ENTROPY; _SPIKE_TAIL flat steps follow the last spike.

    Returns (backend, generated_length, spike_step_indices). Steps are indexed
    from the first generated token; prompts of length 1 line up with the script.
    """
    if n_spikes < 1:
        raise InputError("n_spikes must be at least 1")
    length = _spike_length(n_spikes)
    base = two_point_logits(_SPIKE_BASE_ENTROPY, vocab_size, hot=base_token,
                            temperature=_SPIKE_TEMPERATURE)
    spike = two_point_logits(_SPIKE_PEAK_ENTROPY, vocab_size, hot=spike_token,
                             temperature=_SPIKE_TEMPERATURE)
    positions = [_SPIKE_SPACING - 1 + _SPIKE_SPACING * i for i in range(n_spikes)]
    script = [base] * length
    for s in positions:
        script[s] = spike
    return ScriptedBackend(vocab_size, by_position=script), length, positions


def gen_corpus(family: str, seed: int, count: int, difficulty: int = 1) -> list[Task]:
    """Deterministic task list: same (family, seed, count, difficulty) in,
    same tasks out."""
    if count < 1:
        raise InputError("count must be at least 1")
    if difficulty < 0 or int(difficulty) != difficulty:
        raise InputError("difficulty must be a non-negative integer")
    if seed < 0 or int(seed) != seed:
        raise InputError("corpus seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    tasks: list[Task] = []

    if family == "copy-recall":
        if difficulty == 0:
            size = _RECALL_CHAIN_START + _recall_chain_length(1)
            alphabet = frozenset(range(size))
            for i in range(count):
                body = tuple(int(t) for t in rng.integers(0, size, size=4))
                ans = int(rng.integers(0, size))
                tasks.append(Task(f"{family}-{seed}-{i:04d}", body + (ans,),
                                  (ans,), family, alphabet, max_tokens=1))
            return tasks
        length = _recall_chain_length(difficulty)
        alphabet = frozenset(range(_RECALL_KEYS))
        for i in range(count):
            key = int(rng.integers(0, _RECALL_KEYS))
            prompt = (_RECALL_SLOT, key) * _RECALL_REPEATS \
                + (_RECALL_SLOT, _RECALL_CHAIN_START)
            tasks.append(Task(f"{family}-{seed}-{i:04d}", prompt, (key,),
                              family, alphabet, max_tokens=length))
        return tasks

    if family == "modular-chain":
        alphabet = frozenset(range(_MOD_BASE))
        if difficulty == 0:
            for i in range(count):
                ans = int(rng.integers(0, _MOD_BASE))
                prompt = (int(rng.integers(0, _MOD_BASE)), _MOD_EQ, ans)
                tasks.append(Task(f"{family}-{seed}-{i:04d}", prompt, (ans,),
                                  family, alphabet, max_tokens=1))
            return tasks
        for i in range(count):
            value = int(rng.integers(0, _MOD_BASE))
            prompt = [value]
            for _ in range(difficulty):
                op = int(rng.integers(0, 2))
                operand = int(rng.integers(0, _MOD_BASE))
                prompt.append(_MOD_ADD if op == 0 else _MOD_MUL)
                prompt.append(operand)
                value = (value + operand) % _MOD_BASE if op == 0 \
                    else (value * operand) % _MOD_BASE
            prompt.append(_MOD_EQ)
            tasks.append(Task(f"{family}-{seed}-{i:04d}", tuple(prompt),
                              (value,), family, alphabet, max_tokens=3))
        return tasks

    if family == "spike-fixture":
        if difficulty < 1:
            raise InputError("spike-fixture needs difficulty >= 1 (spike count)")
        alphabet = frozenset({2})
        return [Task(f"{family}-{seed}-{i:04d}", (0,), (2,), family, alphabet,
                     max_tokens=_spike_length(difficulty)) for i in range(count)]

    raise ConfigError(f"unknown task family: {family!r}")


def corpus_backend(family: str, seed: int = 0, difficulty: int = 1) -> ModelBackend:
    """The backend each family's corpus is meant to run against."""
    if difficulty < 0 or int(difficulty) != difficulty:
        raise InputError("difficulty must be a non-negative integer")
    if family == "copy-recall":
        if difficulty == 0:
            size = _RECALL_CHAIN_START + _recall_chain_length(1)
            return MarkovBackend(_degenerate_transition(size),
                                 smoothing=_RECALL_SMOOTHING)
        return MarkovBackend(_copy_recall_transition(difficulty),
                             smoothing=_RECALL_SMOOTHING)
    if family == "modular-chain":
        if difficulty == 0:
            return MarkovBackend(_degenerate_transition(_MOD_VOCAB),
                                 smoothing=_RECALL_SMOOTHING)
        return MarkovBackend(np.full((_MOD_VOCAB, _MOD_VOCAB), 1.0 / _MOD_VOCAB))
    if family == "spike-fixture":
        if difficulty < 1:
            raise InputError("spike-fixture needs difficulty >= 1 (spike count)")
        return build_spike_backend(difficulty)[0]
    raise ConfigError(f"unknown task family: {family!r}")


def parse_corpus_spec(spec: str) -> tuple[str, dict]:
    """Parse 'family:key=val:key=val' corpus specs (keys: seed, count, difficulty)."""
    parts = spec.split(":")
    family = parts[0]
    if family not in FAMILIES:
        raise ConfigError(f"unknown task family: {family!r}")
    options: dict[str, int] = {}
    for chunk in parts[1:]:
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"corpus option {chunk!r} is not key=value")
        key, _, value = chunk.partition("=")
        if key not in ("seed", "count", "difficulty"):
            raise ConfigError(f"unknown corpus option: {key!r}")
        try:
            options[key] = int(value)
        except ValueError:
            raise ConfigError(f"corpus option {key!r} needs an integer, got {value!r}")
    if options.get("seed", 0) < 0:
        raise ConfigError(f"corpus option 'seed' must be non-negative, got {options['seed']}")
    return family, options


# --- sample metrics ---------------------------------------------------------

_INVALID = "invalid"


def _vote_key(answer: tuple[int, ...] | None) -> str:
    if answer is None:
        return _INVALID
    return ",".join(str(t) for t in answer)


def plurality_vote(answers) -> str:
    """Most common rendered answer; ties break toward the earliest first
    occurrence; None answers vote for a shared 'invalid' bucket."""
    keys = [_vote_key(a) for a in answers]
    if not keys:
        raise InputError("cannot vote over zero samples")
    counts = Counter(keys)
    best = max(counts.values())
    for key in keys:
        if counts[key] == best:
            return key
    raise AssertionError("unreachable")


def cons_at_k(answers, truth: tuple[int, ...]) -> float:
    """1.0 if the plurality vote over this task's samples matches truth."""
    return 1.0 if plurality_vote(answers) == _vote_key(truth) else 0.0


def _check_rectangular(outcomes):
    if not outcomes:
        raise InputError("metrics need at least one task")
    k = len(outcomes[0])
    if k == 0:
        raise InputError("metrics need at least one sample per task")
    for row in outcomes:
        if len(row) != k:
            raise InputError("ragged outcome lists: every task needs the same k")
    return k


def avg_at_k(outcomes) -> float:
    """Mean over tasks of the per-task fraction of correct samples."""
    _check_rectangular(outcomes)
    return float(np.mean([np.mean([bool(b) for b in row]) for row in outcomes]))


def pass_at_k(outcomes) -> float:
    """Fraction of tasks with at least one correct sample."""
    _check_rectangular(outcomes)
    return float(np.mean([any(bool(b) for b in row) for row in outcomes]))


# --- benchmark loop ---------------------------------------------------------

@dataclass
class TaskResult:
    task_id: str
    answer: str
    samples: list[str]
    correct: list[bool]
    vote: str
    vote_correct: bool
    seeds: list[int]
    errors: int = 0
    first_error: str | None = None  # "<type>: <message>" of the first failed sample


@dataclass
class RunMetrics:
    arm: str
    k: int
    tasks: int
    avg_at_k: float
    pass_at_k: float
    cons_at_k: float
    wall_time: float
    activations: int
    inner_steps: int
    results: list[TaskResult] = field(default_factory=list)


@dataclass
class BenchmarkResult:
    metrics: RunMetrics
    traces: list[tuple[str, int, DecodeTrace]] = field(default_factory=list)


def derive_seed(sample_seed: int, task_index: int) -> int:
    """Decode seed for (sample arm j, task i): identical across arms so the
    baseline and reflective runs are paired, decorrelated across tasks."""
    ss = np.random.SeedSequence([int(sample_seed), int(task_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_benchmark(backend: ModelBackend, tasks, config: DecodeConfig, k: int,
                  seeds=None, reflect: bool | None = None,
                  keep_traces: bool = True) -> BenchmarkResult:
    """Decode every task k times and score exact-match answers.

    `seeds` gives one base seed per sample index (defaults to 0..k-1); the
    per-decode seed is derived from (seeds[j], task_index) so arms sharing
    `seeds` are paired sample-for-sample. Samples are decoded in lock-step
    batches of at most _LIVE_ROWS rows, in task-then-sample order. A decode
    that raises any Exception counts as an invalid sample rather than killing
    the run; the task keeps the first such error's message.
    """
    tasks = list(tasks)
    if not tasks:
        raise InputError("benchmark needs at least one task")
    if k < 1:
        raise InputError("k must be at least 1")
    if seeds is None:
        seeds = list(range(k))
    seeds = list(seeds)
    for s in seeds:
        # int() would run 1.5 and True as seed 1, and SeedSequence refuses -1
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s < 0:
            raise InputError(f"sample seed {s!r} is not a non-negative integer")
    seeds = [int(s) for s in seeds]
    if len(seeds) != k:
        raise InputError(f"need exactly {k} sample seeds, got {len(seeds)}")
    if reflect is None:
        reflect = config.reflect

    traces: list[tuple[str, int, DecodeTrace]] = []
    activations = 0
    inner_steps = 0
    started = time.perf_counter()

    runs = []  # (task index, sample index, prompt, config), task by task
    used_seeds: list[list[int]] = []
    for index, task in enumerate(tasks):
        used_seeds.append([derive_seed(s, index) for s in seeds])
        for j, run_seed in enumerate(used_seeds[index]):
            run_config = replace(config, seed=run_seed, reflect=reflect)
            if task.max_tokens is not None:
                run_config = replace(run_config, max_tokens=task.max_tokens)
            runs.append((index, j, task.prompt, run_config))
    extracted: list[list] = [[] for _ in tasks]
    failures: list[list[str]] = [[] for _ in tasks]
    for start in range(0, len(runs), _LIVE_ROWS):
        chunk = runs[start:start + _LIVE_ROWS]
        outcomes = decode_batch(backend, [(prompt, cfg) for _, _, prompt, cfg in chunk])
        for (index, j, _, _), trace in zip(chunk, outcomes):
            if isinstance(trace, Exception):
                extracted[index].append(None)
                failures[index].append(f"{type(trace).__name__}: {trace}")
                continue
            extracted[index].append(extract_answer(trace.output, tasks[index].alphabet))
            activations += trace.totals.n_activations
            inner_steps += trace.totals.inner_steps
            if keep_traces:
                traces.append((tasks[index].task_id, j, trace))

    results: list[TaskResult] = []
    for index, task in enumerate(tasks):
        truth = _vote_key(task.answer)
        samples = [_vote_key(e) for e in extracted[index]]
        vote = plurality_vote(extracted[index])
        results.append(TaskResult(
            task_id=task.task_id, answer=truth, samples=samples,
            correct=[e == task.answer for e in extracted[index]],
            vote=vote, vote_correct=vote == truth,
            seeds=used_seeds[index],
            errors=len(failures[index]),
            first_error=failures[index][0] if failures[index] else None))

    outcomes = [r.correct for r in results]
    metrics = RunMetrics(
        arm="reflect" if reflect else "baseline", k=k, tasks=len(tasks),
        avg_at_k=avg_at_k(outcomes), pass_at_k=pass_at_k(outcomes),
        cons_at_k=float(np.mean([r.vote_correct for r in results])),
        wall_time=time.perf_counter() - started,
        activations=activations, inner_steps=inner_steps, results=results)
    return BenchmarkResult(metrics=metrics, traces=traces)


# --- trace analysis ---------------------------------------------------------

@dataclass(frozen=True)
class TokenCount:
    token: int
    name: str
    count: int


def critical_tokens(traces, vocab: VocabSpec | None = None) -> list[TokenCount]:
    """Tokens selected at triggered steps, sorted by count desc then token id."""
    counts: Counter[int] = Counter()
    for trace in traces:
        for step in trace.steps:
            if step.trigger.fired:
                counts[step.token] += 1
    out = [TokenCount(tok, vocab.name_of(tok) if vocab else str(tok), n)
           for tok, n in counts.items()]
    out.sort(key=lambda tc: (-tc.count, tc.token))
    return out
