"""The four benchmark workloads.

A workload builds its inputs from the workload seed in `setup`, runs one timed
pass in `run`, and checks what the pass produced in `check`. All calls into
selfreflect go through a `tracing.Calls`, so the same code serves the untraced
timed passes and the traced pass. Why each workload exists, and what each
queued optimization is predicted to move on it, is in workloads.json.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from selfreflect import engine, harness, traceio, verify
from selfreflect.backends import AttentionBackend, MarkovBackend
from selfreflect.engine import DecodeConfig, SamplingConfig
from selfreflect.optimizer import ReflectionConfig

GREEDY = SamplingConfig(mode="greedy")


@dataclass
class Outcome:
    """What one pass produced, beyond its wall time."""

    traces: list = field(default_factory=list)  # every DecodeTrace, in call order
    figures: dict = field(default_factory=dict)  # metric name -> value, units in FIGURE_UNITS
    decode_ms: list = field(default_factory=list)  # reflect-arm decode latencies (recall-k5)
    totals: dict = field(default_factory=dict)  # exact counts compared against the reference
    trace_bytes: int = 0
    suites: dict = field(default_factory=dict)  # verify-suites: name -> SuiteReport

    def digest(self) -> str:
        """Hash of every generated token sequence, or of every suite's exact
        counts, in order."""
        h = hashlib.sha256()
        for trace in self.traces:
            h.update((",".join(map(str, trace.output)) + ";").encode())
        for name, report in self.suites.items():
            h.update(json.dumps([name, report.passed, _exact_details(report)],
                                sort_keys=True).encode())
        return h.hexdigest()[:16]

    def replay(self) -> list[str]:
        """What must not change under tracing: replay_form of every trace,
        or every suite's details minus timings."""
        forms = [traceio.replay_form(t) for t in self.traces]
        forms += [json.dumps([n, r.passed, r.details], sort_keys=True, default=repr)
                  for n, r in self.suites.items()]
        return forms


FIGURE_UNITS = {
    "tokens_per_s.reflect": "tokens/s",
    "tokens_per_s.baseline": "tokens/s",
    "avg_at_k.reflect": "share",
    "avg_at_k.baseline": "share",
}


def _exact_details(report) -> dict:
    """Integer and boolean suite details: the counts that must repeat exactly."""
    return {k: v for k, v in report.details.items() if isinstance(v, (bool, int))}


def _totals(traces) -> dict:
    return {"n_activations": sum(t.totals.n_activations for t in traces),
            "inner_steps": sum(t.totals.inner_steps for t in traces)}


def _round_trip(calls, trace) -> int:
    """serialize -> parse -> serialize, as `bench --out` then `analyze` do."""
    text = calls.call("traceio.serialize_trace", traceio.serialize_trace, trace)
    parsed = calls.call("traceio.parse_trace", traceio.parse_trace, text)
    again = calls.call("traceio.serialize_trace", traceio.serialize_trace, parsed)
    if again != text:
        raise ValueError(f"trace round trip is not byte-identical (seed {trace.seed})")
    return len(text.encode())


def _rate(tokens: int, seconds: float) -> float:
    return tokens / seconds if seconds > 0 else 0.0


class RecallK5:
    """The c11 acceptance shape: 100 copy-recall tasks x k=5, both arms."""

    name = "recall-k5"
    tasks = 100
    k = 5
    min_gap = 0.10  # the c11 bar on avg@k, reflect minus baseline

    def setup(self, seed):
        t0 = time.perf_counter()
        backend = harness.corpus_backend("copy-recall")
        t1 = time.perf_counter()
        tasks = harness.gen_corpus("copy-recall", seed, self.tasks)
        t2 = time.perf_counter()
        config = DecodeConfig(reflection=ReflectionConfig(backtracking=True))
        engine.decode(backend, tasks[0].prompt,
                      replace(config, max_tokens=tasks[0].max_tokens, seed=seed))
        state = {"backend": backend, "tasks": tasks, "config": config,
                 "seeds": [seed * self.k + j for j in range(self.k)]}
        return state, {"backends.construct_s": t1 - t0, "harness.gen_corpus_s": t2 - t1}

    def run(self, state, calls) -> Outcome:
        out = Outcome()
        backend = calls.backend(state["backend"])
        for arm, reflect in (("reflect", True), ("baseline", False)):
            first = len(calls.decode_s)
            try:
                result = calls.call("harness.run_benchmark", harness.run_benchmark,
                                    backend, state["tasks"], state["config"], self.k,
                                    seeds=state["seeds"], reflect=reflect)
            except Exception as exc:  # run_benchmark itself broke; record and go on
                calls.check(f"{arm} arm", False, f"{type(exc).__name__}: {exc}")
                continue
            traces = [t for _, _, t in result.traces]
            seconds = sum(calls.decode_s[first:])
            out.traces += traces
            out.figures[f"tokens_per_s.{arm}"] = _rate(sum(len(t.output) for t in traces), seconds)
            out.figures[f"avg_at_k.{arm}"] = result.metrics.avg_at_k
            if reflect:
                out.decode_ms = [1e3 * s for s in calls.decode_s[first:]]
        for trace in out.traces:
            ok, size = calls.op("bench.round_trip", _round_trip, calls, trace)
            out.trace_bytes += size if ok else 0
        out.totals = _totals(out.traces)
        return out

    def check(self, out: Outcome, calls) -> None:
        gap = out.figures.get("avg_at_k.reflect", 0.0) - out.figures.get("avg_at_k.baseline", 0.0)
        calls.check("recall-k5 avg@k gap", gap >= self.min_gap,
                    f"(reflect - baseline = {gap:.3f} < {self.min_gap})")
        calls.check("recall-k5 decode count", len(out.traces) == 2 * self.tasks * self.k,
                    f"({len(out.traces)} traces)")


class LongContext:
    """Long greedy decodes without reflection: per-token cost versus prefix length."""

    name = "long-context"
    vocab = 512
    markov_tokens = 4096
    attention_dim = 256
    attention_tokens = 1024
    warmup_tokens = 32

    def setup(self, seed):
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        markov = MarkovBackend(rng.dirichlet(np.ones(self.vocab), size=self.vocab),
                               smoothing=1e-6)
        attention = AttentionBackend(self.vocab, self.attention_dim, seed,
                                     max_len=self.attention_tokens + 1)
        t1 = time.perf_counter()
        config = DecodeConfig(sampling=GREEDY, reflect=False, seed=seed)
        for backend in (markov, attention):
            engine.decode(backend, (0,), replace(config, max_tokens=self.warmup_tokens))
        state = {"runs": [(markov, replace(config, max_tokens=self.markov_tokens)),
                          (attention, replace(config, max_tokens=self.attention_tokens))]}
        return state, {"backends.construct_s": t1 - t0}

    def run(self, state, calls) -> Outcome:
        out = Outcome()
        first = len(calls.decode_s)
        for backend, config in state["runs"]:
            try:
                out.traces.append(calls.decode(calls.backend(backend), (0,), config))
            except Exception:  # already counted as a failed decode
                pass
        tokens = sum(len(t.output) for t in out.traces)
        out.figures["tokens_per_s.baseline"] = _rate(tokens, sum(calls.decode_s[first:]))
        out.totals = _totals(out.traces)
        return out

    def check(self, out: Outcome, calls) -> None:
        want = [self.markov_tokens, self.attention_tokens]
        got = [len(t.output) for t in out.traces]
        calls.check("long-context lengths", got == want, f"({got} != {want})")
        calls.check("long-context reflection off", out.totals["n_activations"] == 0)


class SpikeReflect:
    """32 scripted entropy spikes over 970 tokens, corrected with full-prefix context loss."""

    name = "spike-reflect"
    spikes = 32
    vocab = 512
    steps = 5
    warmup_tokens = 64

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        base_token, spike_token = (int(t) for t in rng.choice(self.vocab, size=2, replace=False))
        prompt = (int(rng.integers(self.vocab)),)
        t0 = time.perf_counter()
        backend, length, _ = harness.build_spike_backend(
            self.spikes, vocab_size=self.vocab, base_token=base_token, spike_token=spike_token)
        t1 = time.perf_counter()
        config = DecodeConfig(
            reflection=ReflectionConfig(steps=self.steps, ce_scope="full-prefix"),
            sampling=GREEDY, max_tokens=length, seed=seed)
        engine.decode(backend, prompt, replace(config, max_tokens=self.warmup_tokens))
        state = {"backend": backend, "prompt": prompt, "config": config}
        return state, {"backends.construct_s": t1 - t0}

    def run(self, state, calls) -> Outcome:
        out = Outcome()
        backend = calls.backend(state["backend"])
        for arm, reflect in (("reflect", True), ("baseline", False)):
            first = len(calls.decode_s)
            try:
                trace = calls.decode(backend, state["prompt"], replace(state["config"], reflect=reflect))
            except Exception:  # already counted as a failed decode
                continue
            out.traces.append(trace)
            out.figures[f"tokens_per_s.{arm}"] = _rate(len(trace.output), sum(calls.decode_s[first:]))
        out.totals = _totals(out.traces)
        return out

    def check(self, out: Outcome, calls) -> None:
        want = {"n_activations": self.spikes, "inner_steps": self.spikes * self.steps}
        calls.check("spike-reflect corrections", out.totals == want, f"({out.totals} != {want})")
        calls.check("spike-reflect arms", len(out.traces) == 2)


class VerifySuites:
    """The numerical verification suites, except the timing-based overhead suite."""

    name = "verify-suites"
    suites = ("gradients", "theorem1", "tradeoff", "joint-descent")
    theorem1_candidates = 1_028_051
    warmup_count = 2

    def setup(self, seed):
        for name in self.suites:
            verify.SUITES[name](seed=seed, count=self.warmup_count)
        return {"seed": seed}, {}

    def run(self, state, calls) -> Outcome:
        out = Outcome()
        for name in self.suites:
            ok, report = calls.op(f"verify.{name}", verify.SUITES[name], seed=state["seed"])
            if ok:
                out.suites[name] = report
        theorem1 = out.suites.get("theorem1")
        out.totals = {"theorem1_candidates":
                      theorem1.details["candidates_tested"] if theorem1 else 0}
        return out

    def check(self, out: Outcome, calls) -> None:
        for name in self.suites:
            report = out.suites.get(name)
            calls.check(f"verify {name} passed", report is not None and report.passed)
        got = out.totals["theorem1_candidates"]
        calls.check("verify theorem1 candidates", got == self.theorem1_candidates,
                    f"({got} != {self.theorem1_candidates})")


WORKLOADS = {w.name: w for w in (RecallK5(), LongContext(), SpikeReflect(), VerifySuites())}
