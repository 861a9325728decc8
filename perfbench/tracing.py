"""Operation accounting and span tracing around selfreflect's public entry points.

`Calls` is the one door through which the workloads reach the program. It
counts operations (a decode, a trace round-trip, a verification suite, an
output check), turns any exception into a failed operation instead of ending
the run, and keeps the first error message.

`Recorder` gives the traced run its spans. It wraps, from outside the package,
the names that `engine` and `optimizer` look up at call time, puts a
delegating proxy in front of each backend, and records one span per call:
name, start, end, parent span and decode id. Spans stay in memory and are
written out when the benchmark ends. `Recorder.installed()` restores every
patched name on exit, so the untraced passes always run the unmodified code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from selfreflect import engine, harness, optimizer, verify
from selfreflect.errors import InputError

# span fields
NAME, START, END, PARENT, DECODE = range(5)


class Calls:
    """Operation counts, failure capture and per-decode latency."""

    def __init__(self, recorder: "Recorder | None" = None):
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        self.decode_s: list[float] = []
        self._decode = recorder.decode_wrapper(engine.decode) if recorder else engine.decode

    def fail(self, what: str, error) -> None:
        self.failed += 1
        if self.first_error is None:
            detail = f"{type(error).__name__}: {error}" if isinstance(error, BaseException) else str(error)
            self.first_error = f"{what}: {detail}"

    def op(self, name: str, fn, *args, **kwargs):
        """One counted operation. Returns (ok, result); an exception becomes
        a failed operation and result None."""
        self.attempted += 1
        try:
            return True, self.call(name, fn, *args, **kwargs)
        except Exception as exc:  # the runner must keep going to measure failed_share
            self.fail(name, exc)
            return False, None

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        """One counted output check; a mismatch is a failed operation."""
        self.attempted += 1
        if not ok:
            self.fail(what, f"check failed {detail}".rstrip())
        return ok

    def call(self, name: str, fn, *args, **kwargs):
        """Uncounted call; a span when tracing."""
        if self.recorder is None:
            return fn(*args, **kwargs)
        return self.recorder.wrap(name, fn)(*args, **kwargs)

    def backend(self, backend):
        return backend if self.recorder is None else TracedBackend(backend, self.recorder)

    def decode(self, backend, prompt, config):
        """engine.decode as one counted operation. Installed as harness.decode
        so that run_benchmark's decodes are counted too; any failure is
        re-raised as InputError, which run_benchmark scores as an invalid
        sample and moves past."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            trace = self._decode(backend, prompt, config)
        except Exception as exc:
            self.fail("engine.decode", exc)
            raise InputError(f"decode failed: {exc}") from exc
        self.decode_s.append(time.perf_counter() - started)
        return trace

    @contextmanager
    def installed(self):
        original = harness.decode
        harness.decode = self.decode
        try:
            yield self
        finally:
            harness.decode = original


class TracedBackend:
    """Delegating backend proxy whose prefix calls are spans."""

    def __init__(self, inner, recorder: "Recorder"):
        self._inner = inner
        self.vocab = inner.vocab
        self.head = inner.head
        self.model_id = inner.model_id
        self.forward_prefix = recorder.wrap("backends.forward_prefix", inner.forward_prefix,
                                            recorder.keep_prefix)
        self.append_token = recorder.wrap("backends.append_token", inner.append_token,
                                          recorder.keep_prefix)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Recorder:
    """In-memory span log plus the few counts only a call boundary can see."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, decode_id]; index is the span id
        self._stack: list[int] = []
        self.decode_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._last_prefix = None
        self.state_bytes: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.decode_id]
            spans.append(span)
            stack.append(sid)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    # --- per-call facts ---------------------------------------------------

    def keep_prefix(self, acts) -> None:
        self._last_prefix = acts

    def decode_wrapper(self, decode):
        traced = self.wrap("engine.decode", decode)

        def wrapper(*args, **kwargs):
            self.decode_id += 1
            self._last_prefix = None
            try:
                return traced(*args, **kwargs)
            finally:
                acts = self._last_prefix
                if acts is not None:  # computed from array sizes, not measured
                    self.state_bytes.append(sum(h.nbytes for h in acts.hidden)
                                            + 8 * len(acts.tokens))
                self._last_prefix = None
                self.decode_id = 0

        return wrapper

    def _count_fired(self, decision) -> None:
        self.counts["monitor.fired"] += decision.fired

    def _count_positions(self, positions) -> None:
        if self.parent_name() == "optimizer.grad_hybrid":
            self.counts["optimizer.ce_positions.sum"] += len(positions)
            self.counts["optimizer.ce_positions.n"] += 1

    def _optimize_wrapper(self, optimize):
        traced = self.wrap("optimizer.optimize_delta", optimize)

        def wrapper(acts, head, config):
            trials_before = self.counts["optimizer.loss_ce.calls"]
            corr = traced(acts, head, config)
            trials = self.counts["optimizer.loss_ce.calls"] - trials_before
            # a backtracking step tries candidates through loss_ce; a plain step is its own attempt
            self.counts["optimizer.attempts"] += trials if config.backtracking else corr.steps_taken
            self.counts["optimizer.accepted"] += corr.steps_taken
            self.counts["optimizer.aborted"] += corr.aborted
            return corr

        return wrapper

    def _count_loss_ce(self, value) -> None:
        self.counts["optimizer.loss_ce.calls"] += 1

    @contextmanager
    def installed(self):
        """Patch the looked-up names for the duration of the traced pass."""
        patches = [
            (engine, "logits_at", self.wrap("backends.logits_at", engine.logits_at)),
            (engine, "entropy_from_logits",
             self.wrap("utils.entropy_from_logits", engine.entropy_from_logits)),
            (engine, "log_softmax", self.wrap("utils.log_softmax", engine.log_softmax)),
            (engine, "should_trigger",
             self.wrap("monitor.should_trigger", engine.should_trigger, self._count_fired)),
            (engine, "optimize_delta", self._optimize_wrapper(engine.optimize_delta)),
            (engine, "adapt_lambda", self.wrap("optimizer.adapt_lambda", engine.adapt_lambda)),
            (engine, "sample", self.wrap("engine.sample", engine.sample)),
            (optimizer, "grad_hybrid", self.wrap("optimizer.grad_hybrid", optimizer.grad_hybrid)),
            (optimizer, "loss_ce",
             self.wrap("optimizer.loss_ce", optimizer.loss_ce, self._count_loss_ce)),
            (optimizer, "loss_aem", self.wrap("optimizer.loss_aem", optimizer.loss_aem)),
            (optimizer, "ce_positions",
             self.wrap("optimizer.ce_positions", optimizer.ce_positions, self._count_positions)),
            # verify's prefix instances call the loss functions through its own imports
            (verify, "loss_ce", self.wrap("optimizer.loss_ce", verify.loss_ce, self._count_loss_ce)),
            (verify, "loss_aem", self.wrap("optimizer.loss_aem", verify.loss_aem)),
            (verify, "loss_gradients", self.wrap("optimizer.loss_gradients", verify.loss_gradients)),
            (verify.LossInstance, "batch_eval",
             self.wrap("verify.batch_eval", verify.LossInstance.batch_eval)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write('{"fields":["id","name","start","end","parent","decode_id"]}\n')
            for sid, (name, start, end, parent, decode_id) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, decode_id]) + "\n")


# --- per-module figures -------------------------------------------------------

def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover. Calls are
    synchronous, so children never overlap and the cover is their sum."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


MODULES = ("backends", "monitor", "utils", "engine", "optimizer", "harness",
           "traceio", "verify", "bench")


def accounting(spans, wall: float) -> tuple[dict[str, float], float, float]:
    """Self time per module (the span-name prefix; `bench` is the benchmark's
    own code), the part of `wall` no span covers, and the residual
    wall - (module self times + uncovered), which is zero up to rounding
    when spans nest properly."""
    module_self = dict.fromkeys(MODULES, 0.0)
    for span, own in zip(spans, self_times(spans)):
        module_self[span[NAME].split(".", 1)[0]] += own
    uncovered = wall - sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return module_self, uncovered, wall - sum(module_self.values()) - uncovered


def nesting_errors(spans) -> int:
    """Spans that start before or end after their parent."""
    bad = 0
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            bad += span[START] < parent[START] or span[END] > parent[END]
    return bad


def summarize(spans) -> dict[str, dict[str, float]]:
    """calls, total and self seconds per span name."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = out[span[NAME]]
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return dict(out)


def quarter_means_us(spans, name: str) -> tuple[float, float]:
    """Mean microseconds per `name` call over the first and the last quarter
    of each decode's calls, pooled over decodes."""
    by_decode: dict[int, list[float]] = defaultdict(list)
    for span in spans:
        if span[NAME] == name and span[DECODE] > 0:
            by_decode[span[DECODE]].append(span[END] - span[START])
    first, last = [], []
    for durations in by_decode.values():
        q = len(durations) // 4
        if q:
            first.extend(durations[:q])
            last.extend(durations[-q:])
    mean = (lambda xs: 1e6 * sum(xs) / len(xs) if xs else 0.0)
    return mean(first), mean(last)
