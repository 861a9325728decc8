"""Lock-step batched decoding: every row equals its one-row decode, bit for bit."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pin_platform import where
from selfreflect import (AdaptiveWeightConfig, AttentionBackend, DecodeConfig,
                         EntropyWindow, InputError, MarkovBackend, ReflectionConfig, SamplingConfig, ScriptedBackend,
                         TriggerConfig, adapt_lambda, build_spike_backend, corpus_backend,
                         decode, entropy_from_logits, gen_corpus, log_softmax, logits_at,
                         nucleus_distribution, optimize_delta, parse_trace, replay_form,
                         run_benchmark, sample, serialize_trace, should_trigger, softmax)
from selfreflect import engine
from selfreflect.engine import (CorrectionSummary, DecodeTrace, StepRecord, TraceTotals,
                                _nucleus_draw, decode_batch)
from selfreflect.harness import Task
from selfreflect.monitor import EntropyWindows, trigger_rows
from selfreflect.optimizer import ce_positions, optimize_rows

GREEDY = SamplingConfig(mode="greedy")

# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

# sha256 of the concatenated replay_form of every trace, recorded with the
# per-token decode loop that preceded batching and re-recorded when the inner
# loop's context loss became factorized (the same tokens, floats moved by
# rounding only)
RECALL_PIN = "44ce163a3c4005f852814b39cae8a224692dd64e8cbd6c068cddc82f7c10fb44"
SPIKE_PIN = "c52e056ebaf332fb89bceda2fbd8f4827586665c42e624369aac6d4858b98b8a"


def digest(traces):
    h = hashlib.sha256()
    for trace in traces:
        h.update(replay_form(trace).encode())
    return h.hexdigest()


# --- the one-row loop, written out with the one-row functions ---------------

def reference_sample(z, sampling, rng):
    """Sampling as one row: argsort, cumsum and searchsorted on one vector."""
    if sampling.mode == "greedy":
        return int(np.argmax(z))
    p = softmax(z, sampling.temperature)
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    cut = min(int(np.searchsorted(cum, sampling.top_p, side="left")), len(order) - 1)
    support = order[: cut + 1]
    kept = p[support] / p[support].sum()
    idx = int(np.searchsorted(np.cumsum(kept), rng.random(), side="right"))
    return int(support[min(idx, len(support) - 1)])


def reference_decode(backend, prompt, config):
    """The per-token decode loop the batched engine replaced (timings aside)."""
    head = backend.head
    acts = backend.forward_prefix(tuple(prompt))
    window = EntropyWindow(config.trigger.window_size)
    rng = np.random.default_rng(config.seed)
    weight = config.reflection.entropy_weight
    lp_temp = config.sampling.temperature if config.sampling.mode == "temperature" else 1.0
    steps, output, activations, inner = [], [], 0, 0
    while True:
        z = logits_at(head, acts.last_hidden)
        h = entropy_from_logits(z, config.trigger.temperature)
        decision = should_trigger(window, h, config.trigger)
        if decision.fired and not config.reflect:
            decision = replace(decision, fired=False)
        summary, z_sample = None, z
        if decision.fired:
            activations += 1
            refl = replace(config.reflection, entropy_weight=weight)
            if refl.steps == 0:
                summary = CorrectionSummary(0, False, weight, 0.0, None, None, None, 0.0)
            else:
                corr = optimize_delta(acts, head, refl)
                last = corr.trajectory[-1] if corr.trajectory else None
                summary = CorrectionSummary(
                    corr.steps_taken, corr.aborted, weight, float(np.linalg.norm(corr.delta)),
                    last.l_ce if last else None, last.l_aem if last else None,
                    last.f_lambda if last else None, 0.0, list(corr.trajectory))
                inner += corr.steps_taken
                if not corr.aborted:
                    z_sample = logits_at(head, acts.last_hidden, corr.delta)
                    if refl.adaptive is not None and corr.trajectory:
                        weight = adapt_lambda(refl, corr.trajectory[-1].l_ce)
        token = reference_sample(z_sample, config.sampling, rng)
        logprob = float(log_softmax(z_sample, lp_temp)[token])
        steps.append(StepRecord(len(output), token, h, decision, logprob, 0.0, summary))
        output.append(token)
        window.observe(h)
        if token == config.eos_token or len(output) >= config.max_tokens:
            break
        acts = backend.append_token(acts, token)
    return DecodeTrace(backend.model_id, tuple(prompt), tuple(output), steps,
                       TraceTotals(activations, inner, 0.0), config, config.seed)


def assert_rows_match(backend, runs):
    """Each batched row equals its one-row decode and the reference loop, or
    fails with the same exception type and message."""
    for (prompt, config), got in zip(runs, decode_batch(backend, runs)):
        try:
            want = reference_decode(backend, prompt, config)
        except Exception as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            with pytest.raises(type(exc)) as alone:
                decode(backend, prompt, config)
            assert str(alone.value) == str(exc)
            continue
        assert isinstance(got, DecodeTrace), got
        assert replay_form(got) == replay_form(decode(backend, prompt, config))
        assert replay_form(got) == replay_form(want)
        assert_window_holds_pre_correction_entropies(got)


def assert_window_holds_pre_correction_entropies(trace):
    """Each step's window statistics are those of the previous steps' recorded
    (pre-correction) entropies."""
    size = trace.config.trigger.window_size
    entropies = [s.entropy for s in trace.steps]
    for i, step in enumerate(trace.steps):
        window = entropies[max(0, i - size):i]
        want = (float(np.mean(window)), float(np.std(window))) if window else (math.nan,) * 2
        assert repr((step.trigger.mean, step.trigger.std)) == repr(want)
        assert step.trigger.window_full == (len(window) == size)


# --- pins --------------------------------------------------------------------

class TestReplayPins:
    def test_copy_recall_benchmark(self):
        backend = corpus_backend("copy-recall")
        tasks = gen_corpus("copy-recall", 0, 20)
        cfg = DecodeConfig(reflection=ReflectionConfig(backtracking=True))
        traces = []
        for reflect in (True, False):
            result = run_benchmark(backend, tasks, cfg, 5, reflect=reflect)
            traces += [t for _, _, t in result.traces]
        assert sum(t.totals.n_activations for t in traces) == 100
        assert digest(traces) == RECALL_PIN, where(RECORDED_ON)

    def test_spike_decodes(self):
        backend, length, _ = build_spike_backend(3)
        traces = [decode(backend, (0,), DecodeConfig(
                      reflection=ReflectionConfig(ce_scope=scope, steps=4),
                      sampling=sampling, max_tokens=length, seed=7))
                  for scope in ("full-prefix", "last-3")
                  for sampling in (GREEDY, SamplingConfig())]
        assert sum(t.totals.n_activations for t in traces) == 12
        assert digest(traces) == SPIKE_PIN, where(RECORDED_ON)


# --- rows are independent -----------------------------------------------------

class TestRows:
    def test_mixed_rows_equal_their_one_row_decodes(self):
        rng = np.random.default_rng(3)
        script = [rng.standard_normal(6) * 3.0 for _ in range(12)]
        backend = ScriptedBackend(6, by_position=script)
        base = DecodeConfig(trigger=TriggerConfig(window_size=3, sensitivity=0.5),
                            reflection=ReflectionConfig(steps=2, ce_scope="last-2"))
        runs = [((0,), replace(base, seed=1, max_tokens=5)),
                ((1, 2), replace(base, seed=2, max_tokens=9, eos_token=4)),
                ((3,), replace(base, seed=3, max_tokens=20)),  # runs past the 12-step script
                ((4, 4, 4), replace(base, seed=4, max_tokens=8)),
                ((5,), replace(base, seed=5, max_tokens=11, eos_token=0))]
        results = decode_batch(backend, runs)
        failed = results[2]
        assert isinstance(failed, InputError)
        assert str(failed) == "no scripted hidden state for prefix of length 13"
        with pytest.raises(InputError, match="^no scripted hidden state for prefix of length 13$"):
            decode(backend, *runs[2])
        done = results[:2] + results[3:]
        assert [len(t.output) for t in done] == [5, 2, 8, 1]  # both EOS rows stop early
        assert any(s.trigger.fired for t in done for s in t.steps)
        assert_rows_match(backend, runs)
        alone = decode_batch(backend, runs[:2] + runs[3:])
        assert [replay_form(t) for t in alone] == [replay_form(t) for t in done]

    def test_rows_of_different_scope_lengths_are_corrected_in_groups(self, monkeypatch):
        # spikes sit every 30 positions, so prompts of 1, 31 and 61 tokens all
        # fire at step 29, with full-prefix scopes of 29, 59 and 89 positions
        backend, _, _ = build_spike_backend(3)
        calls = []

        def recording(acts_list, head, config, weights):
            calls.append([len(ce_positions(acts, config.ce_scope)) for acts in acts_list])
            return optimize_rows(acts_list, head, config, weights)

        monkeypatch.setattr(engine, "optimize_rows", recording)
        base = DecodeConfig(reflection=ReflectionConfig(steps=3, backtracking=True),
                            sampling=GREEDY, max_tokens=40)
        runs = [((0,), replace(base, seed=1)), ((0,) * 31, replace(base, seed=2)),
                ((0,), replace(base, seed=3)), ((0,) * 61, replace(base, seed=4))]
        traces = decode_batch(backend, runs)
        assert sorted(calls) == [[29, 29], [59], [89]]
        assert [[s.position for s in t.steps if s.correction] for t in traces] == [[29]] * 4
        assert_rows_match(backend, runs)

    def spike_runs(self, **reflection):
        """Prompts of 1, 31, 1 and 61 tokens that all fire at step 29 and
        group by scope length as [0, 2], [1], [3]."""
        base = DecodeConfig(reflection=ReflectionConfig(steps=3, **reflection),
                            sampling=GREEDY, max_tokens=40)
        return [((0,), replace(base, seed=1)), ((0,) * 31, replace(base, seed=2)),
                ((0,), replace(base, seed=3)), ((0,) * 61, replace(base, seed=4))]

    def test_an_exception_in_optimize_rows_ends_every_row_of_its_group(self, monkeypatch):
        backend, _, _ = build_spike_backend(3)

        def failing(acts_list, head, config, weights):
            if len(acts_list) == 2:
                raise RuntimeError("optimizer failed")
            return optimize_rows(acts_list, head, config, weights)

        monkeypatch.setattr(engine, "optimize_rows", failing)
        runs = self.spike_runs()
        results = decode_batch(backend, runs)
        assert str(results[0]) == "optimizer failed" and results[2] is results[0]
        for i in (1, 3):
            assert replay_form(results[i]) == replay_form(decode(backend, *runs[i]))

    def test_a_row_that_fails_after_its_correction_fails_alone(self, monkeypatch):
        backend, _, _ = build_spike_backend(3)
        calls = []

        def failing_first(config, observed_l_ce):
            calls.append(observed_l_ce)
            if len(calls) == 1:
                raise InputError("adaptation failed")
            return adapt_lambda(config, observed_l_ce)

        monkeypatch.setattr(engine, "adapt_lambda", failing_first)
        runs = self.spike_runs(adaptive=AdaptiveWeightConfig(0.5, 0.3, 0.01, 0.9))
        results = decode_batch(backend, runs)
        # row 0 is the first row of the first group corrected; row 2 shares
        # its optimize_rows call and goes on
        assert len(calls) == 4 and str(results[0]) == "adaptation failed"
        for i in (1, 2, 3):
            assert replay_form(results[i]) == replay_form(decode(backend, *runs[i]))

    def test_an_overflowing_row_fails_alone(self):
        # at their second step the prompt (2,) meets a hidden state whose
        # logits overflow to +inf, and the prompt (1, 2) one whose logits hold
        # a NaN (inf * 0); pyproject's error::RuntimeWarning filter turns any
        # warning from those logits into a failure here
        huge, infinite = [1e308, 0.0, 0.0], [math.inf, 0.0, 0.0]
        script = {(2, t): huge for t in range(3)} | {(1, 2, t): infinite for t in range(3)}
        rows = np.random.default_rng(8).standard_normal((12, 3)) * 0.3
        backend = ScriptedBackend(3, by_prefix=script, by_position=list(rows),
                                  head=np.eye(3) * 10.0)
        base = DecodeConfig(trigger=TriggerConfig(window_size=2, sensitivity=0.0),
                            reflection=ReflectionConfig(steps=2, ce_scope="last-2"),
                            sampling=SamplingConfig(temperature=2.0), max_tokens=8)
        runs = [((0,), replace(base, seed=1)), ((2,), replace(base, seed=2)),
                ((1, 0), replace(base, seed=3)), ((1, 2), replace(base, seed=4)),
                ((0, 0, 0), replace(base, seed=5))]
        results = decode_batch(backend, runs)
        for i in (1, 3):
            assert type(results[i]) is InputError
            assert str(results[i]) == "step entropy must be finite"
            with pytest.raises(InputError, match="^step entropy must be finite$"):
                decode(backend, *runs[i])
        healthy = [results[i] for i in (0, 2, 4)]
        assert [len(t.output) for t in healthy] == [8, 8, 8]
        assert any(s.correction for t in healthy for s in t.steps)
        for (prompt, config), trace in zip([runs[i] for i in (0, 2, 4)], healthy):
            assert replay_form(trace) == replay_form(decode(backend, prompt, config))
        alone = decode_batch(backend, [runs[i] for i in (0, 2, 4)])
        assert [replay_form(t) for t in alone] == [replay_form(t) for t in healthy]

    def test_entry_errors_stay_with_their_row(self):
        backend = MarkovBackend(np.full((4, 4), 0.25))
        cfg = DecodeConfig(max_tokens=6)
        runs = [((0,), cfg), ((0,), replace(cfg, eos_token=9)), ((7,), cfg), ((1,), cfg)]
        results = decode_batch(backend, runs)
        assert str(results[1]) == "eos_token 9 out of range"
        assert str(results[2]) == "token id 7 out of range for vocab of 4"
        assert replay_form(results[3]) == replay_form(decode(backend, (1,), cfg))

    def test_rows_share_every_field_but_seed_length_and_eos(self):
        backend = MarkovBackend(np.full((3, 3), 1.0 / 3))
        cfg = DecodeConfig(max_tokens=4)
        with pytest.raises(InputError, match="at least one run"):
            decode_batch(backend, [])
        for other in (replace(cfg, sampling=GREEDY), replace(cfg, reflect=False),
                      replace(cfg, trigger=TriggerConfig(window_size=3)),
                      replace(cfg, reflection=ReflectionConfig(steps=1))):
            with pytest.raises(InputError, match="differ only in"):
                decode_batch(backend, [((0,), cfg), ((1,), other)])

    def test_step_wall_time_is_a_share_of_the_step(self):
        backend = MarkovBackend(np.full((3, 3), 1.0 / 3))
        runs = [((0,), DecodeConfig(max_tokens=5, seed=s)) for s in range(4)]
        for trace in decode_batch(backend, runs):
            assert all(s.wall_time > 0 for s in trace.steps)
            assert trace.totals.wall_time >= sum(s.wall_time for s in trace.steps)


# --- random backends and row sets --------------------------------------------

@st.composite
def backends(draw):
    vocab = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["markov", "scripted", "attention"]))
    if kind == "attention":
        return AttentionBackend(vocab, draw(st.integers(1, 24)), seed, max_len=20)
    if kind == "markov":
        rows = rng.dirichlet(np.full(vocab, draw(st.sampled_from([0.2, 1.0, 5.0]))), size=vocab)
        return MarkovBackend(rows, smoothing=0.01 / vocab)
    scale = draw(st.sampled_from([0.5, 3.0, 20.0]))
    script = [rng.standard_normal(vocab) * scale for _ in range(draw(st.integers(1, 16)))]
    fallback = rng.standard_normal(vocab) * scale if draw(st.integers(0, 3)) else None
    return ScriptedBackend(vocab, by_position=script, fallback=fallback)


@st.composite
def row_sets(draw, vocab):
    adaptive = AdaptiveWeightConfig(target=1.0, rate=0.5, min_weight=0.01, max_weight=0.9)
    shared = DecodeConfig(
        trigger=TriggerConfig(window_size=draw(st.integers(2, 4)),
                              sensitivity=draw(st.sampled_from([0.0, 0.3, 1.0, 2.0])),
                              temperature=draw(st.sampled_from([0.6, 1.0]))),
        reflection=ReflectionConfig(
            steps=draw(st.sampled_from([0, 1, 2, 2])),
            ce_scope=draw(st.sampled_from(["full-prefix", "generated-only", "last-2"])),
            backtracking=draw(st.booleans()),
            adaptive=adaptive if draw(st.booleans()) else None),
        sampling=draw(st.sampled_from([GREEDY, SamplingConfig(),
                                       SamplingConfig(temperature=1.3, top_p=0.7),
                                       SamplingConfig(temperature=1.0, top_p=1.0)])),
        reflect=draw(st.sampled_from([True, True, True, False])))
    token = st.integers(0, vocab - 1)
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        runs.append((tuple(draw(st.lists(token, min_size=1, max_size=3))),
                     replace(shared, seed=draw(st.integers(0, 2**31)),
                             max_tokens=draw(st.integers(1, 16)),
                             eos_token=draw(st.none() | token))))
    return runs


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_batches_equal_one_row_decodes(data):
    backend = data.draw(backends())
    assert_rows_match(backend, data.draw(row_sets(backend.vocab.size)))


# --- locality and replay on random small backends ------------------------------

@st.composite
def small_backends(draw):
    """Markov and attention backends with V and the hidden dim at most 8."""
    vocab = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return AttentionBackend(vocab, draw(st.integers(1, 8)), seed, max_len=20)
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(vocab, draw(st.sampled_from([0.2, 1.0, 5.0]))), size=vocab)
    return MarkovBackend(rows, smoothing=0.01 / vocab)


@st.composite
def reflective_runs(draw, vocab):
    """1-3 rows of one config whose trigger fires whenever a step's entropy
    beats the mean of the two before it."""
    shared = DecodeConfig(
        trigger=TriggerConfig(window_size=2, sensitivity=0.0,
                              temperature=draw(st.sampled_from([0.6, 1.0]))),
        reflection=ReflectionConfig(
            steps=draw(st.integers(1, 3)),
            learning_rate=draw(st.sampled_from([0.01, 0.5])),
            entropy_weight=draw(st.sampled_from([0.05, 0.5, 1.0])),
            ce_scope=draw(st.sampled_from(["full-prefix", "generated-only", "last-2"])),
            backtracking=draw(st.booleans())),
        sampling=draw(st.sampled_from([GREEDY, SamplingConfig(),
                                       SamplingConfig(temperature=1.3, top_p=0.7)])))
    token = st.integers(0, vocab - 1)
    return [(tuple(draw(st.lists(token, min_size=1, max_size=3))),
             replace(shared, seed=draw(st.integers(0, 2**31)),
                     max_tokens=draw(st.integers(2, 10))))
            for _ in range(draw(st.integers(1, 3)))]


def corrected(step) -> bool:
    """The step sampled from corrected logits."""
    c = step.correction
    return c is not None and c.steps_taken > 0 and not c.aborted


def assert_corrections_stay_local(backend, trace):
    """c07 on any backend: the step after a correction sees the unmodified
    model, recomputed from the token prefix, within 1e-12."""
    config = trace.config
    lp_temp = config.sampling.temperature if config.sampling.mode == "temperature" else 1.0
    for step, nxt in zip(trace.steps, trace.steps[1:]):
        if not corrected(step):
            continue
        acts = backend.forward_prefix(trace.prompt + trace.output[:step.position + 1])
        z = logits_at(backend.head, acts.last_hidden)
        assert abs(nxt.entropy - entropy_from_logits(z, config.trigger.temperature)) <= 1e-12
        if corrected(nxt):
            continue  # it sampled from its own correction
        if config.sampling.mode == "greedy":
            assert nxt.token == int(np.argmax(z))
        assert abs(nxt.logprob - float(log_softmax(z, lp_temp)[nxt.token])) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corrections_stay_local_and_traces_replay(data):
    backend = data.draw(small_backends())
    runs = data.draw(reflective_runs(backend.vocab.size))
    for (prompt, config), batched in zip(runs, decode_batch(backend, runs)):
        alone = decode(backend, prompt, config)
        assert replay_form(batched) == replay_form(alone)
        for trace in (batched, alone):
            assert_corrections_stay_local(backend, trace)
        text = serialize_trace(alone)
        parsed = parse_trace(text)
        assert serialize_trace(parsed) == text
        assert replay_form(parsed) == replay_form(alone)
        again = decode(backend, parsed.prompt, parsed.config)
        assert replay_form(again) == replay_form(alone)


# --- vectorized pieces ---------------------------------------------------------

class TestPieces:
    def test_trigger_rows_match_should_trigger(self):
        rng = np.random.default_rng(0)
        config = TriggerConfig(window_size=9, sensitivity=1.5)
        windows = EntropyWindows(4, config.window_size)
        singles = [EntropyWindow(config.window_size) for _ in range(4)]
        for _ in range(30):
            values = rng.exponential(size=4) * rng.choice([1e-3, 1.0, 5.0], size=4)
            mean, std, threshold, fired = trigger_rows(windows, values, config)
            for r, single in enumerate(singles):
                want = should_trigger(single, values[r], config)
                got = (mean[r], std[r], threshold[r], fired[r], windows.full)
                assert repr(tuple(map(float, got[:3])) + (bool(got[3]), got[4])) == \
                    repr((want.mean, want.std, want.threshold, want.fired, want.window_full))
                single.observe(values[r])
            windows.push(values)

    def test_nucleus_matches_the_one_row_filter(self):
        rng = np.random.default_rng(1)
        for vocab in (2, 5, 9, 40, 200):
            for _ in range(20):
                logits = rng.standard_normal(vocab) * rng.choice([0.1, 1.0, 8.0])
                logits[rng.integers(vocab)] = logits.max()  # a tie at the top
                p = softmax(logits)
                top_p = float(rng.choice([0.5, 0.9, 0.95, 1.0]))
                order = np.argsort(-p, kind="stable")
                cum = np.cumsum(p[order])
                cut = min(int(np.searchsorted(cum, top_p, side="left")), vocab - 1)
                support, kept = nucleus_distribution(p, top_p)
                assert support.tolist() == order[: cut + 1].tolist()
                assert kept.tobytes() == (p[support] / p[support].sum()).tobytes()

    def test_batched_draws_match_one_row_samples(self):
        rng = np.random.default_rng(2)
        for vocab in (3, 12, 60):
            logits = rng.standard_normal((16, vocab)) * 2.0
            sampling = SamplingConfig(temperature=0.8, top_p=0.9)
            draws = rng.random(16)
            probs = np.stack([softmax(z, sampling.temperature) for z in logits])
            got = _nucleus_draw(probs, sampling.top_p, draws)
            for z, u, token in zip(logits, draws, got):
                stub = type("Draw", (), {"random": lambda self, u=u: u})()
                assert token == reference_sample(z, sampling, stub) == sample(z, sampling, stub)


# --- the benchmark harness ----------------------------------------------------

class FlakyMarkov(MarkovBackend):
    """A Markov backend whose step raises RuntimeError once a prefix that
    starts with `bad` grows past its prompt."""

    def __init__(self, transition, bad):
        super().__init__(transition)
        self.bad = bad

    def _step(self, line, token):
        if len(line.tokens) >= len(self.bad) and tuple(line.tokens[:len(self.bad)]) == self.bad:
            raise RuntimeError("step failed")
        return super()._step(line, token)


def test_run_benchmark_scores_any_exception_as_an_invalid_sample():
    transition = np.full((4, 4), 0.25)
    alphabet = frozenset(range(4))
    tasks = [Task(f"t{i}", (i,), (i,), "custom", alphabet, max_tokens=6) for i in range(3)]
    cfg = DecodeConfig(trigger=TriggerConfig(window_size=2))
    flaky = run_benchmark(FlakyMarkov(transition, (1,)), tasks, cfg, 3).metrics
    clean = run_benchmark(MarkovBackend(transition), tasks, cfg, 3).metrics
    assert [r.errors for r in flaky.results] == [0, 3, 0]
    assert flaky.results[1].first_error == "RuntimeError: step failed"
    assert flaky.results[1].samples == ["invalid"] * 3
    assert flaky.results[1].correct == [False] * 3
    assert [r.first_error for r in clean.results] == [None] * 3
    for i in (0, 2):
        assert flaky.results[i] == clean.results[i]
