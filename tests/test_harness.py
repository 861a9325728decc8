"""Task corpora, answer extraction, sample metrics, benchmark orchestration."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from selfreflect import (ConfigError, DecodeConfig, InputError, ReflectionConfig,
                         Task, avg_at_k, cons_at_k, corpus_backend,
                         critical_tokens, decode, derive_seed, extract_answer,
                         gen_corpus, parse_corpus_spec, pass_at_k,
                         plurality_vote, run_benchmark)
from selfreflect.harness import build_spike_backend

ALPHABET = frozenset(range(4))


class TestTask:
    def test_validation(self):
        with pytest.raises(InputError):
            Task("t", (), (1,), "f", ALPHABET)
        with pytest.raises(InputError):
            Task("t", (0,), (), "f", ALPHABET)
        with pytest.raises(InputError):
            Task("t", (0,), (9,), "f", ALPHABET)

    def test_extract_answer(self):
        assert extract_answer((9, 9), ALPHABET) is None
        assert extract_answer((9, 1, 2), ALPHABET) == (1, 2)
        # the last maximal run wins, not the longest
        assert extract_answer((1, 2, 9, 3), ALPHABET) == (3,)
        assert extract_answer((0, 1, 2, 3), ALPHABET) == (0, 1, 2, 3)
        assert extract_answer((), ALPHABET) is None


class TestCorpora:
    @pytest.mark.parametrize("family,difficulty", [
        ("copy-recall", 1), ("modular-chain", 2), ("spike-fixture", 1),
        ("copy-recall", 0), ("modular-chain", 0),
    ])
    def test_generation_is_deterministic(self, family, difficulty):
        a = gen_corpus(family, seed=9, count=6, difficulty=difficulty)
        b = gen_corpus(family, seed=9, count=6, difficulty=difficulty)
        assert a == b
        c = gen_corpus(family, seed=10, count=6, difficulty=difficulty)
        assert a != c

    def test_modular_chain_answers(self):
        # refold every expression independently of the generator's bookkeeping
        for task in gen_corpus("modular-chain", seed=4, count=40, difficulty=3):
            toks = task.prompt
            assert toks[-1] == 12
            value = toks[0]
            for i in range(1, len(toks) - 1, 2):
                op, operand = toks[i], toks[i + 1]
                value = (value + operand) % 10 if op == 10 else (value * operand) % 10
            assert task.answer == (value,)
            assert task.max_tokens == 3

    def test_copy_recall_shape(self):
        tasks = gen_corpus("copy-recall", seed=2, count=20, difficulty=1)
        keys = set()
        for task in tasks:
            assert len(task.prompt) == 12
            key = task.prompt[1]
            assert task.prompt == (4, key) * 5 + (4, 5)
            assert task.answer == (key,)
            assert task.alphabet == ALPHABET
            assert task.max_tokens == 28
            keys.add(key)
        assert len(keys) > 1  # the corpus varies the stored key

    def test_spike_fixture_tasks(self):
        tasks = gen_corpus("spike-fixture", seed=0, count=2, difficulty=2)
        assert all(t.prompt == (0,) and t.answer == (2,) for t in tasks)
        assert all(t.max_tokens == 70 for t in tasks)
        with pytest.raises(InputError):
            gen_corpus("spike-fixture", seed=0, count=1, difficulty=0)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            gen_corpus("sudoku", seed=0, count=1)
        with pytest.raises(ConfigError):
            corpus_backend("sudoku")

    def test_count_and_difficulty_validation(self):
        with pytest.raises(InputError):
            gen_corpus("copy-recall", seed=0, count=0)
        with pytest.raises(InputError):
            gen_corpus("copy-recall", seed=0, count=1, difficulty=-1)
        with pytest.raises(InputError, match="seed"):
            gen_corpus("copy-recall", seed=-1, count=1)


class TestCorpusSpec:
    def test_parses_options(self):
        assert parse_corpus_spec("copy-recall:seed=3:count=10") == \
            ("copy-recall", {"seed": 3, "count": 10})
        assert parse_corpus_spec("modular-chain") == ("modular-chain", {})
        assert parse_corpus_spec("spike-fixture:difficulty=2") == \
            ("spike-fixture", {"difficulty": 2})

    def test_rejects_malformed_specs(self):
        with pytest.raises(ConfigError):
            parse_corpus_spec("riddles:count=3")
        with pytest.raises(ConfigError):
            parse_corpus_spec("copy-recall:count")
        with pytest.raises(ConfigError):
            parse_corpus_spec("copy-recall:depth=3")
        with pytest.raises(ConfigError):
            parse_corpus_spec("copy-recall:count=lots")
        with pytest.raises(ConfigError, match="'seed'"):
            parse_corpus_spec("copy-recall:seed=-1:count=2")


class TestVoting:
    def test_plurality(self):
        assert plurality_vote([(5,), (5,), (3,)]) == "5"
        assert plurality_vote([(1, 2), (1, 2), None]) == "1,2"
        assert plurality_vote([None, None, (1,)]) == "invalid"

    def test_tie_breaks_to_earliest_first_occurrence(self):
        assert plurality_vote([(1,), (2,)]) == "1"
        assert plurality_vote([(2,), (1,)]) == "2"

    def test_zero_samples_rejected(self):
        with pytest.raises(InputError):
            plurality_vote([])

    def test_cons_at_k(self):
        assert cons_at_k([(1, 2), (1, 2), None], (1, 2)) == 1.0
        assert cons_at_k([(3,), (3,), (1,)], (1,)) == 0.0


class TestOutcomeMetrics:
    def test_known_values(self):
        rows = [[True, False], [True, True]]
        assert avg_at_k(rows) == pytest.approx(0.75)
        assert pass_at_k(rows) == 1.0
        assert pass_at_k([[False, False], [True, False]]) == 0.5

    def test_pass_dominates_avg(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rows = rng.random((6, 4)) < 0.4
            rows = [list(map(bool, r)) for r in rows]
            assert pass_at_k(rows) >= avg_at_k(rows)

    def test_k1_collapse(self):
        rows = [[True], [False], [True]]
        assert avg_at_k(rows) == pass_at_k(rows)

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            avg_at_k([[True], [True, False]])
        with pytest.raises(InputError):
            pass_at_k([])
        with pytest.raises(InputError):
            avg_at_k([[]])


class TestBenchmark:
    def test_seed_derivation(self):
        assert derive_seed(3, 7) == derive_seed(3, 7)
        assert derive_seed(3, 7) != derive_seed(3, 8)
        assert derive_seed(4, 7) != derive_seed(3, 7)
        assert derive_seed(0, 0) >= 0

    def test_input_validation(self):
        backend = corpus_backend("modular-chain")
        tasks = gen_corpus("modular-chain", seed=0, count=2)
        with pytest.raises(InputError):
            run_benchmark(backend, [], DecodeConfig(), k=1)
        with pytest.raises(InputError):
            run_benchmark(backend, tasks, DecodeConfig(), k=0)
        with pytest.raises(InputError):
            run_benchmark(backend, tasks, DecodeConfig(), k=2, seeds=[1])

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "1", None])
    def test_sample_seeds_must_be_non_negative_integers(self, seed):
        # SeedSequence refused -1 with a ValueError; 1.5 and True ran as seed 1
        backend = corpus_backend("modular-chain")
        tasks = gen_corpus("modular-chain", seed=0, count=1)
        with pytest.raises(InputError, match=re.escape(f"sample seed {seed!r} ")):
            run_benchmark(backend, tasks, DecodeConfig(), k=2, seeds=[0, seed])

    def test_numpy_integer_seeds_run_as_their_value(self):
        backend = corpus_backend("modular-chain")
        tasks = gen_corpus("modular-chain", seed=0, count=2)
        run = lambda seeds: [r.seeds for r in run_benchmark(
            backend, tasks, DecodeConfig(), k=2, seeds=seeds, keep_traces=False).metrics.results]
        assert run([np.int64(3), np.uint8(4)]) == run([3, 4])

    def test_result_structure(self):
        backend = corpus_backend("modular-chain")
        tasks = gen_corpus("modular-chain", seed=1, count=3)
        out = run_benchmark(backend, tasks, DecodeConfig(), k=2)
        m = out.metrics
        assert m.arm == "reflect" and m.k == 2 and m.tasks == 3
        assert len(m.results) == 3
        for r in m.results:
            assert len(r.samples) == len(r.correct) == len(r.seeds) == 2
            assert r.errors == 0
        assert len(out.traces) == 6
        assert 0.0 <= m.avg_at_k <= m.pass_at_k <= 1.0

    def test_arm_naming_and_trace_toggle(self):
        backend = corpus_backend("modular-chain")
        tasks = gen_corpus("modular-chain", seed=1, count=2)
        base = run_benchmark(backend, tasks, DecodeConfig(), k=1,
                             reflect=False, keep_traces=False)
        assert base.metrics.arm == "baseline"
        assert base.traces == []

    def test_paired_seeds_across_arms(self):
        backend = corpus_backend("modular-chain")
        tasks = gen_corpus("modular-chain", seed=1, count=3)
        a = run_benchmark(backend, tasks, DecodeConfig(), k=2, reflect=True)
        b = run_benchmark(backend, tasks, DecodeConfig(), k=2, reflect=False)
        for ra, rb in zip(a.metrics.results, b.metrics.results):
            assert ra.seeds == rb.seeds

    def test_easy_corpus_is_solved_exactly(self):
        # difficulty 0 plants the answer as the last prompt token and the
        # degenerate backend just repeats it
        backend = corpus_backend("modular-chain", difficulty=0)
        tasks = gen_corpus("modular-chain", seed=5, count=5, difficulty=0)
        out = run_benchmark(backend, tasks, DecodeConfig(), k=2)
        assert out.metrics.avg_at_k == 1.0
        assert out.metrics.cons_at_k == 1.0

    def test_reflection_lifts_recall_accuracy(self):
        backend = corpus_backend("copy-recall")
        tasks = gen_corpus("copy-recall", seed=3, count=8)
        cfg = DecodeConfig(reflection=ReflectionConfig(backtracking=True))
        reflect = run_benchmark(backend, tasks, cfg, k=3, keep_traces=False)
        baseline = run_benchmark(backend, tasks, cfg, k=3, reflect=False,
                                 keep_traces=False)
        assert reflect.metrics.avg_at_k >= baseline.metrics.avg_at_k + 0.3
        assert reflect.metrics.activations > 0
        assert baseline.metrics.activations == 0


class TestCriticalTokens:
    def test_counts_fired_steps_from_spike_traces(self):
        backend, length, positions = build_spike_backend(2)
        from selfreflect import SamplingConfig
        cfg = DecodeConfig(sampling=SamplingConfig(mode="greedy"),
                           max_tokens=length)
        traces = [decode(backend, (0,), cfg) for _ in range(2)]
        counts = critical_tokens(traces)
        assert len(counts) == 1
        assert counts[0].token == 2 and counts[0].name == "2"
        assert counts[0].count == 2 * len(positions)

    def test_sort_order(self):
        def fake_step(token, fired=True):
            return SimpleNamespace(token=token,
                                   trigger=SimpleNamespace(fired=fired))

        trace = SimpleNamespace(steps=[fake_step(3), fake_step(1),
                                       fake_step(3), fake_step(2),
                                       fake_step(1), fake_step(9, fired=False)])
        counts = critical_tokens([trace])
        assert [(c.token, c.count) for c in counts] == [(1, 2), (3, 2), (2, 1)]
