"""Toy backends: state scripts, Markov heads, the attention forward, JSON IO."""

import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from selfreflect import (AttentionBackend, ConfigError, InputError,
                         MarkovBackend, ModelBackend, PrefixActivations, ProjectionHead,
                         ScriptedBackend, VocabSpec, backend_from_dict,
                         backend_to_dict, build_toy_backend, entropy_from_logits,
                         load_backend, logits_at, save_backend, softmax,
                         two_point_logits)
from selfreflect import utils
from selfreflect.utils import gemv_rows


def one_hot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestVocabAndHead:
    def test_vocab_needs_two_tokens(self):
        with pytest.raises(InputError):
            VocabSpec(1)

    def test_token_names_cover_every_id(self):
        with pytest.raises(InputError):
            VocabSpec(3, ("a", "b"))
        v = VocabSpec(2, ("yes", "no"))
        assert v.name_of(1) == "no"
        assert VocabSpec(2).name_of(1) == "1"

    def test_head_validation(self):
        with pytest.raises(InputError):
            ProjectionHead(np.zeros(3))  # not 2-d
        with pytest.raises(InputError):
            ProjectionHead(np.array([[1.0, float("inf")]]))

    def test_logits_at_oracle(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((5, 3))
        h = rng.standard_normal(3)
        delta = rng.standard_normal(3)
        head = ProjectionHead(w)
        want = w @ (h + delta)
        assert np.max(np.abs(logits_at(head, h, delta) - want)) < 1e-12
        assert np.array_equal(logits_at(head, h), w @ h)

    def test_logits_at_shape_check(self):
        head = ProjectionHead(np.eye(3))
        with pytest.raises(InputError):
            logits_at(head, np.zeros(2))
        with pytest.raises(InputError):
            logits_at(head, np.zeros(3), np.zeros(4))

    def test_injection_linearity(self):
        rng = np.random.default_rng(11)
        head = ProjectionHead(rng.standard_normal((6, 4)))
        for _ in range(20):
            h = rng.standard_normal(4)
            d = rng.standard_normal(4)
            lhs = logits_at(head, h, d)
            rhs = logits_at(head, h) + head.matrix @ d
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestScripted:
    def test_by_prefix_lookup(self):
        be = ScriptedBackend(8, by_prefix={(7,): one_hot(0, 8), (7, 3): one_hot(1, 8)})
        acts = be.forward_prefix((7,))
        assert np.array_equal(acts.last_hidden, one_hot(0, 8))
        acts = be.append_token(acts, 3)
        assert np.array_equal(acts.last_hidden, one_hot(1, 8))
        assert np.argmax(logits_at(be.head, acts.last_hidden)) == 1

    def test_resolution_order(self):
        # exact prefix beats positional script beats fallback
        be = ScriptedBackend(
            4, by_prefix={(2, 1): one_hot(3, 4)},
            by_position=[one_hot(0, 4), one_hot(1, 4)],
            fallback=one_hot(2, 4))
        assert np.array_equal(be.forward_prefix((2,)).hidden[0], one_hot(0, 4))
        assert np.array_equal(be.forward_prefix((2, 1)).last_hidden, one_hot(3, 4))
        assert np.array_equal(be.forward_prefix((2, 3)).last_hidden, one_hot(1, 4))
        long = be.forward_prefix((2, 3, 0))
        assert np.array_equal(long.last_hidden, one_hot(2, 4))

    def test_unresolvable_prefix_raises(self):
        be = ScriptedBackend(4, by_position=[one_hot(0, 4)])
        with pytest.raises(InputError):
            be.forward_prefix((1, 2))

    def test_identity_head_requires_square(self):
        with pytest.raises(InputError):
            ScriptedBackend(4, fallback=np.zeros(3))

    def test_token_range_checked(self):
        be = ScriptedBackend(4, fallback=np.zeros(4))
        with pytest.raises(InputError):
            be.forward_prefix((4,))
        with pytest.raises(InputError):
            be.forward_prefix(())


class TestMarkov:
    def test_one_hot_state_and_row_logits(self):
        p = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
        be = MarkovBackend(p, smoothing=1e-9)
        acts = be.forward_prefix((0, 2))
        assert np.array_equal(acts.last_hidden, one_hot(2, 3))
        smoothed = p * (1 - 3e-9) + 1e-9
        z = logits_at(be.head, acts.last_hidden)
        assert np.max(np.abs(z - np.log(smoothed[2]))) < 1e-15

    def test_hidden_states_are_shared_read_only_rows(self):
        # every state is a row of one identity built with the backend: a
        # write must fail rather than change the states of other prefixes
        be = MarkovBackend(np.full((4, 4), 0.25))
        acts = be.append_token(be.forward_prefix((0, 1)), 3)
        other = be.forward_prefix((3,))
        assert [h.tolist() for h in acts.hidden] == [one_hot(t, 4).tolist() for t in (0, 1, 3)]
        assert np.shares_memory(acts.last_hidden, other.last_hidden)
        for h in (acts.last_hidden, acts.hidden[0]):
            with pytest.raises(ValueError, match="read-only"):
                h[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            acts.last_hidden += 1.0
        assert other.last_hidden.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_uniform_rows_give_log_v_entropy(self):
        be = MarkovBackend(np.full((5, 5), 0.2))
        z = logits_at(be.head, be.forward_prefix((3,)).last_hidden)
        assert entropy_from_logits(z) == pytest.approx(math.log(5), abs=1e-12)

    def test_near_one_hot_entropy_is_tiny(self):
        p = np.zeros((3, 3))
        p[:, 1] = 1.0
        be = MarkovBackend(p, smoothing=1e-9)
        z = logits_at(be.head, be.forward_prefix((0,)).last_hidden)
        assert entropy_from_logits(z) < 1e-6

    def test_validation(self):
        with pytest.raises(InputError):
            MarkovBackend(np.ones((2, 3)))
        with pytest.raises(InputError):
            MarkovBackend(np.array([[0.7, 0.2], [0.5, 0.5]]))
        with pytest.raises(InputError):
            MarkovBackend(np.eye(2))  # zero probabilities, no smoothing
        with pytest.raises(InputError):
            MarkovBackend(np.full((2, 2), 0.5), smoothing=0.5)  # >= 1/vocab
        MarkovBackend(np.eye(2), smoothing=1e-9)


class TestAttention:
    def test_weight_draw_protocol(self):
        be = AttentionBackend(vocab_size=7, hidden_dim=6, seed=3, max_len=32)
        rng = np.random.default_rng(3)
        s = 1.0 / math.sqrt(6)
        for name, shape in (("emb", (7, 6)), ("pos", (32, 6)), ("wq", (6, 6)),
                            ("wk", (6, 6)), ("wv", (6, 6)), ("wo", (6, 6)),
                            ("w1", (6, 12)), ("w2", (12, 6))):
            want = rng.standard_normal(shape) * s
            assert np.array_equal(getattr(be, name), want), name
        assert np.array_equal(be.head.matrix, rng.standard_normal((7, 6)) * s)

    def test_forward_oracle(self):
        # independent recomputation with explicit per-position loops, at every
        # position of a fresh 3-token forward and of a 300-token prefix built
        # by appends across several growths of the key/value storage
        be = AttentionBackend(vocab_size=7, hidden_dim=6, seed=3, max_len=512)
        d = 6
        for length in (3, 300):
            prefix = (1, 4, 2) + tuple(np.random.default_rng(5).integers(0, 7, length - 3))
            if length == 3:
                acts = be.forward_prefix(prefix)
            else:
                acts = be.forward_prefix(prefix[:1])
                for tok in prefix[1:]:
                    acts = be.append_token(acts, tok)
            x = np.array([be.emb[tok] + be.pos[j] for j, tok in enumerate(prefix)])
            for t in range(1, length + 1):
                q = be.wq.T @ x[t - 1]
                scores = np.array([np.dot(x[j] @ be.wk, q) for j in range(t)]) / math.sqrt(d)
                e = np.exp(scores - scores.max())
                attn = e / e.sum()
                a = sum(attn[j] * (x[j] @ be.wv) for j in range(t))
                u = x[t - 1] + be.wo.T @ a
                want = u + be.w2.T @ np.tanh(be.w1.T @ u)
                assert np.max(np.abs(acts.hidden[t - 1] - want)) < 1e-12

    def test_prefix_built_elsewhere_is_range_checked(self):
        # its keys and values are projected from its tokens on first append
        be = AttentionBackend(vocab_size=4, hidden_dim=3, seed=0)
        for bad in (4, -1):
            by_hand = PrefixActivations((0, bad), [np.zeros(3)] * 2, "other")
            with pytest.raises(InputError):
                be.append_token(by_hand, 2)

    def test_max_len_enforced(self):
        be = AttentionBackend(vocab_size=4, hidden_dim=3, seed=0, max_len=2)
        with pytest.raises(InputError):
            be.forward_prefix((0, 1, 2))


BACKENDS = [
    lambda: MarkovBackend(np.full((4, 4), 0.25)),
    lambda: AttentionBackend(vocab_size=4, hidden_dim=5, seed=9),
    lambda: ScriptedBackend(4, fallback=np.arange(4.0)),
]


class TestPrefixMechanics:
    @pytest.mark.parametrize("make", BACKENDS)
    def test_append_matches_fresh_forward(self, make):
        be = make()
        acts = be.forward_prefix((0, 1))
        acts = be.append_token(acts, 2)
        acts = be.append_token(acts, 3)
        fresh = be.forward_prefix((0, 1, 2, 3))
        assert acts.tokens == fresh.tokens
        for a, b in zip(acts.hidden, fresh.hidden):
            assert np.array_equal(a, b)  # bitwise prefix stability

    @pytest.mark.parametrize("make", BACKENDS)
    def test_sibling_appends_leave_parent_unchanged(self, make):
        be = make()
        parent = be.forward_prefix((0, 1))
        first = be.append_token(parent, 2)
        tokens, hidden = parent.tokens, [h.copy() for h in parent.hidden]
        last = parent.last_hidden.copy()
        second = be.append_token(parent, 3)  # parent already has a child
        again = be.append_token(parent, 2)
        grandchild = be.append_token(first, 1)
        assert parent.tokens == tokens == (0, 1)
        assert len(parent) == len(parent.hidden) == 2
        for a, b in zip(parent.hidden, hidden):
            assert np.array_equal(a, b)
        assert np.array_equal(parent.last_hidden, last)
        for acts in (first, second, again, grandchild):
            fresh = be.forward_prefix(acts.tokens)
            assert len(acts) == len(fresh)
            for a, b in zip(acts.hidden, fresh.hidden):
                assert np.array_equal(a, b)
            assert np.array_equal(acts.last_hidden, fresh.last_hidden)

    @pytest.mark.parametrize("make", BACKENDS)
    def test_last_token_follows_appends_and_forks(self, make):
        be = make()
        parent = be.forward_prefix((0, 1))
        first = be.append_token(parent, 2)
        second = be.append_token(parent, 3)  # forks the lineage
        grandchild = be.append_token(second, 0)
        by_hand = PrefixActivations((3, 2), [np.zeros(5), np.zeros(5)], "other")
        for acts in (parent, first, second, grandchild, be.append_token(first, 1), by_hand):
            assert type(acts.last_token) is int
            assert acts.last_token == acts.tokens[-1]

    @pytest.mark.parametrize("make", BACKENDS)
    def test_append_to_a_prefix_built_elsewhere(self, make):
        be = make()
        by_hand = PrefixActivations((0, 1), [np.zeros(5), np.zeros(5)], "other")
        fresh = be.forward_prefix((0, 1, 2))
        assert np.array_equal(be.append_token(by_hand, 2).last_hidden, fresh.last_hidden)

    def test_threads_appending_to_one_parent(self):
        # every thread extends each parent once, so threads race to be first
        be = AttentionBackend(vocab_size=4, hidden_dim=5, seed=9)
        parents = [be.forward_prefix((0, 1)) for _ in range(300)]
        want = {tok: be.forward_prefix((0, 1, tok)).last_hidden for tok in range(4)}
        bad = []

        def work(tok):
            for parent in parents:
                child = be.append_token(parent, tok)
                if child.tokens != (0, 1, tok) or not np.array_equal(child.last_hidden, want[tok]):
                    bad.append(tok)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i % 4,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        assert all(parent.tokens == (0, 1) for parent in parents)

    def test_key_value_storage_grows_with_the_prefix(self):
        be = AttentionBackend(vocab_size=4, hidden_dim=5, seed=9, max_len=4096)
        acts = be.forward_prefix((0, 1, 2))
        rows = len(acts._line.cache.keys)
        assert 3 <= rows < 64
        for _ in range(100):
            acts = be.append_token(acts, 3)
        assert 103 <= len(acts._line.cache.keys) < 4096

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "1", None])
    def test_prompt_token_ids_must_be_integers(self, bad):
        be = MarkovBackend(np.full((4, 4), 0.25))
        with pytest.raises(InputError):
            be.forward_prefix((0, bad))
        with pytest.raises(InputError):
            PrefixActivations((0, bad), [np.zeros(2), np.ones(2)], "m")
        assert be.forward_prefix((np.int64(0), np.uint8(1))).tokens == (0, 1)

    @pytest.mark.parametrize("make", BACKENDS)
    @pytest.mark.parametrize("bad", [1.7, 1.0, False, "1", np.float64(2.0)])
    def test_appended_token_ids_must_be_integers(self, make, bad):
        be = make()
        acts = be.forward_prefix((0,))
        with pytest.raises(InputError):
            be.append_token(acts, bad)
        child = be.append_token(acts, np.int32(1))
        assert child.tokens == (0, 1) and type(child.tokens[1]) is int

    def test_forward_is_deterministic(self):
        be = AttentionBackend(vocab_size=5, hidden_dim=4, seed=21)
        a = be.forward_prefix((1, 2, 3)).last_hidden
        b = be.forward_prefix((1, 2, 3)).last_hidden
        assert np.array_equal(a, b)

    def test_prefix_activations_validation(self):
        with pytest.raises(InputError):
            PrefixActivations((0, 1), [np.zeros(2)], "m")
        acts = PrefixActivations((0, 1), [np.zeros(2), np.ones(2)], "m")
        assert acts.prompt_len == 2
        assert np.array_equal(acts.last_hidden, np.ones(2))


def sibling_prefixes(be, rng, count):
    """Prefixes from one prompt and its sibling lineages: each new prefix
    extends a random earlier one, which forks the lineage when that prefix
    already has a child."""
    prefixes = [be.forward_prefix(rng.integers(be.vocab.size, size=rng.integers(1, 4)))]
    while len(prefixes) < count:
        parent = prefixes[rng.integers(len(prefixes))]
        prefixes.append(be.append_token(parent, rng.integers(be.vocab.size)))
    return prefixes


class TestStepLogits:
    @pytest.mark.parametrize("make", BACKENDS)
    def test_rows_are_the_logits_at_each_last_hidden_state(self, make):
        be = make()
        prefixes = sibling_prefixes(be, np.random.default_rng(0), 6)
        for rows in ([prefixes[0]], prefixes, prefixes[::-1] + prefixes[:2]):
            got = be.step_logits(rows)
            assert got.shape == (len(rows), be.vocab.size)
            want = np.stack([logits_at(be.head, acts.last_hidden) for acts in rows])
            assert got.tobytes() == want.tobytes()

    def test_overflow_is_silent(self):
        be = ScriptedBackend(2, by_position=[[1e308, 0.0], [math.inf, 0.0]],
                             fallback=[1.0, 2.0], head=[[10.0, 0.0], [0.0, 10.0]])
        prefixes = [be.forward_prefix((0,)), be.forward_prefix((0, 1)),
                    be.forward_prefix((0, 1, 1))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = be.step_logits(prefixes)
        assert got[0, 0] == math.inf and math.isnan(got[1, 1])
        assert got[2].tolist() == [10.0, 20.0]

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(vocab=st.integers(2, 600), seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([0.02, 0.3, 1.0, 30.0]),
           share=st.sampled_from([1e-15, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999999]),
           count=st.integers(1, 8))
    @example(vocab=600, seed=0, alpha=0.02, share=0.999999, count=8)
    @example(vocab=600, seed=1, alpha=30.0, share=1e-15, count=8)
    def test_markov_row_lookup_equals_the_gemv(self, vocab, seed, alpha, share, count):
        rng = np.random.default_rng(seed)
        be = MarkovBackend(rng.dirichlet(np.full(vocab, alpha), size=vocab),
                           smoothing=share / vocab)
        prefixes = sibling_prefixes(be, rng, count)
        calls = [[acts] for acts in prefixes]
        calls += [prefixes, [prefixes[i] for i in rng.integers(count, size=count + 2)]]
        for rows in calls:
            got = be.step_logits(rows)
            want = ModelBackend.step_logits(be, rows)
            assert got.shape == want.shape == (len(rows), vocab)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and not np.shares_memory(got, be.head.matrix)
            got[:] = 0.0  # the caller's to overwrite: the next call still agrees
            assert be.step_logits(rows).tobytes() == want.tobytes()


# zeros of both signs, subnormals, the extremes of the float range, and ones
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0])


def with_entry(matrix, index, value):
    matrix = matrix.copy()
    matrix[index] = value
    return matrix


def head_products(head, x):
    """The head's three products of x, each next to its dense definition."""
    w = head.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf in the dense products
        return [(head.project_rows(x), gemv_rows(w, x)),
                (head.backproject_rows(x), gemv_rows(w.T, x)),
                (head.project_block(x), x @ w.T)]


class TestIdentityHead:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.sampled_from([2, 3, 7, 8, 9, 16, 33, 64, 257, 513]),
           rows=st.sampled_from([1, 2, 3, 8, 40]), seed=st.integers(0, 2**32 - 1),
           share=st.sampled_from([0.0, 0.1, 0.5, 1.0]), negative=st.booleans(),
           bad=st.sampled_from([None, math.inf, -math.inf, math.nan]))
    @example(n=513, rows=40, seed=0, share=1.0, negative=True, bad=None)
    @example(n=2, rows=1, seed=1, share=0.5, negative=True, bad=math.nan)
    def test_copy_equals_the_dense_product(self, n, rows, seed, share, negative, bad):
        rng = np.random.default_rng(seed)
        # mixed signs over the whole exponent range, subnormals included
        x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-320, 308, size=(rows, n))
        special = rng.random(x.shape) < share
        x[special] = rng.choice(SPECIAL, size=int(special.sum()))
        if negative:  # a row of negative entries and -0.0: the dense sum gives +0.0
            x[0] = -np.abs(x[0])
            x[0, rng.random(n) < 0.5] = -0.0
        if bad is not None:
            x[rng.integers(rows), rng.integers(n)] = bad
        head = ProjectionHead(np.eye(n))
        assert head.is_identity
        for got, want in head_products(head, x):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and not np.shares_memory(got, x)
            if bad is None:
                assert got.tobytes() == (x + 0.0).tobytes()
                assert not np.signbit(got[got == 0.0]).any()
            else:  # the dense path: 0 * inf and NaN poison the block
                assert np.isnan(got).any()

    @pytest.mark.parametrize("matrix", [
        np.eye(6)[[1, 0, 2, 3, 5, 4]],
        with_entry(np.eye(6), (2, 4), 1e-300),
        with_entry(np.eye(6), (2, 2), -1.0),
        np.eye(6, 4),
    ], ids=["permutation", "one-tiny-entry", "minus-one", "non-square"])
    def test_near_identity_heads_take_the_dense_path(self, matrix):
        head = ProjectionHead(matrix)
        assert not head.is_identity
        rng = np.random.default_rng(3)
        x, g = rng.standard_normal((3, matrix.shape[1])), rng.standard_normal((3, matrix.shape[0]))
        assert head.project_rows(x).tobytes() == gemv_rows(matrix, x).tobytes()
        assert head.backproject_rows(g).tobytes() == gemv_rows(matrix.T, g).tobytes()
        assert head.project_block(x).tobytes() == (x @ matrix.T).tobytes()

    def test_negative_zeros_off_the_diagonal_are_the_identity(self):
        matrix = np.where(np.eye(5) == 1.0, 1.0, -0.0)
        head = ProjectionHead(matrix)
        assert head.is_identity
        x = -np.abs(np.random.default_rng(4).standard_normal((3, 5)))
        x[:, 1] = -0.0
        for got, want in head_products(head, x):
            assert got.tobytes() == want.tobytes()

    def test_scripted_default_head_is_the_identity(self):
        be = ScriptedBackend(4, fallback=np.arange(4.0))
        assert be.head.is_identity
        assert "head" not in backend_to_dict(be)
        assert not ScriptedBackend(4, fallback=np.arange(4.0), head=2.0 * np.eye(4)).head.is_identity


class TestTwoPointLogits:
    @pytest.mark.parametrize("target,temp", [(0.1, 0.6), (1.4, 0.6), (2.0, 1.0)])
    def test_programs_exact_entropy(self, target, temp):
        z = two_point_logits(target, 32, hot=2, temperature=temp)
        assert entropy_from_logits(z, temp) == pytest.approx(target, abs=1e-9)
        assert int(np.argmax(z)) == 2

    def test_early_exit_is_the_200_halving_bisection_bit_for_bit(self, monkeypatch):
        def bisect_200(target, size, temperature):
            def h(gap):
                z = np.zeros(size)
                z[0] = gap
                return entropy_from_logits(z, temperature)

            lo, hi = 0.0, 1.0
            while h(hi) > target:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if h(mid) > target:
                    lo = mid
                else:
                    hi = mid
            z = np.zeros(size)
            z[0] = 0.5 * (lo + hi)
            return z

        calls = []
        counted = utils.entropy_from_logits
        monkeypatch.setattr(utils, "entropy_from_logits",
                            lambda *args: calls.append(1) or counted(*args))
        for size in (2, 3, 32, 512):
            for temperature in (0.25, 0.6, 1.0, 3.0):
                for share in (0.02, 0.3, 0.7, 0.98):
                    target = share * math.log(size)
                    calls.clear()
                    z = two_point_logits(target, size, temperature=temperature)
                    assert len(calls) < 100  # it stops at the fixed point, not after 200
                    assert z.tobytes() == bisect_200(target, size, temperature).tobytes()

    def test_target_range_validated(self):
        with pytest.raises(InputError):
            two_point_logits(math.log(8) + 0.1, 8)
        with pytest.raises(InputError):
            two_point_logits(0.0, 8)


class TestSerialization:
    def test_markov_dict_round_trip_is_exact(self):
        p = np.array([[0.25, 0.75], [0.6, 0.4]])
        be = MarkovBackend(p, smoothing=1e-9, token_names=("a", "b"))
        data = backend_to_dict(be)
        again = backend_from_dict(data)
        assert np.array_equal(again.transition_raw, be.transition_raw)
        assert np.array_equal(again.head.matrix, be.head.matrix)
        assert backend_to_dict(again) == data

    def test_scripted_dict_round_trip(self):
        be = ScriptedBackend(3, by_prefix={(0, 1): np.array([0.5, 0.25, 0.25])},
                             by_position=[np.arange(3.0)],
                             fallback=np.zeros(3))
        data = backend_to_dict(be)
        assert "head" not in data  # identity heads are omitted
        again = backend_from_dict(data)
        assert np.array_equal(again.forward_prefix((0, 1)).last_hidden,
                              be.forward_prefix((0, 1)).last_hidden)
        assert backend_to_dict(again) == data

    def test_attention_dict_round_trip(self):
        be = AttentionBackend(vocab_size=5, hidden_dim=4, seed=13, max_len=64)
        data = backend_to_dict(be)
        assert set(data) == {"kind", "vocab_size", "hidden_dim", "seed", "max_len"}
        again = backend_from_dict(data)
        assert np.array_equal(again.forward_prefix((1, 2)).last_hidden,
                              be.forward_prefix((1, 2)).last_hidden)

    def test_file_round_trip(self, tmp_path):
        be = MarkovBackend(np.full((3, 3), 1.0 / 3.0))
        path = tmp_path / "m.json"
        save_backend(be, path)
        again = load_backend(path)
        assert np.array_equal(again.transition, be.transition)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_toy_backend("markov", {"kind": "markov", "transition": [[1.0]],
                                         "smoothign": 0.1})
        with pytest.raises(ConfigError):
            build_toy_backend("mystery", {"kind": "mystery"})

    @pytest.mark.parametrize("key,definition", [
        ("hidden_dim", {"kind": "attention", "vocab_size": 4, "hidden_dim": 10 ** 23, "seed": 0}),
        ("max_len", {"kind": "attention", "vocab_size": 4, "hidden_dim": 10, "seed": 0,
                     "max_len": 10 ** 23}),
        ("vocab_size", {"kind": "attention", "vocab_size": 10 ** 23, "hidden_dim": 10,
                        "seed": 0}),
        ("vocab_size", {"kind": "scripted", "vocab_size": 4_000_000_000}),
    ])
    def test_dimension_numpy_cannot_hold(self, key, definition):
        # sizes whose arrays numpy refuses before allocating anything
        with pytest.raises(ConfigError, match=f"backend: {key} is too large"):
            backend_from_dict(definition)

    def test_files_keep_their_key_order_and_values(self, tmp_path):
        backends = {
            "scripted": (ScriptedBackend(
                2, by_prefix={(1, 0): [0.5, -1.0, 0.0], (0,): [2.0, 0.25, 1.0]},
                by_position=[[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]], fallback=[0.125, 3.0, 0.0],
                head=[[1.0, 2.0, 0.0], [0.5, 0.0, -1.0]], token_names=["a", "b"]),
                '{"kind": "scripted", "vocab_size": 2, "token_names": ["a", "b"], '
                '"by_prefix": {"0": [2.0, 0.25, 1.0], "1,0": [0.5, -1.0, 0.0]}, '
                '"by_position": [[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]], '
                '"fallback": [0.125, 3.0, 0.0], "head": [[1.0, 2.0, 0.0], [0.5, 0.0, -1.0]]}'),
            "markov": (MarkovBackend([[0.5, 0.5], [0.25, 0.75]], smoothing=0.125),
                       '{"kind": "markov", "vocab_size": 2, '
                       '"transition": [[0.5, 0.5], [0.25, 0.75]], "smoothing": 0.125}'),
            "attention": (AttentionBackend(3, 2, 7, max_len=8),
                          '{"kind": "attention", "vocab_size": 3, "hidden_dim": 2, "seed": 7, '
                          '"max_len": 8}'),
        }
        for kind, (backend, want) in backends.items():
            path = tmp_path / f"{kind}.json"
            save_backend(backend, path)
            text = path.read_text()
            assert text == json.dumps(json.loads(want), indent=1) + "\n", kind
            assert backend_to_dict(load_backend(path)) == json.loads(want), kind

    def test_null_smoothing_and_max_len_take_their_defaults(self):
        markov = backend_from_dict({"kind": "markov", "transition": [[0.5, 0.5], [0.25, 0.75]],
                                    "smoothing": None})
        assert markov.smoothing == MarkovBackend([[0.5, 0.5], [0.25, 0.75]]).smoothing == 0.0
        attention = backend_from_dict({"kind": "attention", "vocab_size": 4, "hidden_dim": 2,
                                       "seed": 0, "max_len": None})
        assert attention.max_len == AttentionBackend(4, 2, 0).max_len == 512

    @pytest.mark.parametrize("vocab_size, message", [
        (99, "backend: vocab_size 99 is not the transition's size 2"),
        (1, "backend: vocab_size 1 is not the transition's size 2"),
        ("x", "config key backend.vocab_size must be an integer, got 'x'"),
        (2.0, "config key backend.vocab_size must be an integer, got 2.0")])
    def test_markov_vocab_size_must_be_the_transition_size(self, vocab_size, message):
        definition = {"kind": "markov", "vocab_size": vocab_size,
                      "transition": [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            backend_from_dict(definition)
        assert backend_from_dict(dict(definition, vocab_size=2)).model_id == "markov-v2"

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_backend(path)

    def test_by_prefix_keys_parse_from_json(self, tmp_path):
        data = {"kind": "scripted", "vocab_size": 2,
                "by_prefix": {"0,1": [1.0, 0.0]}, "fallback": [0.0, 1.0]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        be = load_backend(path)
        assert np.array_equal(be.forward_prefix((0, 1)).last_hidden,
                              np.array([1.0, 0.0]))


class TestSoftmaxUtils:
    def test_softmax_temperature(self):
        z = np.array([1.0, 0.0])
        p = softmax(z, 2.0)
        want = np.exp(z / 2.0) / np.exp(z / 2.0).sum()
        assert np.max(np.abs(p - want)) < 1e-15

    def test_negative_infinite_logit_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = entropy_from_logits(np.array([-math.inf, 0.0, 1.0]))
        assert h == entropy_from_logits(np.array([0.0, 1.0]))

    def test_entropy_from_logits_matches_direct(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.standard_normal(9)
            p = softmax(z, 0.6)
            direct = -np.sum(p * np.log(p))
            assert entropy_from_logits(z, 0.6) == pytest.approx(direct, abs=1e-12)
