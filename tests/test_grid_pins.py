"""Pinned grid losses of prefix instances, and the vocabulary-major evaluator.

The digests were recorded with the row-layout grid evaluator that came before
the vocabulary-major one: it built one (candidates, V) block per in-scope
position and reduced it along V, one candidate row at a time. They pin the
bytes of `batch_eval`'s (ce, aem) on both sides of _SUM_BLOCK, where the
evaluator's vocabulary sums switch from adding V rows left to right to
numpy's own row sums, so they check the new layout against an independent
record.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pin_platform import where
from selfreflect import default_grid, random_prefix_instance
from selfreflect import verify

# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

GRID_PIN = "2fe958f3b02927488cfbac633dabd9e04c2817f7c7ace40f79d4549b423881c1"
THEOREM1_GRID_PINS = {
    0: "fb02af3ed085e42bee7a6296344789a9789343e47ac88f63bea86a5f345a9a3a",
    1: "80b779f640e3a5b01f922a00313d1673e9363f6022362ced9e8719cf7a229186",
}

# V on both sides of _SUM_BLOCK = 7, up to 40
VOCABS = (2, 3, 5, 7, 8, 9, 17, 33, 40)
# (prefix length, ce_scope) for |scope| 0 (a one-token prefix), 0 (no
# generated token), 1, 2, 3 and 8
SHAPES = ((1, "full-prefix"), (5, "generated-only"), (2, "full-prefix"),
          (6, "last-2"), (4, "full-prefix"), (9, "full-prefix"))
TEMPERATURES = (0.3, 1.0, 2.5)


def sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def loss_bytes(instance, deltas):
    ce, aem = instance.batch_eval(deltas)
    return ce.tobytes() + aem.tobytes()


def pinned_cases():
    """(instance, candidates): every (V, shape) pair once, dims 1-3 and the
    three loss temperatures in turn, each on its default grid plain and
    scaled by 40 (logits far enough apart that some probabilities are 0)."""
    rng = np.random.default_rng(1414)
    for n, (vocab, (plen, scope)) in enumerate(itertools.product(VOCABS, SHAPES)):
        dim = n % 3 + 1
        inst = random_prefix_instance(rng, dim, vocab, plen,
                                      loss_temperature=TEMPERATURES[n // 3 % 3],
                                      ce_scope=scope)
        cand = default_grid(dim).candidates(dim)
        yield inst, cand
        yield inst, cand * 40.0


def theorem1_instances(seed, count=100):
    """The instances run_theorem1_suite draws, in its order."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        dim = (i % 3) + 1
        vocab = int(rng.integers(2, 6))
        plen = int(rng.integers(2, 5))
        rng.uniform(0.05, 0.95)
        yield random_prefix_instance(rng, dim, vocab, plen)


class TestGridPins:
    def test_cases_cover_the_sum_block_and_scopes(self):
        shapes = {(inst.prefix.w.shape[0], inst.prefix.scope, inst.prefix.tau, inst.dim)
                  for inst, _ in pinned_cases()}
        assert {v for v, _, _, _ in shapes} >= {verify._SUM_BLOCK, verify._SUM_BLOCK + 1}
        assert {s for _, s, _, _ in shapes} == {0, 1, 2, 3, 8}
        assert {(t, d) for _, _, t, d in shapes} == set(itertools.product(TEMPERATURES,
                                                                         (1, 2, 3)))

    def test_pinned_instances(self):
        assert sha(loss_bytes(inst, cand) for inst, cand in pinned_cases()) == GRID_PIN, where(RECORDED_ON)

    @pytest.mark.parametrize("seed", sorted(THEOREM1_GRID_PINS))
    def test_theorem1_suite_instances(self, seed):
        got = sha(loss_bytes(inst, default_grid(inst.dim).candidates(inst.dim))
                  for inst in theorem1_instances(seed))
        assert got == THEOREM1_GRID_PINS[seed], where(RECORDED_ON)


def reference_batch(instance, deltas):
    """The row-layout evaluator the vocabulary-major one replaced: one
    (C, V) block per in-scope position, each reduced along V row by row."""
    w, last_hidden, targets, base, tau = instance.prefix
    last = w @ last_hidden
    shift = deltas @ w.T
    ce = np.zeros(len(deltas))
    if base is not None:
        for t in range(len(base)):
            z = base[t][None, :] + shift
            m = z.max(axis=1)
            lse = np.log(np.exp(z - m[:, None]).sum(axis=1)) + m
            ce += lse - z[:, targets[t]]
    zl = (last[None, :] + shift) / tau
    m = zl.max(axis=1)
    ls = zl - (np.log(np.exp(zl - m[:, None]).sum(axis=1)) + m)[:, None]
    p = np.exp(ls)
    aem = -np.sum(np.where(p > 0.0, p * ls, 0.0), axis=1)
    return ce, aem


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), vocab=st.integers(2, 12),
       dim=st.integers(1, 6), plen=st.integers(1, 10),
       tau=st.sampled_from(TEMPERATURES),
       scope=st.sampled_from(("full-prefix", "generated-only", "last-1", "last-3")),
       count=st.integers(0, 40), scale=st.sampled_from((0.1, 1.0, 40.0)))
def test_evaluator_equals_row_layout_reference(seed, vocab, dim, plen, tau, scope,
                                               count, scale):
    rng = np.random.default_rng(seed)
    inst = random_prefix_instance(rng, dim, vocab, plen, loss_temperature=tau,
                                  ce_scope=scope)
    deltas = rng.uniform(-3.0, 3.0, size=(count, dim)) * scale
    got = inst.batch_eval(deltas)
    want = reference_batch(inst, deltas)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("vocab", range(1, 41))
def test_vocab_sum_equals_contiguous_row_sums(vocab):
    # numpy's summation order is an implementation detail: this pins the
    # left-to-right sum up to _SUM_BLOCK terms that _vocab_sum relies on
    rng = np.random.default_rng(vocab)
    block = rng.standard_normal((vocab, 96)) * rng.choice([1e-3, 1.0, 1e12], size=(vocab, 96))
    block[rng.random(block.shape) < 0.15] = 0.0
    block[rng.random(block.shape) < 0.15] = -0.0
    block[rng.random(block.shape) < 0.1] = rng.choice([5e-324, -5e-324, 2.5e-310, -1e-315])
    block[:, 0] = -0.0
    block[:, 1] = rng.choice([0.0, -0.0], size=vocab)
    block[:, 2] = rng.choice([5e-324, -2.5e-320, 1e-310], size=vocab)
    want = np.ascontiguousarray(block.T).sum(axis=1)
    assert verify._vocab_sum(block).tobytes() == want.tobytes()
