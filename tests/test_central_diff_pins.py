"""Pinned central differences: the gradient suite and LossInstance.gradients.

The digests were recorded when every central-difference probe (x + h*e_j or
x - h*e_j) was evaluated on its own: the gradient suite called the one-row
loss_ce and loss_aem once per probe, and `_central_diff` built each probe as
x + e or x - e with a fresh e. They check the one probe block both now share
against an independent record. The property test compares the suite's batched
differences with a copy of that one-row loop, byte for byte.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pin_platform import where
from selfreflect import ProjectionHead, prefix_instance, random_prefix_instance, run_gradient_suite
from selfreflect import verify
from selfreflect.backends import PrefixActivations
from selfreflect.optimizer import _context_terms, loss_aem
from selfreflect.verify import LossInstance

# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

# sha256 of json.dumps([passed, details], sort_keys=True, default=repr), as
# test_verify.SUITE_PINS hashes seed 0; seed 2's worst relative error moved
# by 1.8e-7 of itself when grad_hybrid's context gradient became factorized
GRADIENT_SUITE_PINS = {
    1: "af6714c59cc54be625c4498166cb4e82616eaa2d4039754da2d61b2e89719aec",
    2: "1e946d07723189afa0c35489f3fc2df06b4ddf8ea81a10178bd24aab663bd151",
    3: "dde2f8fb8f772822334562ccb1214c5857c8e34323c903137ca13ca161558624",
}
GRADIENTS_PIN = "5eac7d5c880986c65c7ed34c653fd7da281c54bf8f5cda8604570b57807e294f"


def sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def fd_cases():
    """(instance without analytic gradients, point, step): prefix instances
    of dims 1-16 with their gradients dropped, and a loss that reads the
    sign of zero, so a probe built other than as x + e or x - e shows in the
    bytes."""
    rng = np.random.default_rng(1515)
    for n, dim in enumerate((1, 2, 3, 5, 8, 16)):
        inst = random_prefix_instance(rng, dim, int(rng.integers(2, 33)), int(rng.integers(1, 9)),
                                      loss_temperature=(0.5, 1.0, 2.0)[n % 3],
                                      ce_scope=("full-prefix", "last-2", "generated-only")[n % 3])
        inst = dataclasses.replace(inst, g_ce=None, g_aem=None)
        x = 0.3 * rng.standard_normal(dim)
        x[0] = -0.0
        for h in (1e-6, 1e-3, 0.25):
            yield inst, x, h
    sign = LossInstance(dim=3, f_ce=lambda d: float(np.copysign(1.0, d).sum() + (d ** 2).sum()),
                        f_aem=lambda d: float(np.log1p(np.exp(d)).sum() * d[0]), label="sign")
    for x in ([-0.0, 0.0, 0.5], [0.0, -0.0, -0.0], [1.5, -2.0, 0.25]):
        for h in (1e-6, 0.125):
            yield sign, np.array(x), h


def test_gradients_without_analytic_gradients_are_pinned():
    got = sha(g.tobytes() for inst, x, h in fd_cases() for g in inst.gradients(x, h))
    assert got == GRADIENTS_PIN, where(RECORDED_ON)


@pytest.mark.parametrize("seed", sorted(GRADIENT_SUITE_PINS))
def test_gradient_suite_report_is_pinned(seed):
    report = run_gradient_suite(seed=seed)
    text = json.dumps([report.passed, report.details], sort_keys=True, default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == GRADIENT_SUITE_PINS[seed], where(RECORDED_ON)


def one_row_differences(acts, head, scope, delta, w, gamma, h):
    """The gradient suite's objective, one probe at a time through the
    one-row losses, differenced as the suite did before probe blocks. The
    context loss is the direct kernel's, as in the suite's probe block: a
    prefix instance's f_ce (the optimizer's loss_ce is factorized)."""
    f_ce = prefix_instance(acts, head, ce_scope=scope).f_ce

    def objective(d):
        val = ((1.0 - w) * f_ce(d)
               + w * loss_aem(acts, head, d))
        return val + 0.5 * gamma * float(d @ d)

    g = np.zeros_like(delta)
    for j in range(len(delta)):
        e = np.zeros_like(delta)
        e[j] = h
        g[j] = (objective(delta + e) - objective(delta - e)) / (2.0 * h)
    return g


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 16), vocab=st.integers(2, 32),
       plen=st.integers(1, 8), prompt=st.integers(1, 8),
       weight=st.sampled_from((0.0, 0.05, 0.5, 1.0)), gamma=st.sampled_from((0.0, 0.1)),
       scope=st.sampled_from(("full-prefix", "generated-only", "last-1", "last-3", "last-8")),
       scale=st.sampled_from((0.0, 0.1, 3.0)), h=st.sampled_from((1e-6, 1e-3, 0.5)))
def test_probe_block_equals_one_row_loop(seed, dim, vocab, plen, prompt, weight, gamma,
                                         scope, scale, h):
    rng = np.random.default_rng(seed)
    head = ProjectionHead(rng.standard_normal((vocab, dim)) / np.sqrt(dim))
    hidden = rng.standard_normal((plen, dim))
    tokens = rng.integers(0, vocab, size=plen).tolist()
    acts = PrefixActivations(tokens, list(hidden), "synthetic", prompt_len=min(prompt, plen))
    terms = _context_terms(acts, head, scope)
    delta = scale * rng.standard_normal(dim)
    delta[rng.random(dim) < 0.2] = -0.0
    got = verify._objective_differences(acts, head, terms, delta, weight, gamma, h)
    want = one_row_differences(acts, head, scope, delta, weight, gamma, h)
    assert got.tobytes() == want.tobytes()
