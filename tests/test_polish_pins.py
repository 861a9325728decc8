"""Pinned minimizers of the verification checks, and the lock-step polish.

The digests were recorded with the per-instance scalar polish that came
before the lock-step one, so they check the instance reports (delta*, the
losses there and the worst violation), which the suite-level pins in
test_verify.py summarize away, against an independent record. Each pin is
asserted through the one-instance API and through the multi-row helpers the
suites use. REPORT_PINS hash every field of every theorem1 report; they were
recorded when the suite polished a dim's instances six at a time and kept
their grids' losses for the reports.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from pin_platform import where
from selfreflect import (GridSpec, InputError, check_theorem1, check_tradeoff_bounds,
                         golden_min, lambda_sweep, quadratic_instance,
                         random_prefix_instance)
from selfreflect import verify
from selfreflect.verify import LossInstance

# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

THEOREM1_PINS = {
    0: "b929c1b71cf1a9c74b27eb3f81b80d6315bde804097771b817c349265552fec4",
    1: "e81b57b55c7389b3a0380333459e2e8591fafcdbbfd11a6d177e247b2088489a",
}
REPORT_PINS = {
    0: "e1083ff272ba4d28c42620fec854237718dd73d695b61701e5e1e3b3a847b474",
    1: "73f3198723ceb1c74bdbc115dbaf2b043d07b81f287cb35bafceb1ce66428567",
    2: "d116d5c27d586bcbc9d619c8a65b8822a6513babeb676573ce631f3db991d8f5",
    3: "0f18343f964439b2ead7fcbd8df04d27fe2a3e0cde78fc6ecf3bc8d663101425",
}
UNDERSTATED_PIN = "31030fbc57267b10cbc3a173c10fa63f8639e434afa44c3ac6910ad649e86820"
TRADEOFF_PIN = "695aecaaae5682995f402e6229163bdaa9be334a99d89f796b80aa82893c8446"
SWEEP_PIN = "49528f8d8bd940d52412dfcd603ec275df3af0726f6c7e145714bd62d4d7da6d"
GOLDEN_PIN = "56dfbc4ae8e794cbc80d9909301966f2947f7f17f01dcbb7489e007f8f7ec960"


def sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def theorem1_draws(seed, count=100):
    """The instances and weights run_theorem1_suite draws, in its order."""
    rng = np.random.default_rng(seed)
    instances, weights = [], []
    for i in range(count):
        dim = (i % 3) + 1
        vocab = int(rng.integers(2, 6))
        plen = int(rng.integers(2, 5))
        weights.append(float(rng.uniform(0.05, 0.95)))
        instances.append(random_prefix_instance(rng, dim, vocab, plen))
    return instances, weights


def tradeoff_draws(seed, count=50):
    """The instances run_tradeoff_suite draws, in its order."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(count):
        dim = (i % 2) + 1
        vocab = int(rng.integers(2, 6))
        plen = int(rng.integers(2, 5))
        instances.append(random_prefix_instance(rng, dim, vocab, plen))
    return instances


def theorem1_lines(reports):
    return [f"{r.delta_star!r} {r.epsilon_implied!r} {r.aem_star!r} "
            f"{r.worst_violation!r}" for r in reports]


def report_lines(reports):
    return [repr(dataclasses.astuple(r)) for r in reports]


def understated(a, b, cut):
    """A quadratic whose batch reports every grid candidate's aem `cut` too
    low, while its scalar losses (which give delta*) are exact: candidates
    near delta* undercut aem(delta*), so the check finds violations."""
    exact = quadratic_instance(a, b)

    def batch(deltas):
        ce, aem = exact.batch(deltas)
        return ce, aem - cut

    return LossInstance(dim=exact.dim, f_ce=exact.f_ce, f_aem=exact.f_aem,
                        batch=batch, label="understated")


def tradeoff_lines(reports):
    return [f"{r.l_ce_1!r} {r.l_aem_1!r} {r.l_ce_2!r} {r.l_aem_2!r} "
            f"{r.lower_bound!r} {r.gap!r} {r.upper_bound!r} {r.passed!r}"
            for r in reports]


def sweep_instance():
    return random_prefix_instance(np.random.default_rng(5), 2, 5, 4)


SWEEP_WEIGHTS = (0.1, 0.3, 0.5, 0.7, 0.9)


def golden_lines():
    cases = [
        (lambda t: (t - 2.0) ** 2, 0.0, 5.0, {}),
        (math.cos, 2.0, 4.0, {"tol": 1e-6}),
        (lambda t: abs(t - 0.3) + t ** 4, -1.0, 1.5, {"max_iter": 17}),
    ]
    return [repr(golden_min(f, lo, hi, **kw)) for f, lo, hi, kw in cases]


class TestInstancePins:
    @pytest.mark.parametrize("seed", sorted(THEOREM1_PINS))
    def test_theorem1_reports_one_instance_at_a_time(self, seed):
        instances, weights = theorem1_draws(seed)
        reports = [check_theorem1(inst, w) for inst, w in zip(instances, weights)]
        assert sha(theorem1_lines(reports)) == THEOREM1_PINS[seed], where(RECORDED_ON)

    def test_tradeoff_reports_one_instance_at_a_time(self):
        reports = [check_tradeoff_bounds(inst, 0.2, 0.8)
                   for inst in tradeoff_draws(0)]
        assert sha(tradeoff_lines(reports)) == TRADEOFF_PIN, where(RECORDED_ON)

    def test_lambda_sweep(self):
        points = lambda_sweep(sweep_instance(), SWEEP_WEIGHTS)
        assert sha(f"{p.l_ce!r} {p.l_aem!r}" for p in points) == SWEEP_PIN, where(RECORDED_ON)

    def test_golden_min(self):
        assert sha(golden_lines()) == GOLDEN_PIN, where(RECORDED_ON)

    @pytest.mark.parametrize("seed", sorted(REPORT_PINS))
    def test_theorem1_reports_through_the_suite_helper(self, seed):
        instances, weights = theorem1_draws(seed)
        reports = verify._theorem1_reports(zip(instances, weights))
        assert sha(report_lines(reports)) == REPORT_PINS[seed], where(RECORDED_ON)
        if seed in THEOREM1_PINS:
            assert sha(theorem1_lines(reports)) == THEOREM1_PINS[seed], where(RECORDED_ON)

    def test_violations_are_counted_in_the_report_pass(self):
        # one group of three rows: the counts come from each grid's second
        # evaluation, after the group's polish
        rows = [(understated((1.0, 0.0), (0.0, 1.0), 0.25), 0.3),
                (understated((0.5, -0.5), (-0.2, 0.4), 0.05), 0.7),
                (understated((0.0, 0.0), (1.0, 1.0), 0.5), 0.5)]
        grid = GridSpec(-2.0, 2.0, 41)
        reports = verify._theorem1_reports(rows, grid)
        assert [(r.violations, r.passed) for r in reports] == \
            [(5, False), (1, False), (17, False)]
        assert sha(report_lines(reports)) == UNDERSTATED_PIN, where(RECORDED_ON)
        assert reports == [check_theorem1(inst, w, grid) for inst, w in rows]

    def test_tradeoff_reports_through_the_suite_helper(self):
        reports = verify._tradeoff_reports(tradeoff_draws(0), 0.2, 0.8)
        assert sha(tradeoff_lines(reports)) == TRADEOFF_PIN, where(RECORDED_ON)

    def test_lambda_sweep_one_weight_at_a_time(self):
        inst = sweep_instance()
        points = [lambda_sweep(inst, [w])[0] for w in SWEEP_WEIGHTS]
        assert sha(f"{p.l_ce!r} {p.l_aem!r}" for p in points) == SWEEP_PIN, where(RECORDED_ON)


def reference_refine(instance, weight, start, radius, sweeps=2):
    """The scalar coordinate polish: each probe is one `hybrid` call."""
    best = np.array(start, dtype=np.float64)
    best_val = instance.hybrid(best, weight)
    for _ in range(sweeps):
        for j in range(instance.dim):
            def along(x, j=j):
                probe = best.copy()
                probe[j] = x
                return instance.hybrid(probe, weight)

            x = golden_min(along, best[j] - radius, best[j] + radius)
            val = along(x)
            if val < best_val:
                best_val = val
                best = best.copy()
                best[j] = x
    return best


def mixed_group():
    """Rows of one dim with V from 2 to 5 and |scope| from 0 (a one-token
    prefix) to 3, one under a last-M scope, all at loss temperature 0.5."""
    rng = np.random.default_rng(17)
    shapes = [(2, 1, "full-prefix"), (3, 2, "full-prefix"), (5, 4, "full-prefix"),
              (4, 6, "last-2"), (5, 1, "full-prefix"), (2, 4, "full-prefix")]
    instances = [random_prefix_instance(rng, 2, vocab, plen, loss_temperature=0.5,
                                        ce_scope=scope)
                 for vocab, plen, scope in shapes]
    weights = [0.1, 0.35, 0.5, 0.65, 0.9, 0.25]
    starts = rng.uniform(-1.5, 1.5, size=(len(instances), 2))
    return instances, weights, starts


class TestLockStep:
    def test_mixed_group_scope_sizes(self):
        instances, _, _ = mixed_group()
        assert sorted({inst.prefix.scope for inst in instances}) == [0, 1, 2, 3]

    def test_probe_kernel_equals_scalar_hybrid(self):
        instances, weights, _ = mixed_group()
        blend = verify._blend_rows(instances, weights)
        assert isinstance(blend, verify._PrefixBlend)
        rng = np.random.default_rng(3)
        for _ in range(20):
            unit = rng.uniform(-3.5, 3.5, size=(len(instances), 2))
            # at large finite scales every exp but each row max's underflows
            for points in (unit, unit * 1e150, unit * 1e300):
                got = blend(points)
                want = [inst.hybrid(p, w) for inst, p, w in zip(instances, points, weights)]
                assert got.tolist() == want

    def test_padded_group_equals_one_row_polish(self):
        instances, weights, starts = mixed_group()
        rows = verify._polish(verify._blend_rows(instances, weights), starts, 0.06, 2)
        for r, (inst, w) in enumerate(zip(instances, weights)):
            one = verify._polish(verify._blend_rows([inst], [w]), starts[r][None], 0.06, 2)[0]
            assert rows[r].tolist() == one.tolist()
            assert one.tolist() == reference_refine(inst, w, starts[r], 0.06).tolist()

    def test_quadratic_group_takes_the_generic_path(self):
        rng = np.random.default_rng(9)
        instances = [quadratic_instance(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
                     for _ in range(4)]
        weights = [0.2, 0.4, 0.6, 0.8]
        starts = rng.uniform(-1, 1, size=(4, 2))
        blend = verify._blend_rows(instances, weights)
        assert not isinstance(blend, verify._PrefixBlend)
        rows = verify._polish(blend, starts, 0.3, 2)
        for r, (inst, w) in enumerate(zip(instances, weights)):
            one = verify._polish(verify._blend_rows([inst], [w]), starts[r][None], 0.3, 2)[0]
            assert rows[r].tolist() == one.tolist()
            assert one.tolist() == reference_refine(inst, w, starts[r], 0.3).tolist()

    def test_theorem1_groups_by_dim_and_temperature(self):
        instances, weights, _ = mixed_group()
        instances.append(quadratic_instance((0.5, -0.5), (-0.2, 0.4)))
        instances.append(random_prefix_instance(np.random.default_rng(2), 1, 3, 3))
        weights += [0.3, 0.6]
        grid = GridSpec(-2.0, 2.0, 21)
        reports = verify._theorem1_reports(zip(instances, weights), grid)
        singles = [check_theorem1(inst, w, grid) for inst, w in zip(instances, weights)]
        assert reports == singles


class TestGoldenMinArguments:
    @pytest.mark.parametrize("max_iter", [2.5, -1, True, "3"])
    def test_bad_max_iter(self, max_iter):
        with pytest.raises(InputError, match="max_iter"):
            golden_min(lambda t: t * t, 0.0, 3.0, max_iter=max_iter)

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.inf),
                                        (-math.inf, 0.0), (0.0, "1")])
    def test_non_finite_bounds(self, bounds):
        with pytest.raises(InputError, match="bounds"):
            golden_min(lambda t: t * t, *bounds)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf, None])
    def test_bad_tol(self, tol):
        with pytest.raises(InputError, match="tol"):
            golden_min(lambda t: t * t, 0.0, 3.0, tol=tol)

    def test_zero_iterations_return_the_bracket_midpoint(self):
        assert golden_min(lambda t: t * t, 1.0, 3.0, max_iter=0) == 2.0


class TestPaddingLimit:
    def wide_group(self, vocabs):
        rng = np.random.default_rng(23)
        instances = [random_prefix_instance(rng, 2, v, 12) for v in vocabs]
        weights = [0.3] * len(vocabs)
        return instances, weights, rng.uniform(-1, 1, size=(len(vocabs), 2))

    @pytest.mark.parametrize("vocabs", [[33], [12, 12]])
    def test_one_shape_needs_no_padding(self, vocabs):
        # |scope| = 11 and V up to 33 pass numpy's pairwise-sum block, but
        # rows of one shape are not padded
        instances, weights, starts = self.wide_group(vocabs)
        blend = verify._blend_rows(instances, weights)
        assert isinstance(blend, verify._PrefixBlend)
        want = [inst.hybrid(p, w) for inst, p, w in zip(instances, starts, weights)]
        assert blend(starts).tolist() == want

    def test_padding_within_the_sum_block_takes_the_kernel(self):
        rng = np.random.default_rng(29)
        instances = [random_prefix_instance(rng, 2, v, plen)
                     for v, plen in ((7, 8), (2, 2), (4, 6))]
        points = rng.uniform(-3, 3, size=(3, 2))
        weights = [0.2, 0.5, 0.8]
        blend = verify._blend_rows(instances, weights)
        assert isinstance(blend, verify._PrefixBlend)
        want = [inst.hybrid(p, w) for inst, p, w in zip(instances, points, weights)]
        assert blend(points).tolist() == want

    # numpy's pairwise sum starts at 8 terms, where trailing zeros can round
    @pytest.mark.parametrize("vocabs", [[8, 4], [12, 9]])
    def test_padding_past_the_sum_block_takes_the_generic_path(self, vocabs):
        instances, weights, starts = self.wide_group(vocabs)
        assert not isinstance(verify._blend_rows(instances, weights), verify._PrefixBlend)
        rows = verify._polish(verify._blend_rows(instances, weights), starts, 0.05, 1)
        for r, inst in enumerate(instances):
            one = verify._polish(verify._blend_rows([inst], [0.3]), starts[r][None], 0.05, 1)[0]
            assert rows[r].tolist() == one.tolist()
