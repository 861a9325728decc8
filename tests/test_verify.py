"""Verification harness: instances, grids, theorem checks, Pareto exports."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pin_platform import where
from selfreflect import optimizer, verify
from selfreflect import (DecodeConfig, GridSpec, InputError, ParetoPoint,
                         PrefixActivations, ProjectionHead, ReflectionConfig,
                         SamplingConfig, TriggerConfig, build_spike_backend,
                         check_joint_descent, check_theorem1, check_tradeoff_bounds, decode,
                         default_grid, export_pareto, golden_min, lambda_sweep,
                         optimize_delta, pareto_from_correction,
                         pareto_from_trace, quadratic_instance,
                         random_prefix_instance, run_gradient_suite,
                         run_joint_descent_suite, run_theorem1_suite,
                         run_tradeoff_suite)
from selfreflect.verify import JointDescentReport, LossInstance


def small_prefix_instance(seed=0, dim=2, vocab=5, prefix_len=3):
    return random_prefix_instance(np.random.default_rng(seed), dim, vocab,
                                  prefix_len)


class TestInstances:
    def test_quadratic_losses_and_gradients(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        d = np.array([0.5, 0.5])
        assert inst.ce(d) == pytest.approx(0.5, abs=1e-12)
        assert inst.aem(d) == pytest.approx(0.5, abs=1e-12)
        g1, g2 = inst.gradients(d)
        assert np.allclose(g1, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(g2, [1.0, -1.0], atol=1e-12)

    def test_hybrid_blend(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        d = np.array([0.0, 0.0])
        assert inst.hybrid(d, 0.25) == pytest.approx(
            0.75 * inst.ce(d) + 0.25 * inst.aem(d), abs=1e-12)

    def test_batch_eval_matches_scalar_paths(self):
        inst = small_prefix_instance(seed=8)
        cand = np.random.default_rng(1).uniform(-2, 2, size=(40, 2))
        ce, aem = inst.batch_eval(cand)
        for i in range(40):
            assert ce[i] == pytest.approx(inst.ce(cand[i]), abs=1e-12)
            assert aem[i] == pytest.approx(inst.aem(cand[i]), abs=1e-12)

    def test_prefix_instance_gradients_match_fd(self):
        inst = small_prefix_instance(seed=3)
        d = np.array([0.3, -0.2])
        g1, g2 = inst.gradients(d)
        h = 1e-6
        for f, g in ((inst.ce, g1), (inst.aem, g2)):
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (f(d + e) - f(d - e)) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("fd_step", [0.0, math.nan, -1e-6, math.inf])
    def test_central_differences_need_a_positive_finite_step(self, fd_step):
        inst = small_prefix_instance(seed=3)
        fd_only = LossInstance(inst.dim, inst.f_ce, inst.f_aem, label="fd-only")
        with pytest.raises(InputError, match="positive finite fd_step"):
            fd_only.gradients(np.array([0.3, -0.2]), fd_step)
        # an analytic pair takes no differences, so it needs no step
        g1, g2 = inst.gradients(np.array([0.3, -0.2]), fd_step)
        assert np.isfinite(g1).all() and np.isfinite(g2).all()

    def test_grid_entropy_counts_a_vanishing_probability_as_zero(self):
        # token 1's logit overflows to -inf, so its log-probability is -inf
        # and its probability 0: the term 0 * -inf must add 0, not NaN
        head = ProjectionHead(np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]))
        acts = PrefixActivations((0, 1), [np.array([1.0, 0.0])] * 2, "m")
        inst = verify.prefix_instance(acts, head, ce_scope="last-1")
        with np.errstate(over="ignore", invalid="ignore"):
            _, aem = inst.batch_eval(np.zeros((3, 2)))
            scalar = inst.aem(np.zeros(2))
        assert aem.tobytes() == np.full(3, -0.0).tobytes()
        assert math.copysign(1.0, scalar) == -1.0 and scalar == 0.0


def nan_corner(vectorized):
    """ce is NaN left of -2.9 and (d - 1)^2 elsewhere, aem is (d + 1)^2: the
    NaN candidates sit at the grid's low end, where argmin finds them."""
    def f_ce(d):
        return math.nan if d[0] < -2.9 else (d[0] - 1.0) ** 2

    def f_aem(d):
        return (d[0] + 1.0) ** 2

    def batch(deltas):
        x = deltas[:, 0]
        return np.where(x < -2.9, math.nan, (x - 1.0) ** 2), (x + 1.0) ** 2

    return LossInstance(dim=1, f_ce=f_ce, f_aem=f_aem, label="nan-corner",
                        batch=batch if vectorized else None)


def quadratic_with_batch(batch):
    inst = quadratic_instance((0.5,), (-0.5,), label="odd-batch")
    inst.batch = batch
    return inst


class TestBatchEvalChecks:
    @pytest.mark.parametrize("vectorized", [False, True], ids=["loop", "batch"])
    def test_nan_loss_is_an_input_error(self, vectorized):
        inst = nan_corner(vectorized)
        with pytest.raises(InputError, match="'nan-corner': a candidate's loss is NaN"):
            check_theorem1(inst, 0.5, GridSpec(points=101))
        with pytest.raises(InputError, match="'nan-corner'"):
            lambda_sweep(inst, [0.5])

    def test_finite_corner_still_checks(self):
        inst = nan_corner(True)
        rep = check_theorem1(inst, 0.5, GridSpec(-2.5, 3.0, 101))
        assert rep.passed and rep.candidates_tested == 101
        assert rep.delta_star[0] == pytest.approx(0.0, abs=1e-6)

    def test_short_batch(self):
        inst = quadratic_with_batch(lambda deltas: (np.zeros(3), np.zeros(3)))
        with pytest.raises(InputError, match=r"'odd-batch'.*shape \(101,\), got \(3,\)"):
            check_theorem1(inst, 0.5, GridSpec(points=101))

    def test_column_batch(self):
        def batch(deltas):
            x = deltas[:, :1]
            return (x - 0.5) ** 2, ((x + 0.5) ** 2)[:, 0]

        inst = quadratic_with_batch(batch)
        with pytest.raises(InputError, match=r"'odd-batch'.*got \(101, 1\) and \(101,\)"):
            check_theorem1(inst, 0.5, GridSpec(points=101))

    @pytest.mark.parametrize("result", [None, (np.zeros(101),) * 3, (np.zeros(101), "x")],
                             ids=["none", "three-arrays", "text"])
    def test_not_a_pair_of_arrays(self, result):
        inst = quadratic_with_batch(lambda deltas: result)
        with pytest.raises(InputError, match="'odd-batch': batch must return two arrays"):
            check_theorem1(inst, 0.5, GridSpec(points=101))

    def test_narrow_candidates_are_not_broadcast(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0), label="narrow")
        with pytest.raises(InputError, match=r"'narrow': candidates must form a \(C, 2\) "
                                             r"array, got shape \(4, 1\)"):
            inst.batch_eval(np.zeros((4, 1)))

    def test_wide_candidates_for_a_prefix_instance(self):
        inst = small_prefix_instance(seed=5, dim=2)
        with pytest.raises(InputError, match=r"'random-prefix'.*got shape \(4, 3\)"):
            inst.batch_eval(np.zeros((4, 3)))

    def test_one_dimensional_candidates_for_a_prefix_instance(self):
        inst = small_prefix_instance(seed=5, dim=2)
        with pytest.raises(InputError, match=r"'random-prefix'.*got shape \(4,\)"):
            inst.batch_eval(np.zeros(4))


class TestGridEvaluatorMemory:
    @pytest.mark.parametrize("dim, vocab", [(3, 5), (2, 40)], ids=["theorem1", "vocab40"])
    def test_peak_within_four_and_a_half_blocks(self, dim, vocab):
        # the shift W @ deltas.T and the two work buffers every (V, C) step
        # writes into, plus (C,) temporaries and, for V > 7, _vocab_sum's
        # transposed copy
        inst = random_prefix_instance(np.random.default_rng(7), dim, vocab, 4)
        cand = default_grid(dim).candidates(dim)
        inst.batch_eval(cand[:10])
        tracemalloc.start()
        try:
            inst.batch_eval(cand)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * vocab * len(cand) * 8

    def test_theorem1_suite_holds_one_grid_at_a_time(self):
        # a dim-3 grid's losses are about 170 KB. The bound is the largest of
        # three peaks measured when the suite polished a dim's instances six
        # at a time, holding their grids until the polish ended; holding a
        # whole dim's grids (up to 34) through one polish exceeds it
        run_theorem1_suite(seed=0, count=3)
        tracemalloc.start()
        try:
            run_theorem1_suite(seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_874_683


class TestGrids:
    def test_spec_candidates(self):
        grid = GridSpec(-1.0, 1.0, 5)
        assert grid.step == pytest.approx(0.5)
        c1 = grid.candidates(1)
        assert c1.shape == (5, 1)
        c2 = grid.candidates(2)
        assert c2.shape == (25, 2)
        assert np.allclose(c2[0], [-1.0, -1.0])
        assert np.allclose(c2[-1], [1.0, 1.0])

    def test_spec_validation(self):
        with pytest.raises(InputError):
            GridSpec(1.0, -1.0, 5)
        with pytest.raises(InputError):
            GridSpec(-1.0, 1.0, 1)

    def test_fractional_point_count_rejected_at_entry(self):
        with pytest.raises(InputError, match="points"):
            GridSpec(points=2.5)

    @pytest.mark.parametrize("bounds", [dict(lo=-math.inf), dict(hi=math.inf),
                                        dict(lo=-1e308, hi=1e308)])
    def test_unbounded_grid_rejected(self, bounds):
        with pytest.raises(InputError):
            GridSpec(**bounds)

    def test_default_grid_needs_a_dimension(self):
        with pytest.raises(InputError):
            default_grid(0)

    def test_default_grid_sizes(self):
        assert default_grid(1).points == 10001
        assert default_grid(2).points == 101
        assert default_grid(3).points == 22
        # beyond three dims the density drops to keep ~10^4 candidates
        assert default_grid(4).points == 10

    def test_golden_min(self):
        x = golden_min(lambda t: (t - 2.0) ** 2, 0.0, 5.0)
        assert abs(x - 2.0) < 1e-6


class TestTheorem1:
    def test_quadratic_midpoint(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        rep = check_theorem1(inst, 0.5, GridSpec(-2.0, 2.0, 81))
        assert rep.passed and rep.violations == 0
        assert rep.delta_star[0] == pytest.approx(0.5, abs=1e-6)
        assert rep.delta_star[1] == pytest.approx(0.5, abs=1e-6)
        assert rep.candidates_tested == 81 * 81
        assert not rep.degenerate

    def test_heavy_entropy_weight_lands_on_aem_minimizer(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        rep = check_theorem1(inst, 0.999, GridSpec(-2.0, 2.0, 81))
        assert rep.passed
        assert rep.delta_star[1] == pytest.approx(1.0, abs=1e-2)

    def test_degenerate_constraint_is_flagged(self):
        # both anchors far outside the grid: the corner minimizes everything,
        # so every candidate is feasible and the check is vacuous
        inst = quadratic_instance((-100.0, -100.0), (100.0, 100.0))
        rep = check_theorem1(inst, 1.0, GridSpec(-3.0, 3.0, 13))
        assert rep.degenerate and rep.passed

    def test_real_prefix_instance(self):
        inst = small_prefix_instance(seed=12)
        rep = check_theorem1(inst, 0.4, GridSpec(-3.0, 3.0, 101))
        assert rep.passed and rep.violations == 0
        assert rep.epsilon_implied >= 0.0
        assert rep.aem_star >= 0.0

    def test_weight_validation(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError):
            check_theorem1(inst, 0.0)
        with pytest.raises(InputError):
            check_theorem1(inst, 1.2)

    # a weight that is not a real number raised a bare TypeError, and True
    # passed as 1 into a report's entropy_weight
    @pytest.mark.parametrize("weight", ["0.5", True, None, 0.5j])
    def test_weight_must_be_a_real_number(self, weight):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError, match="entropy_weight"):
            check_theorem1(inst, weight, GridSpec(-2.0, 2.0, 21))

    def test_zero_dimensional_instance_rejected(self):
        with pytest.raises(InputError):
            check_theorem1(quadratic_instance([], []), 0.5)

    # an infinite or NaN tolerance would count no candidate as a violation
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9, None])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        inst = random_prefix_instance(np.random.default_rng(0), 2, 4, 3)
        with pytest.raises(InputError, match="tolerance"):
            check_theorem1(inst, 0.5, tolerance=tolerance)

    def test_zero_tolerance_is_a_check(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        rep = check_theorem1(inst, 0.5, GridSpec(-2.0, 2.0, 21), tolerance=0.0)
        assert rep.tolerance == 0.0 and rep.passed

    @pytest.mark.parametrize("sweeps", [1.5, -1, True, "2", None])
    def test_refine_sweeps_must_be_a_non_negative_integer(self, sweeps):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError, match="refine_sweeps"):
            check_theorem1(inst, 0.5, GridSpec(-2.0, 2.0, 21), refine_sweeps=sweeps)

    def test_zero_refine_sweeps_keep_the_grid_argmin(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        grid = GridSpec(-2.0, 2.0, 21)
        rep = check_theorem1(inst, 0.4, grid, refine_sweeps=0)
        assert list(rep.delta_star) in grid.candidates(2).tolist()
        assert rep.delta_star == pytest.approx((0.6, 0.4), abs=1e-12)


class TestTradeoff:
    def test_quadratic_bounds_hold(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        rep = check_tradeoff_bounds(inst, 0.2, 0.8, GridSpec(-2.0, 2.0, 81))
        assert rep.passed
        assert rep.lower_bound - rep.tolerance <= rep.gap <= rep.upper_bound + rep.tolerance
        # heavier entropy weight buys strictly lower sharpening loss here
        assert rep.l_aem_2 < rep.l_aem_1
        assert rep.l_ce_2 > rep.l_ce_1

    def test_real_instance_bounds_hold(self):
        inst = small_prefix_instance(seed=21)
        rep = check_tradeoff_bounds(inst, 0.2, 0.8, GridSpec(-3.0, 3.0, 61))
        assert rep.passed

    def test_weight_ordering_enforced(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        for w1, w2 in ((0.5, 0.5), (0.8, 0.2), (0.0, 0.5), (0.2, 1.0)):
            with pytest.raises(InputError):
                check_tradeoff_bounds(inst, w1, w2)

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_minimizer_beaten_at_its_own_weight_is_swapped(self, monkeypatch, which):
        # the blend minimizers of these anchors are (0.8, 0.2) at w1 = 0.2 and
        # (0.2, 0.8) at w2 = 0.8; hand the check a poor point in place of one of
        # them, and the cross-check puts the other in its place
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        best = [np.array([0.8, 0.2]), np.array([0.2, 0.8])]
        found = list(best)
        found[which] = np.array([5.0, 5.0])
        monkeypatch.setattr(verify, "_minimizers",
                            lambda rows, grid, sweeps: [(tuple(found), grid) for _ in rows])
        rep = check_tradeoff_bounds(inst, 0.2, 0.8)
        other = best[1 - which]
        assert (rep.l_ce_1, rep.l_aem_1) == (rep.l_ce_2, rep.l_aem_2) == \
            (inst.ce(other), inst.aem(other))
        assert rep.passed

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-6, "1e-6"])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        inst = random_prefix_instance(np.random.default_rng(0), 2, 4, 3)
        with pytest.raises(InputError, match="tolerance"):
            check_tradeoff_bounds(inst, 0.2, 0.8, tolerance=tolerance)

    @pytest.mark.parametrize("w1, w2", [("0.2", 0.8), (0.2, "0.8"), (None, 0.8), (0.2, 0.8j)])
    def test_weights_must_be_real_numbers(self, w1, w2):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError, match="real weights"):
            check_tradeoff_bounds(inst, w1, w2, GridSpec(-2.0, 2.0, 21))

    @pytest.mark.parametrize("sweeps", [1.5, -1, True])
    def test_refine_sweeps_must_be_a_non_negative_integer(self, sweeps):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError, match="refine_sweeps"):
            check_tradeoff_bounds(inst, 0.2, 0.8, GridSpec(-2.0, 2.0, 21),
                                  refine_sweeps=sweeps)


class TestJointDescent:
    def test_acute_gradients_descend_jointly(self):
        inst = quadratic_instance((1.0, 0.0), (0.5, 0.5))
        rep = check_joint_descent(inst, (-1.0, -1.0))
        assert rep.applicable and rep.passed
        assert rep.grad_cos > 0.0
        assert rep.ce_drop > 0.0 and rep.aem_drop > 0.0

    def test_opposed_gradients_not_applicable(self):
        inst = quadratic_instance((1.0, 0.0), (-1.0, 0.0))
        rep = check_joint_descent(inst, (0.0, 0.0))
        assert not rep.applicable and rep.passed
        assert rep.grad_cos == pytest.approx(-1.0, abs=1e-12)

    def test_zero_gradient_not_applicable(self):
        inst = quadratic_instance((1.0, 0.0), (1.0, 0.0))
        rep = check_joint_descent(inst, (1.0, 0.0))
        assert not rep.applicable and rep.passed

    def test_an_overshooting_step_is_halved_until_both_losses_drop(self):
        # from (-1, -1) the blended direction is (-3.5, -2.5): steps 10, 5, 2.5
        # and 1.25 overshoot the anchors, 0.625 lowers both losses
        inst = quadratic_instance((1.0, 0.0), (0.5, 0.5))
        rep = check_joint_descent(inst, (-1.0, -1.0), learning_rate=10.0)
        assert rep.applicable and rep.passed
        assert rep.step_size == 0.625
        assert rep.ce_drop > 0.0 and rep.aem_drop > 0.0

    def test_no_descent_within_the_halvings_fails(self):
        inst = quadratic_instance((1.0, 0.0), (0.5, 0.5))
        rep = check_joint_descent(inst, (-1.0, -1.0), learning_rate=10.0, max_halvings=3)
        assert rep.applicable and not rep.passed
        assert (rep.step_size, rep.ce_drop, rep.aem_drop) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kwargs", [dict(learning_rate=0.0),
                                        dict(learning_rate=-0.01),
                                        dict(max_halvings=-1)])
    def test_step_settings_rejected_at_entry(self, kwargs):
        inst = quadratic_instance((1.0, 0.0), (0.5, 0.5))
        with pytest.raises(InputError):
            check_joint_descent(inst, (-1.0, -1.0), **kwargs)


class TestSuitesSmoke:
    def test_gradient_suite(self):
        rep = run_gradient_suite(seed=1, count=20)
        assert rep.passed
        assert rep.details["count"] == 20
        assert rep.details["max_relative_error"] < 1e-5
        assert rep.summary_line().startswith("[PASS] gradients")

    def test_theorem1_suite(self):
        rep = run_theorem1_suite(seed=2, count=6)
        assert rep.passed
        assert rep.details["violations"] == 0

    def test_tradeoff_suite(self):
        rep = run_tradeoff_suite(seed=3, count=8)
        assert rep.passed

    def test_joint_descent_suite(self):
        rep = run_joint_descent_suite(seed=4, count=8)
        assert rep.passed
        assert rep.details["applicable"] > 0
        assert rep.details["opposed_case_not_applicable"] is True

    def test_a_failed_tradeoff_report_fails_the_suite(self, monkeypatch):
        exact = verify._tradeoff_reports
        monkeypatch.setattr(verify, "_tradeoff_reports", lambda *args: [
            replace(r, passed=i != 1) for i, r in enumerate(exact(*args))])
        rep = run_tradeoff_suite(seed=3, count=4)
        assert not rep.passed
        assert rep.details["failures"] == 1

    @pytest.mark.parametrize("report, counts", [
        (JointDescentReport(False, 0.0, 0.0, 0.0, 0.0, True),
         {"applicable": 0, "failures": 0, "skipped": 3}),
        (JointDescentReport(True, 1.0, 0.0, 0.0, 0.0, False),
         {"applicable": 3, "failures": 3, "skipped": 0})], ids=["skipped", "failed"])
    def test_joint_descent_suite_counts_skips_and_failures(self, monkeypatch, report, counts):
        monkeypatch.setattr(verify, "check_joint_descent", lambda *args: report)
        rep = run_joint_descent_suite(seed=0, count=3)
        assert not rep.passed
        assert {key: rep.details[key] for key in counts} == counts

    @pytest.mark.parametrize("suite", [run_gradient_suite, run_theorem1_suite,
                                       run_tradeoff_suite, run_joint_descent_suite])
    def test_negative_seed_rejected(self, suite):
        with pytest.raises(InputError, match="seed"):
            suite(seed=-1, count=1)

    @pytest.mark.parametrize("count", [-1, 0, 2.0, True, "3"])
    @pytest.mark.parametrize("suite", [run_gradient_suite, run_theorem1_suite,
                                       run_tradeoff_suite, run_joint_descent_suite])
    def test_count_must_be_a_positive_integer(self, suite, count):
        with pytest.raises(InputError, match="suite count must be a positive integer"):
            suite(seed=0, count=count)

    @pytest.mark.parametrize("name", ["tolerance", "fd_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-6, "1e-6"])
    def test_gradient_suite_steps_must_be_positive_and_finite(self, name, value):
        with pytest.raises(InputError, match=f"positive finite {name}"):
            run_gradient_suite(seed=0, count=2, **{name: value})

    def test_nan_relative_error_fails_the_gradient_suite(self, monkeypatch):
        exact = optimizer.grad_hybrid

        def poisoned(acts, head, delta, config, **kwargs):
            grad, report = exact(acts, head, delta, config, **kwargs)
            return grad * math.nan if len(delta) == 3 else grad, report

        monkeypatch.setattr(optimizer, "grad_hybrid", poisoned)
        rep = run_gradient_suite(seed=0, count=20)
        assert not rep.passed
        assert math.isnan(rep.details["max_relative_error"])
        assert rep.details["worst_case"]["dim"] == 3


# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

# sha256 of json.dumps([passed, details], sort_keys=True, default=repr) for the
# seed-0 suite reports, recorded before the loss terms were shared per instance
SUITE_PINS = {
    "gradients": "a47b69575b3f1406271e3a8e390414dae2dbe390c4d221b9bc959af0b1ddd3a9",
    "theorem1": "51db0c0e57ab5c1330e23e9c86f852f4756a6dc87267f29b33340a20b9ea6a5f",
    "tradeoff": "ce54b719bd4e2a1b419a21b3c91974eb74feca2e99439360dbb807f6477e581f",
    "joint-descent": "32a709677a7a406a55fa908ffa01712a8c71073b90365ad5b1871ec9d4c18aff",
}


class TestSharedLossTerms:
    @pytest.mark.parametrize("name", sorted(SUITE_PINS))
    def test_seed0_suite_report_is_pinned(self, name):
        report = verify.SUITES[name](seed=0)
        text = json.dumps([report.passed, report.details], sort_keys=True, default=repr)
        assert hashlib.sha256(text.encode()).hexdigest() == SUITE_PINS[name], where(RECORDED_ON)

    @staticmethod
    def count_calls(monkeypatch, owners, attr):
        calls = []
        original = getattr(owners[0], attr)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, attr, counted)
        return calls

    def test_context_terms_built_once_per_prefix_instance(self, monkeypatch):
        calls = self.count_calls(monkeypatch, (optimizer, verify), "_context_terms")
        for dim in (1, 2):
            before = len(calls)
            inst = small_prefix_instance(seed=dim, dim=dim, prefix_len=4)
            check_theorem1(inst, 0.4, GridSpec(-2.0, 2.0, 41))
            assert len(calls) - before == 1

    def test_gradients_build_no_context_terms(self, monkeypatch):
        inst = small_prefix_instance(seed=3)
        calls = self.count_calls(monkeypatch, (optimizer, verify), "_context_terms")
        check_joint_descent(inst, (0.3, -0.2))
        assert calls == []

    def test_grid_evaluated_once_for_every_weight(self, monkeypatch):
        inst = small_prefix_instance(seed=21)
        calls = self.count_calls(monkeypatch, (LossInstance,), "batch_eval")
        check_tradeoff_bounds(inst, 0.2, 0.8, GridSpec(-3.0, 3.0, 61))
        assert len(calls) == 1
        lambda_sweep(inst, [0.1, 0.5, 0.9], GridSpec(-3.0, 3.0, 61))
        assert len(calls) == 2

    def test_bad_refine_sweeps_raise_before_any_grid_is_evaluated(self, monkeypatch):
        instances = [small_prefix_instance(seed=s) for s in (21, 22)]
        grid = GridSpec(-2.0, 2.0, 21)
        calls = self.count_calls(monkeypatch, (LossInstance,), "batch_eval")
        checks = [lambda: verify._theorem1_reports([(inst, 0.4) for inst in instances],
                                                   grid, refine_sweeps=-1),
                  lambda: verify._tradeoff_reports(instances, 0.2, 0.8, grid,
                                                   refine_sweeps=1.5),
                  lambda: lambda_sweep(instances[0], [0.3, 0.6], grid, refine_sweeps=True)]
        for check in checks:
            with pytest.raises(InputError, match="refine_sweeps"):
                check()
        assert calls == []

    def test_gradient_suite_builds_terms_twice_per_instance(self, monkeypatch):
        # once for its central differences, once inside grad_hybrid
        calls = self.count_calls(monkeypatch, (optimizer, verify), "_context_terms")
        run_gradient_suite(seed=0, count=6)
        assert len(calls) == 12


class TestPareto:
    def trajectory_points(self, steps):
        rng = np.random.default_rng(31)
        inst_dim, vocab, plen = 3, 6, 4
        from selfreflect import PrefixActivations, ProjectionHead
        head = ProjectionHead(rng.standard_normal((vocab, inst_dim)))
        acts = PrefixActivations(
            tuple(int(t) for t in rng.integers(0, vocab, plen)),
            [rng.standard_normal(inst_dim) for _ in range(plen)], "synthetic")
        corr = optimize_delta(acts, head, ReflectionConfig(steps=steps))
        return pareto_from_correction(corr, 0.05)

    def test_points_per_trajectory_entry(self):
        pts = self.trajectory_points(3)
        assert [p.step for p in pts] == [0, 1, 2, 3]
        for p in pts:
            assert math.isfinite(p.l_ce) and p.l_ce >= 0.0
            assert math.isfinite(p.l_aem) and p.l_aem >= 0.0
            assert p.entropy_weight == 0.05

    def test_zero_step_trajectory(self):
        assert len(self.trajectory_points(0)) == 1

    def test_pareto_from_trace_sources(self):
        backend, length, positions = build_spike_backend(1)
        cfg = DecodeConfig(trigger=TriggerConfig(),
                           sampling=SamplingConfig(mode="greedy"),
                           max_tokens=length)
        pts = pareto_from_trace(decode(backend, (0,), cfg))
        assert pts and all(p.source == "trajectory" for p in pts)

    def test_lambda_sweep_is_monotone(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        pts = lambda_sweep(inst, [0.1, 0.3, 0.5, 0.7, 0.9],
                           GridSpec(-2.0, 2.0, 81))
        aems = [p.l_aem for p in pts]
        ces = [p.l_ce for p in pts]
        assert all(b <= a + 1e-9 for a, b in zip(aems, aems[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(ces, ces[1:]))
        assert all(p.source == "lambda-sweep" for p in pts)

    def test_lambda_sweep_weight_validation(self):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError):
            lambda_sweep(inst, [0.0])
        with pytest.raises(InputError):
            lambda_sweep(inst, [1.0])

    @pytest.mark.parametrize("weights", [["0.5"], [0.5, None], [0.5j]])
    def test_lambda_sweep_weights_must_be_real_numbers(self, weights):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError, match="real numbers"):
            lambda_sweep(inst, weights, GridSpec(-2.0, 2.0, 21))

    @pytest.mark.parametrize("sweeps", [1.5, -1, True])
    def test_lambda_sweep_refine_sweeps_validation(self, sweeps):
        inst = quadratic_instance((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError, match="refine_sweeps"):
            lambda_sweep(inst, [0.5], GridSpec(-2.0, 2.0, 21), refine_sweeps=sweeps)

    def test_export_csv_shape(self):
        pts = [ParetoPoint(0.5, 1, 0.25, 0.1, "b"),
               ParetoPoint(0.05, 0, 1.0, 2.0, "a"),
               ParetoPoint(0.5, 0, 0.5, 0.2, "a")]
        text = export_pareto(pts)
        lines = text.splitlines()
        assert lines[0] == "entropy_weight,step,l_ce,l_aem,source"
        assert lines[1].startswith("0.05,0,")
        assert lines[2] == "0.5,0,0.5,0.2,a"
        assert lines[3].startswith("0.5,1,")
        # repr round-trip: parsing the floats back loses nothing
        assert float(lines[2].split(",")[2]) == 0.5
