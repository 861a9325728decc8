"""Hybrid loss, analytic gradients, the inner descent loop, weight adaptation."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pin_platform import where
import selfreflect.optimizer as optimizer
from selfreflect import (AdaptiveWeightConfig, InputError, MarkovBackend,
                         PrefixActivations, ProjectionHead, ReflectionConfig,
                         adapt_lambda, ce_positions, grad_hybrid, loss_aem,
                         loss_ce, loss_gradients, optimize_delta)
from selfreflect.optimizer import optimize_rows


def make_acts(hidden_rows, tokens, prompt_len=-1):
    rows = [np.asarray(r, dtype=np.float64) for r in hidden_rows]
    return PrefixActivations(tuple(tokens), rows, "synthetic", prompt_len=prompt_len)


def random_case(rng, dim, vocab, plen):
    head = ProjectionHead(rng.standard_normal((vocab, dim)) / math.sqrt(dim))
    acts = make_acts(rng.standard_normal((plen, dim)),
                     rng.integers(0, vocab, size=plen))
    return acts, head


class TestScope:
    def test_full_prefix_excludes_last(self):
        acts = make_acts(np.zeros((4, 2)), (0, 1, 0, 1))
        assert ce_positions(acts, "full-prefix") == [0, 1, 2]

    def test_generated_only(self):
        acts = make_acts(np.zeros((5, 2)), (0, 1, 0, 1, 0), prompt_len=3)
        # position 2 is the last prompt state; it predicts the first generated token
        assert ce_positions(acts, "generated-only") == [2, 3]

    def test_last_m(self):
        acts = make_acts(np.zeros((6, 2)), (0,) * 6)
        assert ce_positions(acts, "last-2") == [3, 4]
        assert ce_positions(acts, "last-25") == [0, 1, 2, 3, 4]

    def test_unknown_scope(self):
        with pytest.raises(InputError):
            ReflectionConfig(ce_scope="last-0")
        with pytest.raises(InputError):
            ReflectionConfig(ce_scope="sometimes")


class TestLossCE:
    def test_two_uniform_positions(self):
        # identity head, zero states: both scored positions are 50/50 coins
        acts = make_acts(np.zeros((3, 2)), (0, 1, 0))
        head = ProjectionHead(np.eye(2))
        got = loss_ce(acts, head, np.zeros(2))
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_single_token_prefix_scores_zero(self):
        acts = make_acts(np.ones((1, 3)), (2,))
        head = ProjectionHead(np.eye(3))
        assert loss_ce(acts, head, np.zeros(3)) == 0.0

    def test_matches_manual_logsumexp(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            acts, head = random_case(rng, 3, 6, 5)
            delta = 0.3 * rng.standard_normal(3)
            total = 0.0
            for i in range(4):
                z = head.matrix @ (acts.hidden[i] + delta)
                total += math.log(np.exp(z - z.max()).sum()) + z.max() - z[acts.tokens[i + 1]]
            assert loss_ce(acts, head, delta) == pytest.approx(total, abs=1e-12)

    def test_same_delta_applied_to_all_positions(self):
        rng = np.random.default_rng(4)
        acts, head = random_case(rng, 2, 4, 4)
        delta = rng.standard_normal(2)
        shifted = make_acts([h + delta for h in acts.hidden], acts.tokens)
        assert loss_ce(acts, head, delta) == pytest.approx(
            loss_ce(shifted, head, np.zeros(2)), abs=1e-12)


class TestLossAEM:
    def test_uniform_is_log_v(self):
        acts = make_acts(np.zeros((1, 5)), (0,))
        head = ProjectionHead(np.eye(5))
        assert loss_aem(acts, head, np.zeros(5)) == pytest.approx(
            math.log(5), abs=1e-12)

    def test_peaked_is_tiny(self):
        acts = make_acts([[40.0, 0.0]], (0,))
        head = ProjectionHead(np.eye(2))
        assert loss_aem(acts, head, np.zeros(2)) < 1e-15

    def test_delta_shifts_the_distribution(self):
        acts = make_acts([[0.0, 0.0]], (0,))
        head = ProjectionHead(np.eye(2))
        # uncorrected: uniform; corrected by (3, 0): entropy of sigmoid(3) coin
        p = 1.0 / (1.0 + math.exp(-3.0))
        want = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        got = loss_aem(acts, head, np.array([3.0, 0.0]))
        assert got == pytest.approx(want, abs=1e-12)

    def test_temperature_matters(self):
        rng = np.random.default_rng(9)
        acts, head = random_case(rng, 3, 5, 2)
        sharp = loss_aem(acts, head, np.zeros(3), loss_temperature=0.25)
        flat = loss_aem(acts, head, np.zeros(3), loss_temperature=4.0)
        assert sharp < flat

    def test_equals_the_gradient_path_value_bitwise(self):
        rng = np.random.default_rng(12)
        acts, head = random_case(rng, 3, 6, 4)
        cfg = ReflectionConfig(entropy_weight=0.3, loss_temperature=0.7)
        for _ in range(5):
            delta = rng.standard_normal(3)
            _, rep = grad_hybrid(acts, head, delta, cfg)
            assert loss_aem(acts, head, delta, 0.7) == rep.l_aem


class TestGradients:
    def test_uniform_entropy_gradient_is_zero(self):
        # at the uniform point the entropy is maximal, so its gradient vanishes
        acts = make_acts(np.zeros((1, 4)), (0,))
        head = ProjectionHead(np.eye(4))
        _, g_aem = loss_gradients(acts, head, np.zeros(4))
        assert np.max(np.abs(g_aem)) < 1e-12

    def test_ce_gradient_is_probs_minus_onehot(self):
        acts = make_acts(np.zeros((2, 3)), (0, 2))
        head = ProjectionHead(np.eye(3))
        g_ce, _ = loss_gradients(acts, head, np.zeros(3))
        want = np.full(3, 1.0 / 3.0)
        want[2] -= 1.0
        assert np.max(np.abs(g_ce - want)) < 1e-12

    def test_finite_difference_sweep(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for i in range(40):
            dim = int(rng.integers(1, 7))
            vocab = int(rng.integers(2, 9))
            plen = int(rng.integers(1, 6))
            acts, head = random_case(rng, dim, vocab, plen)
            w = [0.0, 0.05, 0.5, 1.0][i % 4]
            gamma = 0.1 if i % 2 else 0.0
            cfg = ReflectionConfig(entropy_weight=w, reg_gamma=gamma)
            delta = 0.1 * rng.standard_normal(dim)
            grad, rep = grad_hybrid(acts, head, delta, cfg)

            def f(d):
                return ((1 - w) * loss_ce(acts, head, d)
                        + w * loss_aem(acts, head, d)
                        + 0.5 * gamma * float(d @ d))

            fd = np.zeros(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                fd[j] = (f(delta + e) - f(delta - e)) / (2 * h)
            denom = max(float(np.linalg.norm(fd)), 1e-9)
            assert float(np.linalg.norm(grad - fd)) / denom < 1e-5

    def test_report_decomposition(self):
        rng = np.random.default_rng(3)
        acts, head = random_case(rng, 4, 6, 5)
        cfg = ReflectionConfig(entropy_weight=0.3)
        _, rep = grad_hybrid(acts, head, 0.2 * rng.standard_normal(4), cfg)
        assert rep.f_lambda == pytest.approx(
            0.7 * rep.l_ce + 0.3 * rep.l_aem, abs=1e-12)
        assert rep.l_aem <= math.log(6) + 1e-9
        assert -1.0 <= rep.grad_cos <= 1.0
        assert rep.implied_epsilon == rep.l_ce

    def test_implied_alpha_bijection(self):
        rng = np.random.default_rng(6)
        acts, head = random_case(rng, 2, 3, 2)
        _, rep = grad_hybrid(acts, head, np.zeros(2),
                             ReflectionConfig(entropy_weight=0.05))
        assert abs(rep.implied_alpha - 19.0) < 1e-12
        _, rep0 = grad_hybrid(acts, head, np.zeros(2),
                              ReflectionConfig(entropy_weight=0.0))
        assert rep0.implied_alpha == math.inf

    def test_grad_clip_not_applied_in_grad_hybrid(self):
        # huge logits make a huge gradient; grad_hybrid must return it unclipped
        acts = make_acts([[500.0, 0.0], [500.0, 0.0]], (0, 1))
        head = ProjectionHead(np.eye(2))
        cfg = ReflectionConfig(entropy_weight=0.0, grad_clip=1.0)
        grad, _ = grad_hybrid(acts, head, np.zeros(2), cfg)
        assert float(np.linalg.norm(grad)) > 1.0


class TestOptimizeDelta:
    def test_zero_steps_returns_start_report(self):
        rng = np.random.default_rng(8)
        acts, head = random_case(rng, 3, 5, 4)
        corr = optimize_delta(acts, head, ReflectionConfig(steps=0))
        assert corr.steps_taken == 0 and not corr.aborted
        assert len(corr.trajectory) == 1
        assert np.array_equal(corr.delta, np.zeros(3))

    def test_plain_mode_takes_exact_steps(self):
        rng = np.random.default_rng(12)
        acts, head = random_case(rng, 4, 7, 5)
        corr = optimize_delta(acts, head, ReflectionConfig(steps=3))
        assert corr.steps_taken == 3
        assert len(corr.trajectory) == 4
        assert corr.trajectory[0].step_size == 0.0
        assert all(r.step_size == 0.01 for r in corr.trajectory[1:])

    def test_plain_step_matches_manual_update(self):
        rng = np.random.default_rng(14)
        acts, head = random_case(rng, 3, 5, 4)
        cfg = ReflectionConfig(steps=1, learning_rate=0.5, grad_clip=None)
        corr = optimize_delta(acts, head, cfg)
        grad, _ = grad_hybrid(acts, head, np.zeros(3), cfg)
        assert np.max(np.abs(corr.delta - (-0.5 * grad))) < 1e-15

    def test_entropy_descent_two_logits(self):
        # pure sharpening on a near-even coin must reduce entropy monotonically
        acts = make_acts([[0.2, 0.0]], (0,))
        head = ProjectionHead(np.eye(2))
        cfg = ReflectionConfig(entropy_weight=1.0, steps=5, learning_rate=0.5,
                               backtracking=True)
        corr = optimize_delta(acts, head, cfg)
        ents = [r.l_aem for r in corr.trajectory]
        assert all(b <= a + 1e-12 for a, b in zip(ents, ents[1:]))
        assert ents[-1] < ents[0]

    def test_backtracking_objective_never_increases(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            acts, head = random_case(rng, 3, 6, 5)
            cfg = ReflectionConfig(steps=4, learning_rate=2.0, backtracking=True,
                                   reg_gamma=0.05)
            corr = optimize_delta(acts, head, cfg)
            objs = [r.f_lambda + 0.025 * 0.0 for r in corr.trajectory]
            # reconstruct the true objective: f_lambda plus the ridge term
            deltas = [np.zeros(3)]
            # walk the accepted steps to recover per-point norms is overkill;
            # final vs first suffices alongside pairwise f_lambda checks
            assert corr.trajectory[-1].f_lambda <= corr.trajectory[0].f_lambda + 1e-12

    def test_gradient_direction_clipped_at_grad_clip(self):
        # CE gradient here is (1, -1), norm sqrt(2) > 0.5, so the step is scaled
        acts = make_acts([[500.0, 0.0], [500.0, 0.0]], (0, 1))
        head = ProjectionHead(np.eye(2))
        cfg = ReflectionConfig(entropy_weight=0.0, steps=1, learning_rate=1.0,
                               grad_clip=0.5)
        corr = optimize_delta(acts, head, cfg)
        assert float(np.linalg.norm(corr.delta)) == pytest.approx(0.5, abs=1e-9)

    def test_trust_region_projection(self):
        rng = np.random.default_rng(23)
        acts, head = random_case(rng, 4, 6, 5)
        cfg = ReflectionConfig(steps=5, learning_rate=5.0, trust_radius=0.1)
        corr = optimize_delta(acts, head, cfg)
        assert float(np.linalg.norm(corr.delta)) <= 0.1 + 1e-12

    def test_abort_on_nonfinite_loss(self):
        # a denormal loss temperature overflows the scaled logits to +/- inf
        acts = make_acts([[30.0, -30.0]], (0,))
        head = ProjectionHead(np.eye(2))
        cfg = ReflectionConfig(steps=3, loss_temperature=1e-320)
        corr = optimize_delta(acts, head, cfg)
        assert corr.aborted
        assert np.array_equal(corr.delta, np.zeros(2))
        assert_matches_reference(corr, acts, head, cfg)

    def test_abort_on_overflowing_learning_rate(self):
        acts = make_acts([[1.0, 0.0], [0.5, 0.2]], (0, 1))
        head = ProjectionHead(np.eye(2) * 300.0)
        cfg = ReflectionConfig(steps=4, learning_rate=1e306, grad_clip=None)
        corr = optimize_delta(acts, head, cfg)
        assert corr.aborted
        assert np.array_equal(corr.delta, np.zeros(2))
        assert_matches_reference(corr, acts, head, cfg)

    def test_early_stop_at_stationary_point(self):
        # start at the entropy maximum with pure sharpening: zero gradient,
        # backtracking sees no decrease and stops after one probe step
        acts = make_acts(np.zeros((1, 3)), (0,))
        head = ProjectionHead(np.eye(3))
        cfg = ReflectionConfig(entropy_weight=1.0, steps=5, backtracking=True)
        corr = optimize_delta(acts, head, cfg)
        assert corr.steps_taken <= 1 and not corr.aborted


def reference_optimize(acts, head, config, grad_fn=grad_hybrid):
    """optimize_delta's loop written with public grad_hybrid/loss_ce/loss_aem
    calls, each of which builds its own context-loss terms. Returns the final
    delta, the trajectory and the abort flag."""
    w = config.entropy_weight

    def project(d):
        n = float(np.linalg.norm(d))
        if config.trust_radius is not None and n > config.trust_radius:
            return d * (config.trust_radius / n)
        return d

    def ridge(f, d):
        return f + 0.5 * config.reg_gamma * float(d @ d) if config.reg_gamma else f

    def finite(report, grad):
        return (math.isfinite(report.l_ce) and math.isfinite(report.l_aem)
                and bool(np.all(np.isfinite(grad))))

    delta = np.zeros(head.hidden_dim)
    grad, report = grad_fn(acts, head, delta, config)
    trajectory = [report]
    if not finite(report, grad):
        return np.zeros(head.hidden_dim), trajectory, True
    for _ in range(config.steps):
        direction = grad
        n = float(np.linalg.norm(direction))
        if config.grad_clip is not None and n > config.grad_clip:
            direction = direction * (config.grad_clip / n)
        step = config.learning_rate
        if config.backtracking:
            current = ridge(report.f_lambda, delta)
            for _ in range(21):
                trial = project(delta - step * direction)
                trial_obj = ridge((1.0 - w) * loss_ce(acts, head, trial, config.ce_scope)
                                  + w * loss_aem(acts, head, trial, config.loss_temperature),
                                  trial)
                if not math.isfinite(trial_obj):
                    return np.zeros(head.hidden_dim), trajectory, True
                if trial_obj <= current:
                    break
                step *= 0.5
            else:
                break
            delta = trial
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                delta = project(delta - step * direction)
        grad, report = grad_fn(acts, head, delta, config)
        trajectory.append(replace(report, step_size=step))
        if not finite(report, grad):
            return np.zeros(head.hidden_dim), trajectory, True
        if config.backtracking and current - trial_obj <= 1e-12:
            break
    return delta, trajectory, False


def assert_matches_reference(corr, acts, head, config, grad_fn=grad_hybrid):
    delta, trajectory, aborted = reference_optimize(acts, head, config, grad_fn)
    assert corr.aborted == aborted
    assert repr(corr.trajectory) == repr(trajectory)  # repr: NaN reports compare equal
    assert corr.steps_taken == len(trajectory) - 1
    assert corr.delta.tobytes() == delta.tobytes()


SCOPES = ("full-prefix", "generated-only", "last-3")
# (trust_radius, reg_gamma, grad_clip) beside the defaults (None, 0.0, 100.0)
CONSTRAINTS = ((0.5, 0.0, 100.0), (None, 0.1, 0.5), (0.5, 0.1, None))


class TestSharedContextTerms:
    """optimize_delta builds the context-loss terms once and shares them; the
    result must be the same, bit for bit, as recomputing them at every call."""

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("backtracking", [False, True])
    def test_trajectory_equals_uncached_reference(self, scope, backtracking):
        self.check_against_reference(scope, backtracking, None, 0.0, 100.0)

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("backtracking", [False, True])
    @pytest.mark.parametrize("trust_radius, reg_gamma, grad_clip", CONSTRAINTS)
    def test_constrained_trajectory_equals_uncached_reference(
            self, scope, backtracking, trust_radius, reg_gamma, grad_clip):
        self.check_against_reference(scope, backtracking, trust_radius, reg_gamma, grad_clip)

    @staticmethod
    def check_against_reference(scope, backtracking, trust_radius, reg_gamma, grad_clip):
        rng = np.random.default_rng(2 * SCOPES.index(scope) + backtracking)
        for _ in range(4):
            acts, head = random_case(rng, 6, 11, 9)
            acts = make_acts(acts.hidden, acts.tokens, prompt_len=4)
            cfg = ReflectionConfig(entropy_weight=0.3, steps=5, learning_rate=3.0,
                                   ce_scope=scope, backtracking=backtracking,
                                   trust_radius=trust_radius, reg_gamma=reg_gamma,
                                   grad_clip=grad_clip)
            corr = optimize_delta(acts, head, cfg)
            assert not corr.aborted
            assert_matches_reference(corr, acts, head, cfg)

    def test_non_finite_trial_objective_aborts(self):
        # the first trial is finite in delta, but its logits overflow once
        # divided by the tiny loss temperature
        acts = make_acts([[1.0, 0.0], [0.5, 0.2], [0.1, 0.3]], (0, 1, 0))
        head = ProjectionHead(np.eye(2))
        cfg = ReflectionConfig(entropy_weight=0.5, steps=3, learning_rate=1e12,
                               loss_temperature=1e-300, backtracking=True)
        corr = optimize_delta(acts, head, cfg)
        assert corr.aborted and corr.steps_taken == 0
        assert np.array_equal(corr.delta, np.zeros(2))
        assert_matches_reference(corr, acts, head, cfg)

    @pytest.mark.parametrize("backtracking", [False, True])
    def test_non_finite_gradient_at_an_accepted_point_aborts(self, monkeypatch, backtracking):
        def poisoned(kernel, at):
            """kernel (grad_hybrid, or the row kernel the inner loop calls),
            with the first gradient entry of its at-th call made NaN."""
            calls = []

            def grad_fn(*args, **kwargs):
                grad, report = kernel(*args, **kwargs)
                calls.append(1)
                if len(calls) == at:
                    grad = grad.copy()
                    grad[..., 0] = math.nan
                return grad, report
            return grad_fn

        rng = np.random.default_rng(37)
        acts, head = random_case(rng, 4, 7, 6)
        cfg = ReflectionConfig(steps=4, learning_rate=0.5, backtracking=backtracking)
        monkeypatch.setattr(optimizer, "_grad_rows", poisoned(optimizer._grad_rows, 3))
        corr = optimize_delta(acts, head, cfg)
        assert corr.aborted and corr.steps_taken == 2
        assert np.array_equal(corr.delta, np.zeros(4))
        assert_matches_reference(corr, acts, head, cfg, poisoned(grad_hybrid, 3))

    def test_no_descending_halving_stays_put(self):
        # every halving of a huge step still overshoots the context loss
        acts = make_acts([[1.0, 0.0], [0.5, 0.2], [0.1, 0.3]], (0, 1, 0))
        head = ProjectionHead(np.eye(2))
        cfg = ReflectionConfig(entropy_weight=0.0, steps=3, learning_rate=1e9,
                               backtracking=True, grad_clip=None)
        corr = optimize_delta(acts, head, cfg)
        assert not corr.aborted and corr.steps_taken == 0
        assert np.array_equal(corr.delta, np.zeros(2))
        assert_matches_reference(corr, acts, head, cfg)

    @pytest.mark.parametrize("scope", SCOPES)
    def test_loss_ce_equals_grad_hybrid_report(self, scope):
        rng = np.random.default_rng(29)
        for _ in range(10):
            acts, head = random_case(rng, 5, 8, 7)
            acts = make_acts(acts.hidden, acts.tokens, prompt_len=3)
            delta = rng.standard_normal(5)
            _, report = grad_hybrid(acts, head, delta, ReflectionConfig(ce_scope=scope))
            assert loss_ce(acts, head, delta, scope) == report.l_ce

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_base_projection_once_per_correction(self, monkeypatch, steps):
        built, trials = [], []
        build, trial = optimizer._context_terms, optimizer._trial_rows

        def counting_build(*args):
            built.append(1)
            return build(*args)

        def counting_trial(*args, **kwargs):
            trials.append(1)
            return trial(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_context_terms", counting_build)
        monkeypatch.setattr(optimizer, "_trial_rows", counting_trial)
        rng = np.random.default_rng(31)
        acts, head = random_case(rng, 4, 9, 8)
        # a long first step forces backtracking to halve, so trials outnumber steps
        cfg = ReflectionConfig(steps=steps, learning_rate=50.0, backtracking=True)
        corr = optimize_delta(acts, head, cfg)
        assert not corr.aborted
        assert len(built) == 1
        assert len(trials) > corr.steps_taken or steps == 0

    def test_loss_gradients_validates_its_arguments(self):
        acts = make_acts(np.zeros((3, 2)), (0, 1, 0))
        head = ProjectionHead(np.eye(2))
        with pytest.raises(InputError):
            loss_gradients(acts, head, np.zeros(2), ce_scope="last-0")
        with pytest.raises(InputError):
            loss_gradients(acts, head, np.zeros(2), loss_temperature=0.0)


def outcome(corr):
    """Everything a correction returns, as one string (repr: NaN reports compare equal)."""
    return repr((corr.delta.tobytes(), corr.steps_taken, corr.aborted, repr(corr.trajectory)))


def stop_reason(corr, config):
    """How a correction's loop ended (ridge-free configs)."""
    last = corr.trajectory[-1]
    if corr.aborted:
        finite = all(map(math.isfinite, (last.l_ce, last.l_aem, last.grad_norm)))
        return "abort at a trial" if finite else "abort at a gradient"
    if corr.steps_taken == config.steps:
        return "step budget"
    if len(corr.trajectory) > 1 and corr.trajectory[-2].f_lambda - last.f_lambda <= 1e-12:
        return "early stop"
    return "no descent"


def overflow_groups(count, seed):
    """Seeded groups of rows sharing a head, a config and a |scope| length,
    with per-row weights: heads scaled up to 300, learning rates up to 1e306,
    loss temperatures down to 1e-300."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim, vocab, plen = (int(rng.integers(1, 7)), int(rng.integers(2, 9)),
                            int(rng.integers(1, 8)))
        scale = float(rng.choice([1.0, 30.0, 300.0]))
        head = ProjectionHead(rng.standard_normal((vocab, dim)) * scale)
        prompt_len = int(rng.integers(1, plen + 1))
        rows = [make_acts(rng.standard_normal((plen, dim)), rng.integers(0, vocab, size=plen),
                          prompt_len=prompt_len) for _ in range(int(rng.integers(1, 4)))]
        huge = bool(rng.integers(2))
        config = ReflectionConfig(
            entropy_weight=float(rng.choice([0.0, 0.05, 0.5, 1.0])),
            steps=int(rng.integers(0, 5)),
            learning_rate=float(10.0 ** rng.uniform(290, 306) if huge else 10.0 ** rng.uniform(-3, 1)),
            loss_temperature=float(rng.choice([1.0, 0.3, 1e-300])),
            ce_scope=str(rng.choice(["full-prefix", "generated-only", "last-1", "last-3"])),
            trust_radius=[None, 0.5, 1e300][int(rng.integers(3))],
            reg_gamma=float(rng.choice([0.0, 0.1, 1e10])),
            backtracking=bool(rng.integers(2)),
            grad_clip=[None, 0.5, 100.0][int(rng.integers(3))])
        weights = [float(rng.choice([0.0, 0.05, 0.3, 0.5, 1.0])) for _ in rows]
        yield rows, head, config, weights


# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

# sha256 of the outcome() of every row of overflow_groups(150, 20261018), each
# corrected alone, recorded with the one-row inner loop that preceded
# optimize_rows (warnings suppressed there: 50 of the 297 rows warned),
# re-recorded when the context loss became factorized (the same steps and
# aborts, floats moved by rounding), and again when its loss was clamped at 0
# (4 trajectory l_ce values of 3 rows, and their f_lambda, went from below 0
# to 0.0)
OVERFLOW_PIN = "29170c3eb8c5dcd95b45ad20d535751e5e5b536328caf21a6472614e018ca745"


class TestRowBatchedLoop:
    """optimize_rows advances many rows together; each row's Correction must
    equal optimize_delta's and the reference loop's for it alone."""

    def test_overflowing_inputs_abort_silently(self):
        # runs under pyproject's error::RuntimeWarning filter, so a warning
        # leaking from the loop fails the test
        digest, aborted = hashlib.sha256(), 0
        for rows, head, config, weights in overflow_groups(150, 20261018):
            batched = optimize_rows(rows, head, config, weights)
            for acts, weight, corr in zip(rows, weights, batched):
                alone = optimize_delta(acts, head, replace(config, entropy_weight=weight))
                assert outcome(corr) == outcome(alone)
                digest.update(outcome(alone).encode())
                aborted += alone.aborted
        assert aborted == 18
        assert digest.hexdigest() == OVERFLOW_PIN, where(RECORDED_ON)

    @pytest.mark.parametrize("head_scale, learning_rate, rows, reasons", [
        # a huge step: rows stop early, find no descending step, take the
        # full budget, or abort on a NaN prompt state
        (30.0, 1e6, ((1e-3, 1.0), (1.0, 0.0), (30.0, 0.3), (math.nan, 0.3)),
         ["early stop", "no descent", "step budget", "abort at a gradient"]),
        # every trial of a moving row overflows; a stationary row stops early
        (300.0, 1e306, ((0.0, 1.0), (1.0, 0.3), (1e-3, 1.0)),
         ["early stop", "abort at a trial", "abort at a trial"]),
    ])
    def test_a_group_mixes_every_stop(self, head_scale, learning_rate, rows, reasons):
        rng = np.random.default_rng(6)
        head = ProjectionHead(np.eye(2) * head_scale)
        config = ReflectionConfig(steps=3, learning_rate=learning_rate, backtracking=True,
                                  grad_clip=None)
        prefixes = []
        for scale, _ in rows:
            hidden = (1.0 if math.isnan(scale) else scale) * rng.standard_normal((3, 2))
            if math.isnan(scale):
                hidden[0, 0] = math.nan
            prefixes.append(make_acts(hidden, (0, 1, 0)))
        weights = [w for _, w in rows]
        batched = optimize_rows(prefixes, head, config, weights)
        assert [stop_reason(corr, config) for corr in batched] == reasons
        for acts, weight, corr in zip(prefixes, weights, batched):
            assert_each_row_matches(corr, acts, head, replace(config, entropy_weight=weight))

    def test_rows_must_share_a_scope_length(self):
        head = ProjectionHead(np.eye(2))
        rows = [make_acts(np.zeros((3, 2)), (0, 1, 0)), make_acts(np.zeros((4, 2)), (0, 1, 0, 1))]
        with pytest.raises(InputError, match="one .scope. length"):
            optimize_rows(rows, head, ReflectionConfig(), [0.05, 0.05])
        with pytest.raises(InputError, match="one entropy weight per prefix"):
            optimize_rows(rows[:1], head, ReflectionConfig(), [0.05, 0.05])
        with pytest.raises(InputError, match="at least one prefix"):
            optimize_rows([], head, ReflectionConfig(), [])
        with pytest.raises(InputError, match="must lie in"):
            optimize_rows(rows[:1], head, ReflectionConfig(), [1.5])


def assert_each_row_matches(corr, acts, head, config):
    """corr, one row of a batched correction, equals optimize_delta and the
    reference loop for that row alone, bit for bit."""
    assert outcome(corr) == outcome(optimize_delta(acts, head, config))
    with np.errstate(all="ignore"):  # the reference's own overflow warnings are not the subject
        assert_matches_reference(corr, acts, head, config)


@st.composite
def correction_groups(draw):
    """A head, a config and 2-5 rows of one |scope| length, each with its own
    weight and hidden-state scale, drawn from one seed so that rows of a group
    differ: zero states are stationary under pure sharpening, a NaN prompt
    state aborts its row when it is in scope, and the largest steps overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = (lambda options: options[int(rng.integers(len(options)))])
    dim, vocab, plen = int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(1, 7))
    head = ProjectionHead(rng.standard_normal((vocab, dim)) * pick([1.0, 30.0, 300.0]))
    prompt_len = int(rng.integers(1, plen + 1))
    config = ReflectionConfig(
        steps=pick([0, 1, 2, 3, 4, 4]),
        learning_rate=pick([0.5, 3.0, 1e6, 1e306]),
        loss_temperature=pick([1.0, 0.5]),
        ce_scope=draw(st.sampled_from(["full-prefix", "generated-only", "last-1", "last-3"])),
        backtracking=pick([True, True, False]),
        trust_radius=pick([None, None, 0.5]),
        reg_gamma=pick([0.0, 0.0, 0.1]),
        grad_clip=pick([None, 0.5, 100.0]))
    rows, weights = [], []
    for _ in range(int(rng.integers(2, 6))):
        scale = pick([0.0, 1e-3, 1.0, 1.0, 30.0, math.nan])
        hidden = (1.0 if math.isnan(scale) else scale) * rng.standard_normal((plen, dim))
        if math.isnan(scale):
            hidden[0, 0] = math.nan
        rows.append(make_acts(hidden, rng.integers(0, vocab, size=plen), prompt_len=prompt_len))
        weights.append(pick([0.0, 0.05, 0.3, 1.0]))
    return rows, head, config, weights


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(correction_groups())
def test_each_batched_row_equals_its_one_row_correction(group):
    rows, head, config, weights = group
    for acts, weight, corr in zip(rows, weights, optimize_rows(rows, head, config, weights)):
        assert_each_row_matches(corr, acts, head, replace(config, entropy_weight=weight))
        # a finite delta inside the trust region, or an abort with delta = 0
        assert np.isfinite(corr.delta).all()
        if config.trust_radius is not None:
            assert float(np.linalg.norm(corr.delta)) <= config.trust_radius * (1 + 1e-12)


@st.composite
def factor_groups(draw):
    """(rows, head, scope, deltas, expected fallback mask): R <= 4 rows of one
    prefix length over V <= 16, an identity or a dense head. A row of kind
    'underflow' has base logits 0 at one token and -800 elsewhere and a delta
    -800 everywhere but another token, so every den_t underflows to 0; a row
    of kind 'non-finite' has an inf or NaN in its delta."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vocab = draw(st.integers(2, 16))
    identity = draw(st.booleans())
    dim = vocab if identity else draw(st.integers(1, 6))
    head = ProjectionHead(np.eye(vocab) if identity
                          else rng.standard_normal((vocab, dim)) / math.sqrt(dim))
    plen = draw(st.integers(1, 9))
    prompt_len = draw(st.integers(1, plen))
    scope = draw(st.sampled_from(("full-prefix", "generated-only", "last-1", "last-3")))
    kinds = draw(st.lists(st.sampled_from(("plain", "plain", "non-finite")
                                          + (("underflow",) if identity else ())),
                          min_size=1, max_size=4))
    rows, deltas = [], []
    for kind in kinds:
        hidden = rng.standard_normal((plen, dim))
        delta = draw(st.sampled_from((0.0, 0.3, 3.0))) * rng.standard_normal(dim)
        if kind == "underflow":
            hidden = np.full((plen, dim), -800.0)
            hidden[:, 0] = 0.0
            delta = np.full(dim, -800.0)
            delta[1] = 0.0
        elif kind == "non-finite":
            delta[int(rng.integers(dim))] = draw(st.sampled_from((math.inf, -math.inf, math.nan)))
        rows.append(make_acts(hidden, rng.integers(0, vocab, size=plen), prompt_len=prompt_len))
        deltas.append(delta)
    expected = np.array([kind != "plain" for kind in kinds]) & bool(ce_positions(rows[0], scope))
    return rows, head, scope, np.array(deltas), expected


def same_bits(a, b) -> bool:
    """Bitwise equal, but for a NaN's sign and payload, which the direct
    kernel's SIMD loops do not keep from one block shape to another."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(factor_groups())
def test_factorized_context_loss_agrees_with_the_direct_kernel(group):
    rows, head, scope, deltas, expected = group
    context = optimizer._ContextFactors(rows, head, scope)
    terms = optimizer._stack_terms([optimizer._context_terms(a, head, scope) for a in rows])
    for grad in (False, True):
        l_ce, g_ce, fallback = optimizer._factored_rows(context, deltas, grad)
        want_l, want_g = optimizer._context_rows(head, terms, deltas, grad)
        assert np.array_equal(fallback, expected)
        for r in range(len(rows)):
            if fallback[r]:  # the direct kernel's own result
                assert same_bits(l_ce[r], want_l[r])
                assert grad is False or same_bits(g_ce[r], want_g[r])
            else:
                assert abs(l_ce[r] - want_l[r]) <= 1e-13 * abs(want_l[r])
                if grad:
                    assert np.abs(g_ce[r] - want_g[r]).max() <= 1e-12 * np.abs(want_g[r]).max()
            # a batched row equals its one-row call, bit for bit
            one_l, one_g, one_fallback = optimizer._factored_rows(
                optimizer._ContextFactors([rows[r]], head, scope), deltas[r:r + 1], grad)
            assert same_bits(one_l[0], l_ce[r])
            assert one_fallback[0] == fallback[r]
            assert grad is False or same_bits(one_g[0], g_ce[r])


def test_context_loss_near_zero_is_not_negative():
    # each target logit leads the others by 40-60 (identity head), so every
    # term is about exp(-50) and the factorized sum can round below 0, where
    # the direct kernel reads 0.0; about 4 rows in 10 did before the clamp
    head = ProjectionHead(np.eye(3))
    acts = make_acts([[0.0, -50.0, -50.0], np.zeros(3)], (0, 0))
    assert loss_ce(acts, head, [0.1, 0.3, -0.2]) == 0.0
    rng = np.random.default_rng(11)
    for _ in range(50):
        vocab, plen = int(rng.integers(3, 7)), int(rng.integers(2, 8))
        tokens = rng.integers(0, vocab, size=plen)
        hidden = -rng.uniform(40, 60, size=(plen, vocab))
        hidden[np.arange(plen - 1), tokens[1:]] = 0.0
        acts, head = make_acts(hidden, tokens), ProjectionHead(np.eye(vocab))
        deltas = 0.5 * rng.standard_normal((4, vocab))
        context = optimizer._ContextFactors([acts] * 4, head, "full-prefix")
        for grad in (False, True):
            l_ce, _, _ = optimizer._factored_rows(context, deltas, grad)
            assert (l_ce >= 0.0).all() and (l_ce < 1e-15).all()


class TestAdaptiveWeight:
    def test_fixed_point(self):
        cfg = ReflectionConfig(adaptive=AdaptiveWeightConfig(
            target=1.0, rate=0.5, min_weight=0.01, max_weight=0.9))
        assert adapt_lambda(cfg, 1.0) == pytest.approx(0.05, abs=1e-15)

    def test_formula_oracle(self):
        cfg = ReflectionConfig(adaptive=AdaptiveWeightConfig(
            target=1.0, rate=0.5, min_weight=0.01, max_weight=0.9))
        assert adapt_lambda(cfg, 2.0) == pytest.approx(
            0.08243606353500642, abs=1e-15)

    def test_clipping(self):
        cfg = ReflectionConfig(adaptive=AdaptiveWeightConfig(
            target=1.0, rate=50.0, min_weight=0.02, max_weight=0.6))
        assert adapt_lambda(cfg, 0.0) == 0.02
        assert adapt_lambda(cfg, 10.0) == 0.6

    def test_requires_adaptive_config(self):
        with pytest.raises(InputError):
            adapt_lambda(ReflectionConfig(), 1.0)
        with pytest.raises(InputError):
            adapt_lambda(ReflectionConfig(adaptive=AdaptiveWeightConfig(
                target=1.0, rate=0.5, min_weight=0.01, max_weight=0.9)),
                float("nan"))

    def test_bounds_validated(self):
        with pytest.raises(InputError):
            AdaptiveWeightConfig(target=0.0, rate=0.5, min_weight=0.1,
                                 max_weight=0.5)
        with pytest.raises(InputError):
            AdaptiveWeightConfig(target=1.0, rate=0.5, min_weight=0.5,
                                 max_weight=0.1)
        with pytest.raises(InputError):
            AdaptiveWeightConfig(target=1.0, rate=0.5, min_weight=0.1,
                                 max_weight=1.0)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            ReflectionConfig(entropy_weight=1.5)
        with pytest.raises(InputError):
            ReflectionConfig(steps=-1)
        with pytest.raises(InputError):
            ReflectionConfig(learning_rate=0.0)
        with pytest.raises(InputError):
            ReflectionConfig(loss_temperature=0.0)
        with pytest.raises(InputError):
            ReflectionConfig(trust_radius=0.0)
        with pytest.raises(InputError):
            ReflectionConfig(reg_gamma=-0.1)
        with pytest.raises(InputError):
            ReflectionConfig(grad_clip=0.0)
