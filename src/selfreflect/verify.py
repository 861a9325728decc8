"""Numerical verification of the optimizer's claimed properties.

Everything here treats the loss pair (context loss, sharpening loss) as an
abstract LossInstance so the same checks run against real prefix losses and
against synthetic quadratics with known minimizers:

  * check_theorem1: the minimizer of the blended objective at weight w is
    also a minimizer of the sharpening loss subject to keeping the context
    loss at or below its own achieved level. Verified by brute force over a
    dense grid. If delta* beats every grid candidate on the blend, algebra
    says no feasible candidate can beat it on the sharpening loss, so any
    violation exposes an implementation inconsistency.
  * check_tradeoff_bounds: two blend weights w1 < w2 bracket the achievable
    exchange rate between the losses at their respective minimizers.
  * check_joint_descent: when the two loss gradients are acutely aligned, a
    small enough blended step strictly decreases both losses at once.
  * check_overhead_model: reflective decoding costs baseline plus roughly
    (inner steps taken) x (a constant per-step optimizer cost).

Suites wrap these checks over seeded batches of random instances and return
SuiteReports the CLI can render and gate on.
"""

from __future__ import annotations

import io
import csv
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .backends import ModelBackend, PrefixActivations, ProjectionHead
from .engine import DecodeConfig, DecodeTrace, SamplingConfig, decode
from .errors import InputError
from .harness import build_spike_backend
from .monitor import TriggerConfig
# loss_gradients is not called here; it stays importable as
# verify.loss_gradients, a name perfbench/tracing.py wraps
from .optimizer import (Correction, ReflectionConfig, _context_loss,
                        _context_terms, _sharpening_loss, loss_aem, loss_ce,
                        loss_gradients)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --- loss instances ---------------------------------------------------------

@dataclass
class LossInstance:
    """A (context loss, sharpening loss) pair over R^dim.

    `batch` vectorizes evaluation over a (C, dim) array of candidates and
    returns (ce values, aem values); when absent a Python loop stands in.
    `g_ce`/`g_aem` are analytic gradients; central differences stand in.
    """

    dim: int
    f_ce: Callable[[np.ndarray], float]
    f_aem: Callable[[np.ndarray], float]
    g_ce: Callable[[np.ndarray], np.ndarray] | None = None
    g_aem: Callable[[np.ndarray], np.ndarray] | None = None
    batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    label: str = "instance"

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim < 1:
            raise InputError(f"loss instance needs dim >= 1, got {self.dim!r}")

    def ce(self, delta) -> float:
        return float(self.f_ce(np.asarray(delta, dtype=np.float64)))

    def aem(self, delta) -> float:
        return float(self.f_aem(np.asarray(delta, dtype=np.float64)))

    def hybrid(self, delta, weight: float) -> float:
        return (1.0 - weight) * self.ce(delta) + weight * self.aem(delta)

    def gradients(self, delta, fd_step: float = 1e-6):
        delta = np.asarray(delta, dtype=np.float64)
        g1 = self.g_ce(delta) if self.g_ce is not None \
            else _central_diff(self.f_ce, delta, fd_step)
        g2 = self.g_aem(delta) if self.g_aem is not None \
            else _central_diff(self.f_aem, delta, fd_step)
        return np.asarray(g1, dtype=np.float64), np.asarray(g2, dtype=np.float64)

    def batch_eval(self, deltas: np.ndarray):
        deltas = np.asarray(deltas, dtype=np.float64)
        if self.batch is not None:
            ce, aem = self.batch(deltas)
            return np.asarray(ce, dtype=np.float64), np.asarray(aem, dtype=np.float64)
        ce = np.array([self.ce(d) for d in deltas])
        aem = np.array([self.aem(d) for d in deltas])
        return ce, aem


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _central_diff(f, x, h):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def quadratic_instance(a, b, label: str = "quadratic") -> LossInstance:
    """ce = ||d - a||^2, aem = ||d - b||^2; the blend's minimizer is the
    convex combination (1-w) a + w b, handy as a closed-form oracle."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("quadratic anchors must be 1-d and congruent")

    def batch(deltas):
        return (((deltas - a) ** 2).sum(axis=1), ((deltas - b) ** 2).sum(axis=1))

    return LossInstance(
        dim=len(a),
        f_ce=lambda d: float(((d - a) ** 2).sum()),
        f_aem=lambda d: float(((d - b) ** 2).sum()),
        g_ce=lambda d: 2.0 * (d - a),
        g_aem=lambda d: 2.0 * (d - b),
        batch=batch, label=label)


def prefix_instance(acts: PrefixActivations, head: ProjectionHead,
                    loss_temperature: float = 1.0,
                    ce_scope: str = "full-prefix",
                    label: str = "prefix") -> LossInstance:
    """The real decode-time losses for one cached prefix.

    The context-loss terms (targets and base logits) are built once, here, and
    shared by the scalar losses, their gradients and the vectorized batch
    evaluator, which evaluate them with the optimizer's own kernels.
    """
    if not loss_temperature > 0:
        raise InputError("loss_temperature must be positive")
    w = head.matrix
    terms = _context_terms(acts, head, ce_scope)
    _, targets, base = terms
    last = w @ acts.last_hidden
    tau = loss_temperature

    def batch(deltas):
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

    return LossInstance(
        dim=head.hidden_dim,
        f_ce=lambda d: loss_ce(acts, head, d, ce_scope, _terms=terms),
        f_aem=lambda d: loss_aem(acts, head, d, tau),
        g_ce=lambda d: _context_loss(terms, w, d, grad=True)[1],
        g_aem=lambda d: _sharpening_loss(w, acts.last_hidden, d, tau)[1],
        batch=batch, label=label)


def random_prefix_instance(rng: np.random.Generator, dim: int, vocab: int,
                           prefix_len: int, loss_temperature: float = 1.0,
                           ce_scope: str = "full-prefix") -> LossInstance:
    """Random head + random cached hiddens; the usual verification substrate."""
    if vocab < 2 or dim < 1 or prefix_len < 1:
        raise InputError("need vocab >= 2, dim >= 1, prefix_len >= 1")
    w = rng.standard_normal((vocab, dim)) / math.sqrt(dim)
    hidden = rng.standard_normal((prefix_len, dim))
    tokens = tuple(int(t) for t in rng.integers(0, vocab, size=prefix_len))
    acts = PrefixActivations(tokens, [hidden[i] for i in range(prefix_len)],
                             "synthetic")
    return prefix_instance(acts, ProjectionHead(w),
                           loss_temperature=loss_temperature,
                           ce_scope=ce_scope, label="random-prefix")


# --- brute-force minimization -----------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    lo: float = -3.0
    hi: float = 3.0
    points: int = 101

    def __post_init__(self):
        numbers = all(isinstance(b, (int, float, np.integer, np.floating))
                      for b in (self.lo, self.hi))
        if not (numbers and math.isfinite(self.lo) and math.isfinite(self.hi - self.lo)):
            raise InputError(f"grid bounds must be finite numbers with a finite "
                             f"width, got lo={self.lo!r}, hi={self.hi!r}")
        if not self.hi > self.lo:
            raise InputError("grid needs hi > lo")
        if not _is_int(self.points) or self.points < 2:
            raise InputError(f"grid needs an integer of at least 2 points per axis, "
                             f"got {self.points!r}")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)

    def count(self, dim: int) -> int:
        return self.points ** dim

    def candidates(self, dim: int) -> np.ndarray:
        axis = np.linspace(self.lo, self.hi, self.points)
        if dim == 1:
            return axis[:, None]
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, dim)


def default_grid(dim: int) -> GridSpec:
    """Densest square grid with at least 10^4 candidates for small dims."""
    if not _is_int(dim) or dim < 1:
        raise InputError(f"grid dimension must be an integer >= 1, got {dim!r}")
    points = {1: 10001, 2: 101, 3: 22}.get(dim)
    if points is None:
        points = max(2, math.ceil(10 ** (4.0 / dim)))
    return GridSpec(points=points)


def golden_min(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10, max_iter: int = 200) -> float:
    """Golden-section line search; returns the midpoint of the final bracket."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _refine(instance: LossInstance, weight: float, start: np.ndarray,
            radius: float, sweeps: int = 2) -> np.ndarray:
    """Coordinate-wise golden-section polish; never accepts a worse point, so
    the result keeps the grid argmin's blend-optimality over all candidates."""
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


def _evaluate_grid(instance, grid):
    """(candidates, ce, aem) over the grid; weight-free, so one evaluation
    serves every blend weight a check minimizes."""
    cand = grid.candidates(instance.dim)
    ce, aem = instance.batch_eval(cand)
    return cand, ce, aem


def _grid_minimizer(instance, weight, evaluated, grid, refine_sweeps):
    cand, ce, aem = evaluated
    blend = (1.0 - weight) * ce + weight * aem
    start = cand[int(np.argmin(blend))]
    if refine_sweeps > 0:
        return _refine(instance, weight, start, grid.step, sweeps=refine_sweeps)
    return np.array(start, dtype=np.float64)


# --- theorem checks ---------------------------------------------------------

@dataclass
class TheoremCheckReport:
    entropy_weight: float
    delta_star: tuple[float, ...]
    epsilon_implied: float
    aem_star: float
    candidates_tested: int
    violations: int
    worst_violation: float
    tolerance: float
    degenerate: bool
    passed: bool


def check_theorem1(instance: LossInstance, entropy_weight: float,
                   grid: GridSpec | None = None, tolerance: float = 1e-9,
                   refine_sweeps: int = 2) -> TheoremCheckReport:
    """Brute-force the constrained-optimality claim for one instance.

    delta* minimizes the blend over the grid (plus coordinate polish that only
    ever lowers the blend). epsilon is its context loss. A violation is a grid
    candidate with ce <= epsilon whose aem undercuts aem(delta*) by more than
    `tolerance`. The degenerate flag marks instances where every candidate is
    feasible, i.e. the constraint never binds and the check is vacuous.
    """
    if not 0.0 < entropy_weight <= 1.0:
        raise InputError("theorem check needs entropy_weight in (0, 1]")
    if grid is None:
        grid = default_grid(instance.dim)
    cand, ce, aem = evaluated = _evaluate_grid(instance, grid)
    delta_star = _grid_minimizer(instance, entropy_weight, evaluated, grid,
                                 refine_sweeps)
    epsilon = instance.ce(delta_star)
    aem_star = instance.aem(delta_star)

    feasible = ce <= epsilon
    margin = aem_star - aem[feasible]
    violations = int(np.sum(margin > tolerance))
    worst = float(np.max(margin)) if margin.size else 0.0
    return TheoremCheckReport(
        entropy_weight=entropy_weight,
        delta_star=tuple(float(x) for x in delta_star),
        epsilon_implied=epsilon, aem_star=aem_star,
        candidates_tested=len(cand), violations=violations,
        worst_violation=worst, tolerance=tolerance,
        degenerate=bool(np.all(feasible)),
        passed=violations == 0)


@dataclass
class TradeoffReport:
    w1: float
    w2: float
    l_ce_1: float
    l_aem_1: float
    l_ce_2: float
    l_aem_2: float
    lower_bound: float
    gap: float
    upper_bound: float
    tolerance: float
    passed: bool


def check_tradeoff_bounds(instance: LossInstance, w1: float, w2: float,
                          grid: GridSpec | None = None,
                          tolerance: float = 1e-6,
                          refine_sweeps: int = 2) -> TradeoffReport:
    """Sandwich the sharpening-loss gap between minimizers at two weights.

    With a1 = (1-w1)/w1 and a2 = (1-w2)/w2 and minimizers d1, d2:

        a1 * (ce1 - ce2)  <=  aem2 - aem1  <=  a2 * (ce1 - ce2)

    which follows from each minimizer beating the other on its own blend. To
    make that premise exact, each candidate minimizer is replaced by the best
    of the pair under its own weight before evaluating the bounds.
    """
    if not (0.0 < w1 < w2 < 1.0):
        raise InputError("tradeoff bounds need 0 < w1 < w2 < 1")
    if grid is None:
        grid = default_grid(instance.dim)
    evaluated = _evaluate_grid(instance, grid)
    d1 = _grid_minimizer(instance, w1, evaluated, grid, refine_sweeps)
    d2 = _grid_minimizer(instance, w2, evaluated, grid, refine_sweeps)
    # cross-check so F_{w1}(d1) <= F_{w1}(d2) and vice versa hold exactly
    if instance.hybrid(d2, w1) < instance.hybrid(d1, w1):
        d1 = d2
    if instance.hybrid(d1, w2) < instance.hybrid(d2, w2):
        d2 = d1
    ce1, aem1 = instance.ce(d1), instance.aem(d1)
    ce2, aem2 = instance.ce(d2), instance.aem(d2)
    a1 = (1.0 - w1) / w1
    a2 = (1.0 - w2) / w2
    lower = a1 * (ce1 - ce2)
    upper = a2 * (ce1 - ce2)
    gap = aem2 - aem1
    passed = (lower - tolerance <= gap) and (gap <= upper + tolerance)
    return TradeoffReport(w1=w1, w2=w2, l_ce_1=ce1, l_aem_1=aem1,
                          l_ce_2=ce2, l_aem_2=aem2, lower_bound=lower,
                          gap=gap, upper_bound=upper, tolerance=tolerance,
                          passed=passed)


@dataclass
class JointDescentReport:
    applicable: bool
    grad_cos: float
    step_size: float
    ce_drop: float
    aem_drop: float
    passed: bool


def check_joint_descent(instance: LossInstance, delta,
                        entropy_weight: float = 0.5,
                        learning_rate: float = 0.01,
                        max_halvings: int = 20) -> JointDescentReport:
    """When the loss gradients are acutely aligned (cosine > 0), some step
    along the blended descent direction strictly decreases both losses. Not
    applicable (and vacuously passing) when the cosine is non-positive."""
    if not (learning_rate > 0 and math.isfinite(learning_rate)):
        raise InputError("learning_rate must be positive and finite")
    if not _is_int(max_halvings) or max_halvings < 0:
        raise InputError("max_halvings must be a non-negative integer")
    delta = np.asarray(delta, dtype=np.float64)
    g1, g2 = instance.gradients(delta)
    n1, n2 = float(np.linalg.norm(g1)), float(np.linalg.norm(g2))
    cos = float(g1 @ g2 / (n1 * n2)) if n1 > 0 and n2 > 0 else 0.0
    if cos <= 0.0:
        return JointDescentReport(applicable=False, grad_cos=cos,
                                  step_size=0.0, ce_drop=0.0, aem_drop=0.0,
                                  passed=True)
    direction = (1.0 - entropy_weight) * g1 + entropy_weight * g2
    ce0, aem0 = instance.ce(delta), instance.aem(delta)
    step = learning_rate
    for _ in range(max_halvings + 1):
        probe = delta - step * direction
        ce1, aem1 = instance.ce(probe), instance.aem(probe)
        if ce1 < ce0 and aem1 < aem0:
            return JointDescentReport(applicable=True, grad_cos=cos,
                                      step_size=step, ce_drop=ce0 - ce1,
                                      aem_drop=aem0 - aem1, passed=True)
        step *= 0.5
    return JointDescentReport(applicable=True, grad_cos=cos, step_size=0.0,
                              ce_drop=0.0, aem_drop=0.0, passed=False)


# --- overhead model ---------------------------------------------------------

@dataclass
class OverheadReport:
    prompts: int
    repeats: int
    n_activations: int
    inner_steps: int
    unit_cost: float
    predicted_overhead: float
    measured_overhead: float
    relative_error: float
    inconclusive: bool


def check_overhead_model(backend: ModelBackend, prompts, config: DecodeConfig,
                         repeats: int = 3) -> OverheadReport:
    """Fit measured reflective overhead against inner_steps x unit cost.

    Greedy sampling is required so both arms decode the same tokens; at least
    10 prompts keep the medians meaningful. The unit cost is the median
    optimizer wall time per inner step observed in the reflective traces.
    """
    prompts = list(prompts)
    if len(prompts) < 10:
        raise InputError("overhead check needs at least 10 prompts")
    if config.sampling.mode != "greedy":
        raise InputError("overhead check requires greedy sampling")
    if repeats < 1:
        raise InputError("repeats must be at least 1")

    refl_cfg = replace(config, reflect=True)
    measured = 0.0
    activations = 0
    inner_steps = 0
    unit_costs: list[float] = []
    for prompt in prompts:
        diff_med, _, trace = _paired_overhead(backend, prompt, refl_cfg, repeats)
        measured += diff_med
        activations += trace.totals.n_activations
        inner_steps += trace.totals.inner_steps
        for step in trace.steps:
            corr = step.correction
            if corr is not None and corr.steps_taken >= 1:
                unit_costs.append(corr.opt_wall_time / corr.steps_taken)

    inconclusive = not unit_costs
    unit = float(np.median(unit_costs)) if unit_costs else 0.0
    predicted = unit * inner_steps
    if inconclusive or measured <= 0.0:
        rel = math.inf
        inconclusive = True
    else:
        rel = abs(predicted - measured) / measured
    return OverheadReport(prompts=len(prompts), repeats=repeats,
                          n_activations=activations, inner_steps=inner_steps,
                          unit_cost=unit, predicted_overhead=predicted,
                          measured_overhead=measured, relative_error=rel,
                          inconclusive=inconclusive)


# --- suites -----------------------------------------------------------------

@dataclass
class SuiteReport:
    name: str
    seed: int
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} (seed={self.seed}, {self.elapsed:.2f}s)"


def _suite_rng(seed):
    if not _is_int(seed) or seed < 0:
        raise InputError(f"suite seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def run_gradient_suite(seed: int = 0, count: int = 200,
                       tolerance: float = 1e-5,
                       fd_step: float = 1e-6) -> SuiteReport:
    """Central-difference check of the full descent gradient on random
    prefix instances (dims <= 16, vocab <= 32, prefix <= 8, blend weights
    spanning both pure losses)."""
    from .optimizer import grad_hybrid

    started = time.perf_counter()
    rng = _suite_rng(seed)
    weights = [0.0, 0.05, 0.5, 1.0]
    worst = 0.0
    worst_case = None
    for i in range(count):
        dim = int(rng.integers(1, 17))
        vocab = int(rng.integers(2, 33))
        plen = int(rng.integers(1, 9))
        w = weights[i % len(weights)]
        gamma = 0.1 if i % 2 else 0.0
        head = ProjectionHead(rng.standard_normal((vocab, dim)) / math.sqrt(dim))
        hidden = rng.standard_normal((plen, dim))
        tokens = tuple(int(t) for t in rng.integers(0, vocab, size=plen))
        acts = PrefixActivations(tokens, [hidden[j] for j in range(plen)],
                                 "synthetic")
        config = ReflectionConfig(entropy_weight=w, reg_gamma=gamma)
        delta = 0.1 * rng.standard_normal(dim)
        terms = _context_terms(acts, head, config.ce_scope)
        grad, _ = grad_hybrid(acts, head, delta, config, _terms=terms)

        def objective(d):
            val = ((1.0 - w) * loss_ce(acts, head, d, _terms=terms)
                   + w * loss_aem(acts, head, d))
            return val + 0.5 * gamma * float(d @ d)

        fd = _central_diff(objective, delta, fd_step)
        denom = max(float(np.linalg.norm(fd)), 1e-9)
        rel = float(np.linalg.norm(grad - fd)) / denom
        if rel > worst:
            worst = rel
            worst_case = {"index": i, "dim": dim, "vocab": vocab,
                          "prefix_len": plen, "weight": w, "gamma": gamma}
    elapsed = time.perf_counter() - started
    return SuiteReport(
        name="gradients", seed=seed, passed=worst < tolerance, elapsed=elapsed,
        details={"count": count, "max_relative_error": worst,
                 "tolerance": tolerance, "worst_case": worst_case})


def run_theorem1_suite(seed: int = 0, count: int = 100) -> SuiteReport:
    """Constrained-optimality brute force over random instances of dim 1-3,
    each searched over at least 10^4 candidates."""
    started = time.perf_counter()
    rng = _suite_rng(seed)
    violations = 0
    tested = 0
    degenerate = 0
    worst = 0.0
    for i in range(count):
        dim = (i % 3) + 1
        vocab = int(rng.integers(2, 6))
        plen = int(rng.integers(2, 5))
        weight = float(rng.uniform(0.05, 0.95))
        instance = random_prefix_instance(rng, dim, vocab, plen)
        report = check_theorem1(instance, weight)
        violations += report.violations
        tested += report.candidates_tested
        degenerate += int(report.degenerate)
        worst = max(worst, report.worst_violation)
    elapsed = time.perf_counter() - started
    return SuiteReport(
        name="theorem1", seed=seed, passed=violations == 0, elapsed=elapsed,
        details={"instances": count, "candidates_tested": tested,
                 "violations": violations, "degenerate_instances": degenerate,
                 "worst_violation": worst})


def run_tradeoff_suite(seed: int = 0, count: int = 50,
                       w1: float = 0.2, w2: float = 0.8) -> SuiteReport:
    started = time.perf_counter()
    rng = _suite_rng(seed)
    failures = 0
    worst_slack = math.inf
    for i in range(count):
        dim = (i % 2) + 1
        vocab = int(rng.integers(2, 6))
        plen = int(rng.integers(2, 5))
        instance = random_prefix_instance(rng, dim, vocab, plen)
        report = check_tradeoff_bounds(instance, w1, w2)
        if not report.passed:
            failures += 1
        slack = min(report.gap - report.lower_bound,
                    report.upper_bound - report.gap)
        worst_slack = min(worst_slack, slack)
    elapsed = time.perf_counter() - started
    return SuiteReport(
        name="tradeoff", seed=seed, passed=failures == 0, elapsed=elapsed,
        details={"instances": count, "failures": failures, "w1": w1, "w2": w2,
                 "worst_slack": worst_slack})


def run_joint_descent_suite(seed: int = 0, count: int = 50) -> SuiteReport:
    """Random acute-gradient instances must admit a joint descent step; a
    constructed opposed-gradient case must come back not applicable."""
    started = time.perf_counter()
    rng = _suite_rng(seed)
    failures = 0
    applicable = 0
    skipped = 0
    for _ in range(count):
        report = None
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            vocab = int(rng.integers(3, 9))
            plen = int(rng.integers(2, 6))
            instance = random_prefix_instance(rng, dim, vocab, plen)
            delta = 0.2 * rng.standard_normal(dim)
            probe = check_joint_descent(instance, delta)
            if probe.applicable and probe.grad_cos > 0.05:
                report = probe
                break
        if report is None:
            skipped += 1
            continue
        applicable += 1
        if not report.passed:
            failures += 1
    opposed = check_joint_descent(
        quadratic_instance((1.0, 0.0), (-1.0, 0.0)), (0.0, 0.0))
    opposed_ok = not opposed.applicable
    elapsed = time.perf_counter() - started
    return SuiteReport(
        name="joint-descent", seed=seed,
        passed=failures == 0 and opposed_ok and applicable > 0,
        elapsed=elapsed,
        details={"instances": count, "applicable": applicable,
                 "failures": failures, "skipped": skipped,
                 "opposed_case_not_applicable": opposed_ok,
                 "opposed_grad_cos": opposed.grad_cos})


def _overhead_config(steps: int, max_tokens: int) -> DecodeConfig:
    return DecodeConfig(
        trigger=TriggerConfig(),
        reflection=ReflectionConfig(steps=steps, ce_scope="last-25"),
        sampling=SamplingConfig(mode="greedy"),
        max_tokens=max_tokens, seed=0)


def _paired_overhead(backend, prompt, config, repeats):
    """Median of interleaved (reflect - baseline) wall-time differences.

    Alternating the arms inside each repeat cancels the slow clock drift that
    wrecks back-to-back medians at millisecond scales.
    """
    base_cfg = replace(config, reflect=False)
    decode(backend, prompt, base_cfg)  # warm both arms before timing
    trace = decode(backend, prompt, config)
    diffs = []
    bases = []
    for _ in range(repeats):
        b = decode(backend, prompt, base_cfg).totals.wall_time
        r = decode(backend, prompt, config).totals.wall_time
        diffs.append(r - b)
        bases.append(b)
    return float(np.median(diffs)), float(np.median(bases)), trace


def run_overhead_suite(seed: int = 0, repeats: int = 5,
                       vocab_size: int = 1024) -> SuiteReport:
    """Time reflective decodes over a grid of (activation count, inner steps)
    and fit overhead = slope * activations * steps through the origin.

    Spike fixtures pin the activation count exactly; the bounded context-loss
    window keeps the per-step optimizer cost flat across the grid, and the
    large vocabulary makes each inner step expensive enough to dwarf timer
    jitter: with the spike backends' identity head, an inner step costs four
    V x V matrix-vector products. Passing needs Pearson r > 0.9, doubling the
    work roughly doubling the overhead, and a steps=0 configuration costing
    under 5% of baseline.
    """
    started = time.perf_counter()
    spike_counts = (1, 2, 4, 8)
    step_counts = (1, 3, 5)
    backends = {}
    for n in spike_counts:
        backend, length, _ = build_spike_backend(n, vocab_size=vocab_size)
        backends[n] = (backend, length)

    xs, ys = [], []
    cells = {}
    activations_seen = {}
    for n in spike_counts:
        backend, length = backends[n]
        for steps in step_counts:
            cfg = _overhead_config(steps, length)
            overhead, _, trace = _paired_overhead(backend, (0,), cfg, repeats)
            xs.append(n * steps)
            ys.append(overhead)
            cells[(n, steps)] = overhead
            activations_seen[(n, steps)] = trace.totals.n_activations

    x = np.array(xs)
    y = np.array(ys)
    r = float(np.corrcoef(x, y)[0, 1])
    slope = float((x @ y) / (x @ x))
    fit_residual = float(np.mean(np.abs(y - slope * x)) / max(np.mean(np.abs(y)), 1e-12))

    ratios = []
    for n in (1, 2, 4):
        for steps in step_counts:
            lo, hi = cells[(n, steps)], cells[(2 * n, steps)]
            if lo > 0:
                ratios.append(hi / lo)
    doubling = float(np.median(ratios)) if ratios else math.inf

    # steps=0 cell: the diff is nearly pure timer noise around zero, so it
    # gets the longest fixture (largest denominator) and extra repeats
    backend, length = backends[8]
    cfg0 = _overhead_config(0, length)
    over0, base0, trace0 = _paired_overhead(backend, (0,), cfg0,
                                            max(repeats, 25))
    zero_frac = max(0.0, over0) / base0

    miscounted = [key for key, act in activations_seen.items() if act != key[0]]
    passed = (r > 0.9 and 1.6 <= doubling <= 2.4 and zero_frac < 0.05
              and trace0.totals.inner_steps == 0 and not miscounted)
    elapsed = time.perf_counter() - started
    return SuiteReport(
        name="overhead", seed=seed, passed=passed, elapsed=elapsed,
        details={"pearson_r": r, "slope_seconds_per_inner_step": slope,
                 "fit_relative_residual": fit_residual,
                 "doubling_ratio": doubling, "zero_step_fraction": zero_frac,
                 "cells": {f"{n}x{s}": cells[(n, s)] for n, s in cells},
                 "miscounted_cells": [f"{n}x{s}" for n, s in miscounted],
                 "repeats": repeats})


SUITES = {
    "gradients": run_gradient_suite,
    "theorem1": run_theorem1_suite,
    "tradeoff": run_tradeoff_suite,
    "joint-descent": run_joint_descent_suite,
    "overhead": run_overhead_suite,
}


# --- loss-tradeoff exports ---------------------------------------------------

@dataclass(frozen=True)
class ParetoPoint:
    entropy_weight: float
    step: int
    l_ce: float
    l_aem: float
    source: str


def pareto_from_correction(corr: Correction, entropy_weight: float,
                           source: str = "trajectory") -> list[ParetoPoint]:
    return [ParetoPoint(entropy_weight, i, rep.l_ce, rep.l_aem, source)
            for i, rep in enumerate(corr.trajectory)]


def pareto_from_trace(trace: DecodeTrace) -> list[ParetoPoint]:
    """Every optimization trajectory point recorded in a decode trace."""
    points: list[ParetoPoint] = []
    for step in trace.steps:
        corr = step.correction
        if corr is None:
            continue
        for i, rep in enumerate(corr.trajectory):
            points.append(ParetoPoint(corr.entropy_weight, i,
                                      rep.l_ce, rep.l_aem, "trajectory"))
    return points


def lambda_sweep(instance: LossInstance, weights,
                 grid: GridSpec | None = None,
                 refine_sweeps: int = 2) -> list[ParetoPoint]:
    """Loss pair at the blend minimizer for each weight: the achievable front."""
    weights = list(weights)
    if not all(0.0 < w < 1.0 for w in weights):
        raise InputError("sweep weights must lie strictly inside (0, 1)")
    if grid is None:
        grid = default_grid(instance.dim)
    evaluated = _evaluate_grid(instance, grid)
    points = []
    for w in weights:
        d = _grid_minimizer(instance, w, evaluated, grid, refine_sweeps)
        points.append(ParetoPoint(float(w), 0, instance.ce(d), instance.aem(d),
                                  "lambda-sweep"))
    return points


def export_pareto(points) -> str:
    """CSV text (entropy_weight,step,l_ce,l_aem,source) sorted by weight, step."""
    rows = sorted(points, key=lambda p: (p.entropy_weight, p.step, p.source))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["entropy_weight", "step", "l_ce", "l_aem", "source"])
    for p in rows:
        writer.writerow([repr(float(p.entropy_weight)), p.step,
                         repr(float(p.l_ce)), repr(float(p.l_aem)), p.source])
    return buf.getvalue()
