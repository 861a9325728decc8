"""Transient correction-vector optimization.

At a triggered step the engine asks for a vector delta that is added to the
final hidden state before the vocabulary projection. delta minimizes a hybrid
of two objectives evaluated through the same projection head:

  * context loss (l_ce): negative log-likelihood of the already-realized
    prefix tokens when the same delta is applied to every cached hidden state;
  * sharpening loss (l_aem): entropy in nats of the corrected next-token
    distribution at loss_temperature.

The blend is f_lambda = (1 - w) * l_ce + w * l_aem with w = entropy_weight,
optionally plus a quadratic penalty (reg_gamma / 2) * ||delta||^2 that only
affects the descent objective, never the reported f_lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .backends import PrefixActivations, ProjectionHead
from .errors import InputError
from .utils import ScaledRows

_EARLY_STOP = 1e-12
_MAX_HALVINGS = 20


@dataclass(frozen=True)
class AdaptiveWeightConfig:
    """Online entropy_weight adaptation: after a correction with context loss c,
    the weight is multiplied by exp(rate * (c / target - 1)) and clipped."""

    target: float
    rate: float
    min_weight: float
    max_weight: float

    def __post_init__(self):
        if not self.target > 0:
            raise InputError("adaptive target must be positive")
        if not math.isfinite(self.rate):
            raise InputError("adaptive rate must be finite")
        if not (0 < self.min_weight <= self.max_weight < 1):
            raise InputError("adaptive bounds must satisfy 0 < min <= max < 1")


@dataclass(frozen=True)
class ReflectionConfig:
    entropy_weight: float = 0.05
    steps: int = 3
    learning_rate: float = 0.01
    loss_temperature: float = 1.0
    ce_scope: str = "full-prefix"
    trust_radius: float | None = None
    reg_gamma: float = 0.0
    backtracking: bool = False
    grad_clip: float | None = 100.0
    adaptive: AdaptiveWeightConfig | None = None

    def __post_init__(self):
        if not 0.0 <= self.entropy_weight <= 1.0:
            raise InputError("entropy_weight must lie in [0, 1]")
        if self.steps < 0 or int(self.steps) != self.steps:
            raise InputError("steps must be a non-negative integer")
        if not self.learning_rate > 0:
            raise InputError("learning_rate must be positive")
        if not self.loss_temperature > 0:
            raise InputError("loss_temperature must be positive")
        parse_ce_scope(self.ce_scope)
        if self.trust_radius is not None and not self.trust_radius > 0:
            raise InputError("trust_radius must be positive when set")
        if self.reg_gamma < 0:
            raise InputError("reg_gamma must be non-negative")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise InputError("grad_clip must be positive when set")


def parse_ce_scope(scope: str) -> tuple[str, int | None]:
    """Normalize a context-loss scope: 'full-prefix', 'generated-only', or 'last-M'."""
    if scope == "full-prefix":
        return "full", None
    if scope == "generated-only":
        return "generated", None
    if isinstance(scope, str) and scope.startswith("last-"):
        try:
            m = int(scope[5:])
        except ValueError:
            m = 0
        if m >= 1:
            return "last", m
    raise InputError(f"unknown ce_scope: {scope!r}")


def ce_positions(acts: PrefixActivations, scope: str) -> list[int]:
    """Indices i whose hidden state predicts the realized token at i+1."""
    kind, m = parse_ce_scope(scope)
    t = len(acts)
    last = t - 1  # position t-1 predicts the unseen next token: excluded
    if kind == "full":
        lo = 0
    elif kind == "generated":
        lo = max(0, acts.prompt_len - 1)
    else:
        lo = max(0, last - m)
    return list(range(lo, last))


@dataclass(frozen=True)
class HybridLossReport:
    """Loss diagnostics at one point of an optimization trajectory.

    entropy_weight is the blend weight w the losses were blended with.
    step_size is the accepted step that arrived here (0.0 for the start point).
    """

    l_ce: float
    l_aem: float
    f_lambda: float
    grad_norm: float
    grad_cos: float
    entropy_weight: float
    step_size: float = 0.0

    @property
    def implied_alpha(self) -> float:
        """The constraint multiplier (1-w)/w equivalent to the blend weight
        (math.inf at w=0)."""
        w = self.entropy_weight
        return (1.0 - w) / w if w > 0 else math.inf

    @property
    def implied_epsilon(self) -> float:
        """The context-loss level l_ce: the fidelity budget certified if this
        point is the minimizer."""
        return self.l_ce


@dataclass
class Correction:
    delta: np.ndarray
    trajectory: list[HybridLossReport] = field(default_factory=list)
    steps_taken: int = 0
    aborted: bool = False


def _context_terms(acts, head, scope):
    """The parts of the context loss that do not depend on delta: row indices,
    realized targets and base logits H_scope @ W.T of the in-scope positions.
    Building them is the one |scope| x V x d product of a correction. An empty
    scope gives (None, None, None)."""
    positions = ce_positions(acts, scope)
    if not positions:
        return None, None, None
    hs = np.stack([acts.hidden[i] for i in positions])
    targets = np.array([acts.tokens[i + 1] for i in positions])
    return np.arange(len(positions)), targets, hs @ head.matrix.T


def _context_loss(terms, w, delta, grad: bool):
    """(l_ce, its gradient or None) at delta from precomputed context terms.

    Works in place on one |scope| x V buffer z = base + W @ delta: the target
    logits are picked, the row max subtracted and the rows exponentiated; for
    the gradient they are then divided by their sums and 1 is subtracted at
    the targets, leaving probs - onehot. A non-finite row max gives NaN.
    """
    rows, targets, base = terms
    if base is None:
        return 0.0, np.zeros(w.shape[1]) if grad else None
    with np.errstate(invalid="ignore"):  # a huge delta can turn W @ delta into NaN
        z = base + w @ delta
    picked = z[rows, targets]
    m = z.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():
        return float("nan"), np.full(w.shape[1], np.nan) if grad else None
    z -= m
    np.exp(z, out=z)
    denom = z.sum(axis=1, keepdims=True)
    lse = np.log(denom[:, 0]) + m[:, 0]
    l_ce = float(np.sum(lse - picked))
    if not grad:
        return l_ce, None
    z /= denom
    z[rows, targets] -= 1.0
    return l_ce, w.T @ z.sum(axis=0)


def _sharpening_loss(w, last_hidden, delta, tau, grad: bool = True):
    """(l_aem, its gradient or None) at delta; NaN for degenerate scaled
    logits so abort checks can fire. The value-only path is loss_aem's: it
    skips the gradient gemv and the errstate guard around the logits."""
    if grad:
        with np.errstate(invalid="ignore"):
            z = w @ (last_hidden + delta)
    else:
        z = w @ (last_hidden + delta)
    scaled = ScaledRows(z[None], tau)
    if not scaled.ok[0]:
        return float("nan"), np.full(w.shape[1], np.nan) if grad else None
    h, ls, q = scaled.entropy()
    h, ls, q = float(h[0]), ls[0], q[0]
    if not grad:
        return h, None
    gvec = np.where(q > 0.0, -q * (ls + h), 0.0)
    return h, (w.T @ gvec) / tau


def loss_ce(acts: PrefixActivations, head: ProjectionHead, delta,
            scope: str = "full-prefix", *, _terms=None) -> float:
    """Negative log-likelihood of the realized prefix under the shifted head.

    The same delta is applied to every in-scope cached hidden state. A
    single-token prefix has an empty scope and scores 0.
    """
    if _terms is None:
        _terms = _context_terms(acts, head, scope)
    delta = np.asarray(delta, dtype=np.float64)
    return _context_loss(_terms, head.matrix, delta, grad=False)[0]


def loss_aem(acts: PrefixActivations, head: ProjectionHead, delta,
             loss_temperature: float = 1.0) -> float:
    """Entropy in nats of the corrected next-token distribution at loss_temperature."""
    if not loss_temperature > 0:
        raise InputError("loss_temperature must be positive")
    delta = np.asarray(delta, dtype=np.float64)
    return _sharpening_loss(head.matrix, acts.last_hidden, delta, loss_temperature,
                            grad=False)[0]


def loss_gradients(acts: PrefixActivations, head: ProjectionHead, delta,
                   ce_scope: str = "full-prefix", loss_temperature: float = 1.0):
    """(grad of context loss, grad of sharpening loss) at delta, closed form."""
    if not loss_temperature > 0:
        raise InputError("loss_temperature must be positive")
    delta = np.asarray(delta, dtype=np.float64)
    terms = _context_terms(acts, head, ce_scope)
    _, g_ce = _context_loss(terms, head.matrix, delta, grad=True)
    _, g_aem = _sharpening_loss(head.matrix, acts.last_hidden, delta, loss_temperature)
    return g_ce, g_aem


def grad_hybrid(acts: PrefixActivations, head: ProjectionHead, delta,
                config: ReflectionConfig, *, _terms=None) -> tuple[np.ndarray, HybridLossReport]:
    """Exact gradient of the descent objective (blend + quadratic penalty) at delta,
    with a full loss report. Gradient clipping is an optimize_delta concern, not
    applied here, so finite-difference checks see the analytic gradient."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (head.hidden_dim,):
        raise InputError(f"delta must have shape ({head.hidden_dim},)")
    if _terms is None:
        _terms = _context_terms(acts, head, config.ce_scope)
    w = config.entropy_weight
    l_ce, g_ce = _context_loss(_terms, head.matrix, delta, grad=True)
    l_aem, g_aem = _sharpening_loss(head.matrix, acts.last_hidden, delta,
                                    config.loss_temperature)
    grad = (1.0 - w) * g_ce + w * g_aem
    if config.reg_gamma:
        grad = grad + config.reg_gamma * delta
    n_ce = float(np.linalg.norm(g_ce))
    n_aem = float(np.linalg.norm(g_aem))
    cos = float(g_ce @ g_aem / (n_ce * n_aem)) if n_ce > 0 and n_aem > 0 else 0.0
    report = HybridLossReport(
        l_ce=l_ce, l_aem=l_aem, f_lambda=(1.0 - w) * l_ce + w * l_aem,
        grad_norm=float(np.linalg.norm(grad)), grad_cos=cos, entropy_weight=w)
    return grad, report


def _objective(report: HybridLossReport, delta, config) -> float:
    obj = report.f_lambda
    if config.reg_gamma:
        obj += 0.5 * config.reg_gamma * float(delta @ delta)
    return obj


def _project(delta, config):
    if config.trust_radius is None:
        return delta
    n = float(np.linalg.norm(delta))
    if n > config.trust_radius:
        return delta * (config.trust_radius / n)
    return delta


def _losses_only(acts, head, delta, config, terms):
    c = loss_ce(acts, head, delta, config.ce_scope, _terms=terms)
    a = loss_aem(acts, head, delta, config.loss_temperature)
    w = config.entropy_weight
    return (1.0 - w) * c + w * a


def optimize_delta(acts: PrefixActivations, head: ProjectionHead,
                   config: ReflectionConfig) -> Correction:
    """Run the inner reflection loop from delta = 0.

    Plain mode takes exactly `steps` gradient steps at learning_rate. With
    backtracking the step is halved (at most 20 times) until the objective does
    not increase, and the loop stops early once the decrease falls to 1e-12.
    The direction is norm-clipped at grad_clip; delta is projected back onto
    the trust-region ball after every update. Any non-finite loss aborts the
    whole correction: the caller gets delta = 0 and an abort flag, and decoding
    proceeds uncorrected. The context-loss terms, base logits included, are
    built once and shared by every gradient and every backtracking trial.
    """
    dim = head.hidden_dim
    terms = _context_terms(acts, head, config.ce_scope)
    delta = np.zeros(dim)
    trajectory: list[HybridLossReport] = []

    def aborted():
        return Correction(np.zeros(dim), trajectory,
                          steps_taken=max(0, len(trajectory) - 1), aborted=True)

    grad, report = grad_hybrid(acts, head, delta, config, _terms=terms)
    trajectory.append(report)
    if not (math.isfinite(report.l_ce) and math.isfinite(report.l_aem)
            and np.all(np.isfinite(grad))):
        return aborted()

    for _ in range(config.steps):
        direction = grad
        n = float(np.linalg.norm(direction))
        if config.grad_clip is not None and n > config.grad_clip:
            direction = direction * (config.grad_clip / n)

        if config.backtracking:
            current = _objective(report, delta, config)
            step = config.learning_rate
            candidate = None
            for _ in range(_MAX_HALVINGS + 1):
                trial = _project(delta - step * direction, config)
                trial_obj = _losses_only(acts, head, trial, config, terms)
                if config.reg_gamma:
                    trial_obj += 0.5 * config.reg_gamma * float(trial @ trial)
                if not math.isfinite(trial_obj):
                    return aborted()
                if trial_obj <= current:
                    candidate = (trial, step, trial_obj)
                    break
                step *= 0.5
            if candidate is None:
                break  # no non-increasing step inside the budget: stay put
            delta, step, new_obj = candidate
            grad, report = grad_hybrid(acts, head, delta, config, _terms=terms)
            trajectory.append(replace(report, step_size=step))
            if not (math.isfinite(report.l_ce) and math.isfinite(report.l_aem)
                    and np.all(np.isfinite(grad))):
                return aborted()
            if current - new_obj <= _EARLY_STOP:
                break
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                delta = _project(delta - config.learning_rate * direction, config)
            grad, report = grad_hybrid(acts, head, delta, config, _terms=terms)
            trajectory.append(replace(report, step_size=config.learning_rate))
            if not (math.isfinite(report.l_ce) and math.isfinite(report.l_aem)
                    and np.all(np.isfinite(grad))):
                return aborted()

    return Correction(delta, trajectory, steps_taken=len(trajectory) - 1, aborted=False)


def adapt_lambda(config: ReflectionConfig, observed_l_ce: float) -> float:
    """Next entropy_weight after observing a correction's context loss."""
    if config.adaptive is None:
        raise InputError("adaptive weight update requested without adaptive config")
    if not (math.isfinite(observed_l_ce) and observed_l_ce >= 0):
        raise InputError("observed context loss must be finite and non-negative")
    a = config.adaptive
    w = config.entropy_weight * math.exp(a.rate * (observed_l_ce / a.target - 1.0))
    return min(a.max_weight, max(a.min_weight, w))
