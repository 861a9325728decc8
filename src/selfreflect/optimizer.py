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

optimize_rows runs the inner loop for many prefixes at once, each with its own
blend weight, on stacked row kernels that reduce every row on its own;
optimize_delta is its one-row case, and grad_hybrid, loss_ce and loss_aem are
the one-row case of its gradient and value kernels.

The inner loop evaluates the context loss in factorized form: with
s = W @ delta, every logit base_t + s of the scope is exp(base_t - mb_t) *
exp(s - M) up to the constants mb_t = max base_t and M = max s, so the
(|scope|, V) block exp(base - mb) is built once per correction and every
gradient or trial is two gemvs over it. _context_rows, the direct kernel,
stays: a row the factorized form cannot evaluate falls back to it, and the
verification suites check against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backends import PrefixActivations, ProjectionHead
from .errors import InputError
from .utils import ScaledRows

_EARLY_STOP = 1e-12
_MAX_HALVINGS = 20
# a factorized row with a normalizer den_t below this goes direct: a den_t
# near or below the subnormal range has lost its relative precision, and
# log(0) would lose the loss altogether
_DEN_FLOOR = 1e-300


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
    """The parts of one row's context loss that do not depend on delta: the
    realized targets and the base logits H_scope @ W.T of the in-scope
    positions. Building them is the one |scope| x V x d product of a
    correction (a copy for an identity head). An empty scope gives
    (None, None)."""
    positions = ce_positions(acts, scope)
    if not positions:
        return None, None
    lo, hi = positions[0], positions[-1] + 1  # a contiguous range
    hs = np.array(acts.hidden[lo:hi])
    targets = np.array(acts.tokens[lo + 1:hi + 1])
    return targets, head.project_block(hs)


def _stack_terms(terms):
    """Rows' context terms of one |scope| length, stacked: the (R, |scope|)
    flat offsets (r * |scope| + s) * V + target of each target logit within
    the (R, |scope|, V) block, and that block of base logits; None for an
    empty scope. Rows are grouped rather than padded: a padded row would be
    summed in a different pairwise order."""
    if len(terms) > 1 and len({0 if base is None else len(base) for _, base in terms}) > 1:
        raise InputError("rows corrected together must share one |scope| length")
    targets, base = terms[0]
    if base is None:
        return None
    targets = np.array([t for t, _ in terms]) if len(terms) > 1 else targets[None]
    # the offsets, which live as long as the block, are allocated before it:
    # allocated after it they raised recall-k5's peak RSS by about 0.5 MB
    at = targets + np.arange(0, targets.size * base.shape[1], base.shape[1]).reshape(targets.shape)
    return at, np.array([b for _, b in terms]) if len(terms) > 1 else base[None]


def _dots(a, b):
    """a[r] @ b[r] for every row: one dot per row, as np.dot does for one row
    (so np.sqrt(_dots(a, a)) is np.linalg.norm of every row, bit for bit)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _context_rows(head, terms, deltas, grad: bool):
    """Each row's context loss l_ce at its delta, and with grad its gradient.

    terms are stacked context terms, one row per row of the (R, d) deltas
    (None: an empty scope, which scores 0 with a zero gradient). Works in
    place on one (R, |scope|, V) buffer z = base + W @ delta: the target
    logits are picked, the row max subtracted and the rows exponentiated; for
    the gradient they are then divided by their sums and 1 is subtracted at
    the targets, leaving probs - onehot, summed over the scope. A row with a
    non-finite max gets NaN.
    """
    if terms is None:
        return np.zeros(len(deltas)), np.zeros_like(deltas) if grad else None
    at, base = terms
    with np.errstate(all="ignore"):  # a huge delta overflows W @ delta: the row gets NaN
        z = base + head.project_rows(deltas)[:, None, :]
        flat = z.reshape(-1)
        picked = flat[at]
        m = z.max(axis=2)
        # a non-finite max leaves NaN in its position's row (inf - inf, or a
        # NaN), which reaches the row's sum and, through W.T, every entry of
        # its gradient
        z -= m[:, :, None]
        np.exp(z, out=z)
        denom = z.sum(axis=2)
        l_ce = (np.log(denom) + m - picked).sum(axis=1)
        if not grad:
            return l_ce, None
        z /= denom[:, :, None]
        flat[at] -= 1.0
        return l_ce, head.backproject_rows(z.sum(axis=1))


class _ContextFactors:
    """The factorized context terms of rows corrected together, built once
    per correction. Per row r and in-scope position t: the target's base
    logit picked, the row max mb = max_v base[r, t] and E = exp(base - mb);
    per row, how often each token is a target. E is built in place in the
    stacked base block, so a correction never holds the base logits and E
    together; a row that goes direct rebuilds its base logits with
    _context_terms."""

    __slots__ = ("head", "acts", "scope", "at", "picked", "mb", "counts", "exp_base",
                 "finite_base")

    def __init__(self, acts_list, head, scope):
        self.head, self.acts, self.scope = head, acts_list, scope
        stacked = _stack_terms([_context_terms(acts, head, scope) for acts in acts_list])
        if stacked is None:
            self.exp_base = None
            return
        at, base = stacked
        rows, scope_len, vocab = base.shape
        self.picked = base.reshape(-1)[at]
        self.mb = base.max(axis=2)
        self.finite_base = np.isfinite(self.mb).all(axis=1)
        # the targets' offsets in the (R, V) block of s = W @ delta
        self.at = at % vocab + np.arange(0, rows * vocab, vocab)[:, None]
        self.counts = np.bincount(self.at.reshape(-1), minlength=rows * vocab) \
            .reshape(rows, vocab).astype(np.float64)
        with np.errstate(all="ignore"):  # a row with a non-finite max goes direct
            base -= self.mb[:, :, None]
            np.exp(base, out=base)
        self.exp_base = base


def _factored_rows(ctx: _ContextFactors, deltas, grad: bool):
    """Each row's context loss l_ce at its delta, with grad its gradient, and
    the mask of the rows that went direct.

    With s = W @ delta, M = max s and e = exp(s - M), per row:
      den = E @ e (one gemv per row, as utils.gemv_rows runs them, so a row's
      bits do not depend on the rows beside it),
      l_ce = sum_t (log den_t + mb_t + M - picked_t - s[y_t]) and the
      gradient W.T @ (e * (E.T @ (1/den)) - counts), a second gemv.
    A row goes direct (_context_rows on its rebuilt base logits) when a max
    mb_t or M is not finite, when a den_t falls below _DEN_FLOOR (base
    [0, -800] with s = [-800, 0] gives den = 0, where the log-normalizer
    log den + mb + M is -800 + log 2), or when a sum mb_t + M leaves the
    float range, where the direct kernel's logits overflow and its loss is
    NaN. So a row's loss is finite in one form exactly when it is in the
    other. A row's loss is reported as max(l_ce, 0.0): a NaN stays NaN.
    """
    if ctx.exp_base is None:
        return (np.zeros(len(deltas)), np.zeros_like(deltas) if grad else None,
                np.zeros(len(deltas), dtype=bool))
    with np.errstate(all="ignore"):
        s = ctx.head.project_rows(deltas)
        m = s.max(axis=1)
        e = np.exp(s - m[:, None])
        den = np.matmul(ctx.exp_base, e[:, :, None])[:, :, 0]
        # grouped as the direct kernel's (log sum + max) - target logit, with
        # mb + M standing in for its max and picked + s[y] for its target
        top = ctx.mb + m[:, None]
        l_ce = ((np.log(den) + top) - (ctx.picked + s.reshape(-1)[ctx.at])).sum(axis=1)
        direct = ~(ctx.finite_base & np.isfinite(m) & (den >= _DEN_FLOOR).all(axis=1)
                   & np.isfinite(top).all(axis=1))
        g = None
        if grad:
            col = np.matmul((1.0 / den)[:, None, :], ctx.exp_base)[:, 0, :]
            ds = e * col - ctx.counts
            ds[direct] = 0.0  # replaced below; a NaN row would send the block through gemv
            g = ctx.head.backproject_rows(ds)
    if direct.any():
        fall = np.flatnonzero(direct)
        terms = _stack_terms([_context_terms(ctx.acts[r], ctx.head, ctx.scope) for r in fall])
        l_direct, g_direct = _context_rows(ctx.head, terms, deltas[fall], grad)
        l_ce[fall] = l_direct
        if grad:
            g[fall] = g_direct
    # a loss near 0 can round below it here, where the direct kernel reads 0.0
    np.maximum(l_ce, 0.0, out=l_ce)
    return l_ce, g, direct


def _sharpening_rows(head, last, deltas, tau, grad: bool):
    """Each row's sharpening loss l_aem at its delta, and with grad its
    gradient: the entropy of softmax(W @ (last + delta) / tau). A row whose
    scaled logits are degenerate gets NaN, so abort checks can fire."""
    if not grad:
        # loss_aem's and the backtracking trials' path: no gradient gemv and no
        # errstate guard of its own (optimize_rows holds one around its loop)
        h, _, _ = ScaledRows(head.project_rows(last + deltas), tau).entropy()
        return h, None
    with np.errstate(all="ignore"):
        scaled = ScaledRows(head.project_rows(last + deltas), tau)
        h, ls, q = scaled.entropy()
        g = head.backproject_rows(np.where(q > 0.0, -q * (ls + h[:, None]), 0.0)) / tau
    g[~scaled.ok] = math.nan
    return h, g


class _Rows:
    """What the losses of rows corrected together share across deltas: the
    head, the config, and per row its blend weight, its last hidden state and
    its factorized context terms. The context terms are built once per row,
    and every gradient and every backtracking trial reuses them."""

    __slots__ = ("head", "config", "weights", "last", "context")

    def __init__(self, acts_list, head, config, weights):
        self.head = head
        self.config = config
        self.weights = np.array(weights, dtype=np.float64)
        self.last = np.array([acts.last_hidden for acts in acts_list])
        self.context = _ContextFactors(acts_list, head, config.ce_scope)

    def blend(self, l_ce, l_aem):
        """f_lambda = (1 - w) * l_ce + w * l_aem of every row."""
        return (1.0 - self.weights) * l_ce + self.weights * l_aem


def _objective_rows(f_lambda, deltas, config):
    """The descent objective of each row: its blend plus the ridge term."""
    if config.reg_gamma:
        f_lambda = f_lambda + 0.5 * config.reg_gamma * _dots(deltas, deltas)
    return f_lambda


def _grad_rows(rows: _Rows, deltas, step_sizes=None):
    """Exact gradient of each row's descent objective (blend + quadratic
    penalty) at its delta, one delta per row of rows, with a full loss report
    per row; step_sizes are the accepted steps that arrived at the deltas
    (None: the start point). Gradient clipping is the inner loop's concern,
    not applied here. It runs under its caller's errstate guard."""
    config = rows.config
    l_ce, g_ce, _ = _factored_rows(rows.context, deltas, grad=True)
    l_aem, g_aem = _sharpening_rows(rows.head, rows.last, deltas, config.loss_temperature,
                                    grad=True)
    lam = rows.weights[:, None]
    grad = (1.0 - lam) * g_ce + lam * g_aem
    if config.reg_gamma:
        grad = grad + config.reg_gamma * deltas
    # |g_ce|^2, |g_aem|^2, |grad|^2 and g_ce . g_aem of every row, one stacked product
    dots = _dots(np.concatenate([g_ce, g_aem, grad, g_ce]),
                 np.concatenate([g_ce, g_aem, grad, g_aem])).reshape(4, -1)
    n_ce, n_aem, norm = np.sqrt(dots[:3])
    cos = np.where((n_ce > 0) & (n_aem > 0), dots[3] / (n_ce * n_aem), 0.0)
    f_lambda = rows.blend(l_ce, l_aem)
    steps = [0.0] * len(deltas) if step_sizes is None else step_sizes.tolist()
    reports = [HybridLossReport(l_ce=a, l_aem=b, f_lambda=f, grad_norm=g, grad_cos=c,
                                entropy_weight=weight, step_size=step)
               for a, b, f, g, c, weight, step in zip(
                   l_ce.tolist(), l_aem.tolist(), f_lambda.tolist(), norm.tolist(),
                   cos.tolist(), rows.weights.tolist(), steps)]
    return grad, reports


def _trial_rows(rows: _Rows, deltas):
    """The descent objective of each row at a backtracking trial, from the
    value-only losses, one delta per row of rows. It runs under
    optimize_rows' errstate guard."""
    l_ce, _, _ = _factored_rows(rows.context, deltas, grad=False)
    l_aem, _ = _sharpening_rows(rows.head, rows.last, deltas, rows.config.loss_temperature,
                                grad=False)
    return _objective_rows(rows.blend(l_ce, l_aem), deltas, rows.config)


def loss_ce(acts: PrefixActivations, head: ProjectionHead, delta,
            scope: str = "full-prefix") -> float:
    """Negative log-likelihood of the realized prefix under the shifted head.

    The same delta is applied to every in-scope cached hidden state. A
    single-token prefix has an empty scope and scores 0.
    """
    delta = np.asarray(delta, dtype=np.float64)
    l_ce, _, _ = _factored_rows(_ContextFactors([acts], head, scope), delta[None], grad=False)
    return float(l_ce[0])


def loss_aem(acts: PrefixActivations, head: ProjectionHead, delta,
             loss_temperature: float = 1.0) -> float:
    """Entropy in nats of the corrected next-token distribution at loss_temperature."""
    if not loss_temperature > 0:
        raise InputError("loss_temperature must be positive")
    delta = np.asarray(delta, dtype=np.float64)
    h, _ = _sharpening_rows(head, acts.last_hidden[None], delta[None],
                            loss_temperature, grad=False)
    return float(h[0])


def loss_gradients(acts: PrefixActivations, head: ProjectionHead, delta,
                   ce_scope: str = "full-prefix", loss_temperature: float = 1.0):
    """(grad of context loss, grad of sharpening loss) at delta, closed form."""
    if not loss_temperature > 0:
        raise InputError("loss_temperature must be positive")
    delta = np.asarray(delta, dtype=np.float64)[None]
    _, g_ce, _ = _factored_rows(_ContextFactors([acts], head, ce_scope), delta, grad=True)
    _, g_aem = _sharpening_rows(head, acts.last_hidden[None], delta, loss_temperature,
                                grad=True)
    return g_ce[0], g_aem[0]


def grad_hybrid(acts: PrefixActivations, head: ProjectionHead, delta,
                config: ReflectionConfig) -> tuple[np.ndarray, HybridLossReport]:
    """Exact gradient of the descent objective (blend + quadratic penalty) at delta,
    with a full loss report. Gradient clipping is an optimize_delta concern, not
    applied here, so finite-difference checks see the analytic gradient."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (head.hidden_dim,):
        raise InputError(f"delta must have shape ({head.hidden_dim},)")
    rows = _Rows([acts], head, config, [config.entropy_weight])
    with np.errstate(all="ignore"):
        grad, reports = _grad_rows(rows, delta[None])
    return grad[0], reports[0]


def _finite_rows(reports, grad):
    """Rows whose losses and gradient are all finite."""
    return np.isfinite(grad).all(axis=1) & np.array(
        [math.isfinite(r.l_ce) and math.isfinite(r.l_aem) for r in reports], dtype=bool)


def _project_rows(deltas, config):
    """Scale the rows of deltas outside the trust_radius ball back onto it, in place."""
    if config.trust_radius is not None:
        norm = np.sqrt(_dots(deltas, deltas))
        out = norm > config.trust_radius
        if out.any():
            deltas[out] *= (config.trust_radius / norm[out])[:, None]
    return deltas


def optimize_rows(acts_list, head: ProjectionHead, config: ReflectionConfig,
                  weights) -> list[Correction]:
    """Run the inner reflection loop from delta = 0 for several prefixes at once.

    Row r blends its losses with entropy_weight weights[r]; every other
    setting is config's. The rows must share one |scope| length (InputError
    otherwise): their context terms are stacked into one (rows x |scope| x V)
    buffer, and every kernel reduces each row on its own, so row r's
    Correction equals optimize_delta's for it alone, bit for bit.

    Plain mode takes exactly `steps` gradient steps at learning_rate. With
    backtracking the step is halved (at most 20 times) until the objective does
    not increase, and the loop stops early once the decrease falls to 1e-12.
    The direction is norm-clipped at grad_clip; delta is projected back onto
    the trust-region ball after every update. Any non-finite loss aborts the
    whole correction: the caller gets delta = 0 and an abort flag, and decoding
    proceeds uncorrected. Each row clips, halves, stops and aborts on its own:
    every row stays in place, every kernel call evaluates the whole group, and
    a mask of the rows still descending decides which rows take their new
    point; a row that stopped keeps its point and its trajectory. The
    context-loss terms, exp(base - max) included, are built once per row and
    shared by every gradient and every backtracking trial.
    """
    acts_list = list(acts_list)
    weights = [float(w) for w in weights]
    if not acts_list:
        raise InputError("optimize_rows needs at least one prefix")
    if len(weights) != len(acts_list):
        raise InputError("optimize_rows needs one entropy weight per prefix")
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise InputError("entropy weights must lie in [0, 1]")
    rows = _Rows(acts_list, head, config, weights)
    d = np.zeros((len(acts_list), head.hidden_dim))
    with np.errstate(all="ignore"):  # overflowing inputs end as non-finite losses: an abort
        g, reports = _grad_rows(rows, d)
        trajectories = [[report] for report in reports]
        aborted = ~_finite_rows(reports, g)
        live = ~aborted  # the rows still descending
        for _ in range(config.steps):
            if not live.any():
                break
            # each row's blend and gradient norm (the clip's), from its report
            f, norm = np.array([(r.f_lambda, r.grad_norm) for r in reports]).T
            if config.grad_clip is not None:
                clip = norm > config.grad_clip
                if clip.any():
                    g[clip] *= (config.grad_clip / norm[clip])[:, None]
            if config.backtracking:
                current = _objective_rows(f, d, config)
                step, trial, trial_obj, stalled = _backtrack(rows, live, d, g, current)
                decrease = current - trial_obj
                # a non-finite trial objective aborts; a stalled row found no
                # non-increasing step inside the budget and stays put
                finite = np.isfinite(trial_obj)
                aborted |= live & ~finite
                live &= finite & ~stalled
                if not live.any():
                    break
            else:
                step = np.full(len(d), float(config.learning_rate))
                trial = _project_rows(d - step[:, None] * g, config)
            d = np.where(live[:, None], trial, d)
            g, reports = _grad_rows(rows, d, step)
            for trajectory, report, on in zip(trajectories, reports, live.tolist()):
                if on:
                    trajectory.append(report)
            ok = _finite_rows(reports, g)
            aborted |= live & ~ok
            live &= ok & ~(decrease <= _EARLY_STOP) if config.backtracking else ok

    d[aborted] = 0.0
    return [Correction(d[r], trajectory, steps_taken=len(trajectory) - 1,
                       aborted=bool(aborted[r]))
            for r, trajectory in enumerate(trajectories)]


def _backtrack(rows: _Rows, searching, start, direction, current):
    """The backtracking search of the rows the mask `searching` selects, from
    their points `start`: each row's first step of learning_rate, its half,
    ..., down to _MAX_HALVINGS halvings, whose trial objective does not
    exceed `current` or is not finite. Every halving evaluates every row, but
    only the rows still searching halve their step: a row whose search ended
    keeps its step, so each later halving recomputes the trial that ended it,
    bit for bit. Returns each row's step, trial point and trial objective,
    and the mask of the rows with no such step (their trial is the last,
    increasing one)."""
    step = np.full(len(start), float(rows.config.learning_rate))
    for _ in range(_MAX_HALVINGS + 1):
        trial = _project_rows(start - step[:, None] * direction, rows.config)
        trial_obj = _trial_rows(rows, trial)
        # a search ends at an objective that does not increase, or is not finite
        searching = searching & (trial_obj > current) & (trial_obj < math.inf)
        if not searching.any():
            break
        step = np.where(searching, step * 0.5, step)
    return step, trial, trial_obj, searching


def optimize_delta(acts: PrefixActivations, head: ProjectionHead,
                   config: ReflectionConfig) -> Correction:
    """Run the inner reflection loop from delta = 0 for one prefix: the
    one-row case of optimize_rows, at config.entropy_weight."""
    return optimize_rows([acts], head, config, [config.entropy_weight])[0]


def adapt_lambda(config: ReflectionConfig, observed_l_ce: float) -> float:
    """Next entropy_weight after observing a correction's context loss."""
    if config.adaptive is None:
        raise InputError("adaptive weight update requested without adaptive config")
    if not (math.isfinite(observed_l_ce) and observed_l_ce >= 0):
        raise InputError("observed context loss must be finite and non-negative")
    a = config.adaptive
    w = config.entropy_weight * math.exp(a.rate * (observed_l_ce / a.target - 1.0))
    return min(a.max_weight, max(a.min_weight, w))
