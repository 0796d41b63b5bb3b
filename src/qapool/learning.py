"""Online learning of expert weights with no-regret guarantees.

At each step the learner pools the experts' forecasts with its current
weight vector, suffers the negative score of the pool at the realized
outcome, and takes a projected gradient step.  The loss is convex in
the weights (the pooled score is concave), its gradient in weights has
entries <g(p_i), pool - e_j>, and with step sizes 1/(M sqrt(m t)) the
cumulative regret against the best fixed weight vector in hindsight is
at most 3 sqrt(m) M sqrt(T), where M bounds the exposure norms.

The online steps cannot be batched, since each weight vector depends on
the one before it, so each step is made cheap instead: one row through
pooling's shared mix and inversion path, a gradient centred in place,
and simplex.project_simplex on Python floats for small m.  Every step
keeps the operations of the batched paths, so the pools, losses and
weights are bit for bit those of the per-step numpy loop they replaced.
The hindsight comparator is batched: the evaluator inverts all T steps
at once for each weight vector the offline solve asks about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError
from .optim import projected_gradient
from .pooling import _invert_rows, _mix
from .rules import (
    Forecast,
    RuleSpec,
    as_forecast,
    exposure_norm_bound,
    _exposures,
    _score_matrix,
    _simplex_rows,
)
from .simplex import canonicalize, project_simplex, uniform_point

__all__ = [
    "WeightVector",
    "LearningConfig",
    "RegretReport",
    "as_weight_vector",
    "weight_score",
    "loss_gradient",
    "project_to_simplex",
    "ogd_run",
    "offline_best_weights",
]


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Expert weights on the probability simplex (m >= 1)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weight vector must be one-dimensional, m >= 1")
        w = _weight_rows(w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        return f"WeightVector({np.array2string(self.weights, separator=', ')})"


def _weight_rows(W: np.ndarray) -> np.ndarray:
    """WeightVector's checks on every row (last axis) of W, and the rows
    renormalized to sum to one."""
    if not np.all(np.isfinite(W)) or np.any(W < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    total = W.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"weights sum to {float(total[off][0])!r}, not 1 within 1e-9")
    return W / total


def as_weight_vector(value) -> WeightVector:
    if isinstance(value, WeightVector):
        return value
    return WeightVector(np.asarray(value, dtype=float))


@dataclass(frozen=True)
class LearningConfig:
    """Configuration for an online weight-learning run.

    M must dominate the exposure norms of every stream forecast; for
    bounded rules it defaults to the analytic supremum over the
    simplex, for open-domain rules it must be supplied together with
    forecast_floor (a clamp keeping stream forecasts inside the shell
    where the supplied M is valid).
    """

    rule: RuleSpec
    m: int
    M: float | None = None
    seed: int = 0
    T: int | None = None
    forecast_floor: float | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigError("need at least one expert")
        if self.M is not None and not 0.0 < self.M < math.inf:
            raise ConfigError("exposure bound M must be positive and finite")
        if self.T is not None and self.T < 1:
            raise ConfigError("horizon T must be at least 1")
        if self.forecast_floor is not None and not 0.0 < self.forecast_floor < math.inf:
            raise ConfigError("forecast_floor must be positive and finite")


@dataclass(frozen=True)
class RegretReport:
    """Losses, hindsight baseline, and the regret bound for one run."""

    per_step_loss: np.ndarray
    comparator_loss: np.ndarray  # per-step losses of the best fixed weights
    best_weights: WeightVector
    best_fixed_loss: float
    cumulative_regret: float
    bound: float
    exposure_bound: float
    observed_exposure_sup: float
    exposure_bound_exceeded: bool
    final_weights: WeightVector | None = field(repr=False, default=None)

    @property
    def T(self) -> int:
        return self.per_step_loss.size

    def regret_curve(self) -> np.ndarray:
        """Cumulative regret against the final best fixed weights."""
        return np.cumsum(self.per_step_loss - self.comparator_loss)


# --------------------------------------------------------------------------
# stream handling and batched evaluation
# --------------------------------------------------------------------------

def _normalize_stream(stream, floor: float | None = None):
    """(T, m, n) forecasts and (T,) 1-based outcomes of a stream.

    The stream is a files.StreamFile, whose arrays are already checked,
    or a sequence of (forecasts, outcome) pairs.  Pairs are stacked once
    and checked as one StreamFile, so errors name the step.  A raw row is
    renormalized once, as Forecast would; a Forecast keeps its bits,
    since renormalizing a normalized row can move them.  With a floor,
    every forecast is clamped to max(p, floor) and renormalized twice:
    once by the clamp, once as Forecast renormalizes what it is given.
    """
    from .files import StreamFile, _shape_error

    if isinstance(stream, StreamFile):
        P, J = stream.forecasts, stream.outcomes
    else:
        steps = list(stream)
        if not steps:
            raise ValueError("stream is empty")
        rows = [[f.probs if isinstance(f, Forecast) else f for f in fs] for fs, _ in steps]
        try:
            P = np.array(rows, dtype=float)
        except (ValueError, TypeError, OverflowError):
            P = None
        if P is None or P.ndim != 3:
            raise ValueError(_shape_error(rows))
        checked = StreamFile(P, np.array([j for _, j in steps]))
        trusted = [[isinstance(f, Forecast) for f in fs] for fs, _ in steps]
        P = np.where(np.array(trusted)[..., None], P, checked.forecasts)
        J = checked.outcomes
    if floor is not None:
        P = np.maximum(P, floor)
        with np.errstate(over="ignore"):  # an overflowing sum is reported below
            total = P.sum(axis=2, keepdims=True)
        try:  # Forecast's checks fail when the floor overflows the sum
            P = _simplex_rows(P / total)
        except ValueError:
            raise ValueError(f"forecast_floor {floor!r} leaves no valid clamped forecast") from None
    return P, J


class _StreamEvaluator:
    """Precomputed exposures for a recorded stream.

    Losses and weight-gradients reduce to array algebra: with E[t] the
    m x n matrix of canonical expert exposures at step t, the pool
    solves g(x) = w @ E[t] and the loss gradient in w is
    E[t] @ (x - e_j), up to an all-ones shift.  The pools of the whole
    stream at the last weights asked for are kept, because the
    hindsight solve asks for the loss and the gradient at each point.
    """

    def __init__(self, rule: RuleSpec, stream) -> None:
        P, J = stream
        self.rule = rule
        self.E = _exposures(rule, P)
        self.T, self.m, self.n = self.E.shape
        off = (J < 1) | (J > self.n)
        if off.any():
            raise IndexError(f"outcome {J[off][0]} out of range 1..{self.n}")
        self.J = J - 1
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def exposure_sup(self) -> float:
        return float(np.linalg.norm(self.E, axis=2).max())

    def pools(self, w: np.ndarray, E: np.ndarray) -> np.ndarray:
        """Pools of the (k, m, n) exposure rows E under weights w: one
        (m,) vector for every row, or one row of a (k, m) array per row."""
        return _invert_rows(self.rule, _mix(E, w))

    def stream_pools(self, w: np.ndarray) -> np.ndarray:
        """Pools of every step under w; read-only, shared between calls."""
        if self._last is None or not np.array_equal(self._last[0], w):
            X = self.pools(w, self.E)
            X.flags.writeable = False
            self._last = (w.copy(), X)
        return self._last[1]

    def step_pool_and_grad(self, t: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pool of step t under w, and the loss gradient in w there."""
        x = _invert_rows(self.rule, _mix(self.E[t : t + 1], w))[0]
        d = x.copy()
        d[self.J[t]] -= 1.0  # x - e_j, the loss gradient's direction
        g = self.E[t] @ d
        g -= np.add.reduce(g) / g.size  # canonicalize, in place
        return x, g

    def losses(self, X: np.ndarray) -> np.ndarray:
        """Per-step losses -s(x_t; j_t) of the (T, n) pools X."""
        S = _score_matrix(self.rule, X)
        return -S[np.arange(self.T), self.J]

    def per_step_losses(self, w: np.ndarray) -> np.ndarray:
        return self.losses(self.stream_pools(w))

    def total_loss(self, w: np.ndarray) -> float:
        return float(self.per_step_losses(w).sum())

    def total_grad(self, w: np.ndarray) -> np.ndarray:
        D = self.stream_pools(w).copy()
        D[np.arange(self.T), self.J] -= 1.0
        return canonicalize(np.einsum("tmn,tn->m", self.E, D))


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def _one_step(rule: RuleSpec, forecasts, w, j: int) -> tuple[float, np.ndarray]:
    wv = as_weight_vector(w)
    fs = [as_forecast(f) for f in forecasts]
    if len(fs) != wv.m:
        raise ValueError("one weight per forecast required")
    P = np.array([[f.probs for f in fs]])
    ev = _StreamEvaluator(rule, (P, np.array([j], dtype=int)))
    x, grad = ev.step_pool_and_grad(0, wv.weights)
    return float(ev.losses(x[None])[0]), grad


def weight_score(rule: RuleSpec, forecasts, w, j: int) -> float:
    """Score of the pool of ``forecasts`` under weights ``w`` at outcome j."""
    return -_one_step(rule, forecasts, w, j)[0]


def loss_gradient(rule: RuleSpec, forecasts, w, j: int) -> np.ndarray:
    """Gradient in w of the loss -weight_score, canonicalized to sum zero."""
    return _one_step(rule, forecasts, w, j)[1]


def project_to_simplex(y) -> WeightVector:
    """Euclidean-nearest point of the weight simplex."""
    return WeightVector(project_simplex(np.asarray(y, dtype=float)))


def _solve_offline(ev: _StreamEvaluator) -> tuple[np.ndarray, float]:
    # optimize the per-step mean so the first-order tolerances refer to
    # a T-independent scale
    inv_t = 1.0 / ev.T
    w, kkt, converged = projected_gradient(
        lambda w: ev.total_loss(w) * inv_t,
        lambda w: ev.total_grad(w) * inv_t,
        uniform_point(ev.m),
        project_simplex,
        max_iter=1_000_000,
    )
    if not converged and not kkt <= 1e-6:
        raise SolverError(
            f"offline weight optimization stalled at KKT residual {kkt:.3e}"
        )
    return w, ev.total_loss(w)


def offline_best_weights(rule: RuleSpec, stream) -> tuple[WeightVector, float]:
    """Best fixed weights in hindsight and their total loss.

    The stream is taken as by ogd_run.  Maximizes the summed pooled
    scores over the weight simplex; the objective is concave, so
    projected gradient with backtracking converges to the global optimum.
    """
    ev = _StreamEvaluator(rule, _normalize_stream(stream))
    w, loss = _solve_offline(ev)
    return WeightVector(w), loss


def ogd_run(config: LearningConfig, stream) -> RegretReport:
    """Run online gradient descent over expert weights on a stream.

    The stream is a files.StreamFile or a sequence of (forecasts,
    outcome) pairs, with 1-based outcomes either way.  Starts from
    uniform weights, steps with eta_t = 1/(M sqrt(m t)), and projects
    back onto the simplex.  An M whose step sizes or regret bound is
    not finite is refused before the first step.
    """
    rule = config.rule
    if rule.domain_kind == "open":
        if config.M is None or config.forecast_floor is None:
            raise ConfigError(
                f"rule {rule.label} has unbounded exposure: supply both M "
                "and forecast_floor in the learning config"
            )
    P, J = _normalize_stream(stream, floor=config.forecast_floor)
    length, m, n = P.shape
    if m != config.m:
        raise ConfigError(f"config expects {config.m} experts, stream has {m}")
    T = config.T if config.T is not None else length
    if T > length:
        raise ConfigError(f"horizon {T} exceeds stream length {length}")
    M = config.M if config.M is not None else exposure_norm_bound(rule, n)

    with np.errstate(over="ignore"):  # a tiny M overflows a step, a huge one the bound
        etas = 1.0 / (M * np.sqrt(m * np.arange(1, T + 1)))
        bound = float(3.0 * np.sqrt(m) * M * np.sqrt(T))
    if not (np.isfinite(etas).all() and math.isfinite(bound)):
        raise ConfigError(
            f"exposure bound M = {M!r} leaves the step sizes or the regret bound non-finite"
        )

    ev = _StreamEvaluator(rule, (P[:T], J[:T]))
    observed = ev.exposure_sup()
    w = uniform_point(m)
    # the losses do not feed back into the weights: score all pools at once
    X = np.empty((T, n))
    for t, eta in enumerate(etas.tolist()):
        X[t], grad = ev.step_pool_and_grad(t, w)
        w = project_simplex(w - eta * grad)
    losses = ev.losses(X)

    best_w, best_loss = _solve_offline(ev)
    comparator = ev.per_step_losses(best_w)
    return RegretReport(
        per_step_loss=losses,
        comparator_loss=comparator,
        best_weights=WeightVector(best_w),
        best_fixed_loss=best_loss,
        cumulative_regret=float(losses.sum() - best_loss),
        bound=bound,
        exposure_bound=float(M),
        observed_exposure_sup=observed,
        exposure_bound_exceeded=bool(observed > M),
        final_weights=WeightVector(w),
    )
