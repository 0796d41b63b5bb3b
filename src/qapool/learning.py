"""Online learning of expert weights with no-regret guarantees.

At each step the learner pools the experts' forecasts with its current
weight vector, suffers the negative score of the pool at the realized
outcome, and takes a projected gradient step.  The loss is convex in
the weights (the pooled score is concave), its gradient in weights has
entries <g(p_i), pool - e_j>, and with step sizes 1/(M sqrt(m t)) the
cumulative regret against the best fixed weight vector in hindsight is
at most 3 sqrt(m) M sqrt(T), where M bounds the exposure norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError
from .optim import projected_gradient
from .pooling import _invert_rows
from .rules import (
    Forecast,
    RuleSpec,
    as_forecast,
    exposure_norm_bound,
    _exposures,
    _score_matrix,
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
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-9")
        w = w / total
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
        if self.M is not None and not self.M > 0.0:
            raise ConfigError("exposure bound M must be positive")
        if self.T is not None and self.T < 1:
            raise ConfigError("horizon T must be at least 1")
        if self.forecast_floor is not None and not 0.0 < self.forecast_floor:
            raise ConfigError("forecast_floor must be positive")


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

def _clamp(forecast: Forecast, floor: float) -> Forecast:
    p = np.maximum(forecast.probs, floor)
    return Forecast(p / p.sum())


def _normalize_stream(stream, floor: float | None = None):
    steps = []
    m = n = None
    for forecasts, j in stream:
        fs = [as_forecast(f) for f in forecasts]
        if floor is not None:
            fs = [_clamp(f, floor) for f in fs]
        if m is None:
            m, n = len(fs), fs[0].n
        if len(fs) != m or any(f.n != n for f in fs):
            raise ValueError("stream must keep expert and outcome counts constant")
        j = int(j)
        if not 1 <= j <= n:
            raise ValueError(f"outcome {j} out of range 1..{n}")
        steps.append((fs, j))
    if not steps:
        raise ValueError("stream is empty")
    return steps


class _StreamEvaluator:
    """Precomputed exposures for a recorded stream.

    Losses and weight-gradients reduce to array algebra: with E[t] the
    m x n matrix of canonical expert exposures at step t, the pool
    solves g(x) = w @ E[t] and the loss gradient in w is
    E[t] @ (x - e_j), up to an all-ones shift.
    """

    def __init__(self, rule: RuleSpec, steps) -> None:
        self.rule = rule
        P = np.array([[f.probs for f in fs] for fs, _ in steps])
        self.E = _exposures(rule, P)
        self.T, self.m, self.n = self.E.shape
        self.J = np.array([j - 1 for _, j in steps], dtype=int)

    def exposure_sup(self) -> float:
        return float(np.linalg.norm(self.E, axis=2).max())

    def pools(self, w: np.ndarray, E: np.ndarray) -> np.ndarray:
        """Pools of the (k, m, n) exposure rows E under weights w."""
        targets = w @ E
        targets -= targets.sum(axis=1, keepdims=True) / self.n
        return _invert_rows(self.rule, targets)

    def step_loss_and_grad(self, t: int, w: np.ndarray) -> tuple[float, np.ndarray]:
        x = self.pools(w, self.E[t : t + 1])
        loss = -float(_score_matrix(self.rule, x)[0, self.J[t]])
        x[0, self.J[t]] -= 1.0  # x - e_j, the loss gradient's direction
        return loss, canonicalize(self.E[t] @ x[0])

    def per_step_losses(self, w: np.ndarray) -> np.ndarray:
        S = _score_matrix(self.rule, self.pools(w, self.E))
        return -S[np.arange(self.T), self.J]

    def total_loss(self, w: np.ndarray) -> float:
        return float(self.per_step_losses(w).sum())

    def total_grad(self, w: np.ndarray) -> np.ndarray:
        D = self.pools(w, self.E)
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
    return _StreamEvaluator(rule, [(fs, j)]).step_loss_and_grad(0, wv.weights)


def weight_score(rule: RuleSpec, forecasts, w, j: int) -> float:
    """Score of the pool of ``forecasts`` under weights ``w`` at outcome j."""
    return -_one_step(rule, forecasts, w, j)[0]


def loss_gradient(rule: RuleSpec, forecasts, w, j: int) -> np.ndarray:
    """Gradient in w of the loss -weight_score, canonicalized to sum zero."""
    return _one_step(rule, forecasts, w, j)[1]


def project_to_simplex(y) -> WeightVector:
    """Euclidean-nearest point of the weight simplex."""
    return WeightVector(project_simplex(np.asarray(y, dtype=float)))


def _solve_offline(
    ev: _StreamEvaluator, tol: float = 1e-8, max_iter: int = 1_000_000
) -> tuple[np.ndarray, float]:
    # optimize the per-step mean so the first-order tolerances refer to
    # a T-independent scale
    inv_t = 1.0 / ev.T
    w, kkt, converged = projected_gradient(
        lambda w: ev.total_loss(w) * inv_t,
        lambda w: ev.total_grad(w) * inv_t,
        uniform_point(ev.m),
        project_simplex,
        tol=tol,
        max_iter=max_iter,
    )
    if not converged and not kkt <= 1e-6:
        raise SolverError(
            f"offline weight optimization stalled at KKT residual {kkt:.3e}"
        )
    return w, ev.total_loss(w)


def offline_best_weights(rule: RuleSpec, stream) -> tuple[WeightVector, float]:
    """Best fixed weights in hindsight and their total loss.

    Maximizes the summed pooled scores over the weight simplex; the
    objective is concave, so projected gradient with backtracking
    converges to the global optimum.
    """
    ev = _StreamEvaluator(rule, _normalize_stream(stream))
    w, loss = _solve_offline(ev)
    return WeightVector(w), loss


def ogd_run(config: LearningConfig, stream) -> RegretReport:
    """Run online gradient descent over expert weights on a stream.

    The stream is a sequence of (forecasts, outcome) pairs with 1-based
    outcomes.  Starts from uniform weights, steps with
    eta_t = 1/(M sqrt(m t)), and projects back onto the simplex.
    """
    rule = config.rule
    if rule.domain_kind == "open":
        if config.M is None or config.forecast_floor is None:
            raise ConfigError(
                f"rule {rule.label} has unbounded exposure: supply both M "
                "and forecast_floor in the learning config"
            )
    steps = _normalize_stream(stream, floor=config.forecast_floor)
    if len(steps[0][0]) != config.m:
        raise ConfigError(
            f"config expects {config.m} experts, stream has {len(steps[0][0])}"
        )
    T = config.T if config.T is not None else len(steps)
    if T > len(steps):
        raise ConfigError(f"horizon {T} exceeds stream length {len(steps)}")
    steps = steps[:T]
    n = steps[0][0][0].n
    M = config.M if config.M is not None else exposure_norm_bound(rule, n)

    ev = _StreamEvaluator(rule, steps)
    observed = ev.exposure_sup()
    m = config.m
    w = uniform_point(m)
    losses = np.empty(T)
    for t in range(T):
        loss, grad = ev.step_loss_and_grad(t, w)
        losses[t] = loss
        eta = 1.0 / (M * np.sqrt(m * (t + 1)))
        w = project_simplex(w - eta * grad)

    best_w, best_loss = _solve_offline(ev)
    comparator = ev.per_step_losses(best_w)
    return RegretReport(
        per_step_loss=losses,
        comparator_loss=comparator,
        best_weights=WeightVector(best_w),
        best_fixed_loss=best_loss,
        cumulative_regret=float(losses.sum() - best_loss),
        bound=float(3.0 * np.sqrt(m) * M * np.sqrt(T)),
        exposure_bound=float(M),
        observed_exposure_sup=observed,
        exposure_bound_exceeded=bool(observed > M),
        final_weights=WeightVector(w),
    )
