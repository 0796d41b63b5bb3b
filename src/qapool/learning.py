"""Online learning of expert weights with no-regret guarantees.

At each step the learner pools the experts' forecasts with its current
weight vector, suffers the negative score of the pool at the realized
outcome, and takes a projected gradient step.  The loss is convex in
the weights (the pooled score is concave), its gradient in weights has
entries <g(p_i), pool - e_j>, and with step sizes 1/(M sqrt(m t)) the
cumulative regret against the best fixed weight vector in hindsight is
at most 3 sqrt(m) M sqrt(T), where M bounds the exposure norms.
_regret_bound writes that bound once; RegretReport.bound_curve gives it
after each step, beside regret_curve.

The online steps cannot be batched, since each weight vector depends on
the one before it, so each step is made cheap instead.  _step is one
row through pooling's shared mix and inversion path.  With m and n at
most simplex._ORDERED_MAX, where numpy sums a row in order and a numpy
call costs more than the arithmetic, _float_steps runs the whole loop
on Python floats, one step of E at a time: mix, centring, inversion,
row-sum check, gradient and projection, in _step's order, so the pools
and weights are bit for bit the numpy loop's.  The loop is a kernel
generated for the stream's shape (_kernel): with m and n fixed, every
sum is one expression on named locals, added from the first term as
numpy adds, and a step's only calls are the inverse, the fallback
inversion and the projection.  A shape's kernel is compiled at its
first run, never at import, and kept (42 shapes at most).  Every family
inverts on floats: quadratic and log by their float_inverse (one np.exp
call per step for log), the root-find families by
pooling._float_shift_inverse on their float_shift, which runs the
shift solve's generated kernel on the row directly.  Only a row the
float inverse refuses (unattainable, unconverged, non-finite, or one
the numpy setup must decide) goes to pooling._invert_rows, which
inverts it as _step does or raises _step's error.
The hindsight comparator is batched: the offline solve inverts all T
steps at once, once for each weight vector it asks about, and the
comparator losses reuse the pools at its answer.  It is projected Newton
on the weight simplex (optim.newton_simplex) with the exact Hessian of
the per-step mean loss, (1/T) sum_t E_t J_t E_t^T, where J_t, the
derivative of step t's pool in its target, is diagonal plus low rank
(rules._tangent_inverse), so the Hessian costs a few elementwise
products and ordered sums over the stream.  The answer is certified by
the Frank-Wolfe gap of the mean loss, at most optim.GAP_TOL = 1e-12,
and RegretReport.hindsight_gap keeps it; a solve that cannot reach it
raises SolverError naming the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .errors import ConfigError
from .files import StreamFile, _stack_steps
from .optim import newton_simplex
from .pooling import _compiled, _float_shift_inverse, _invert_rows, _mix, _row_norms
from .rules import (
    Forecast,
    RuleSpec,
    as_forecast,
    exposure_norm_bound,
    _check_nonnegative,
    _exposures,
    _outcome,
    _read_only,
    _score_matrix,
    _simplex_rows,
    _tangent_inverse,
)
from .simplex import (
    _ORDERED_MAX, _ordered_dot, _project_floats, canonicalize, project_simplex, uniform_point,
)

__all__ = [
    "WeightVector",
    "LearningConfig",
    "RegretReport",
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
        object.__setattr__(self, "weights", _read_only(_weight_rows(w)))

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
    _check_nonnegative(W)
    total = W.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"weights sum to {float(total[off][0])!r}, not 1 within 1e-9")
    return W / total


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
    # the Frank-Wolfe gap of best_weights' per-step mean loss: best_fixed_loss
    # is within T times it of the true hindsight optimum (not printed)
    hindsight_gap: float = field(repr=False, default=math.nan)

    @property
    def T(self) -> int:
        return self.per_step_loss.size

    def regret_curve(self) -> np.ndarray:
        """Cumulative regret against the final best fixed weights."""
        return np.cumsum(self.per_step_loss - self.comparator_loss)

    def bound_curve(self) -> np.ndarray:
        """The regret bound after each step t = 1..T."""
        return _regret_bound(self.best_weights.m, self.exposure_bound, np.arange(1, self.T + 1))


def _regret_bound(m: int, M: float, t):
    """3 sqrt(m) M sqrt(t): the regret bound after t steps (or an array of t)."""
    return 3.0 * np.sqrt(m) * M * np.sqrt(t)


# --------------------------------------------------------------------------
# stream handling, the loss, the step and the hindsight solve
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
    if isinstance(stream, StreamFile):
        P, J = stream.forecasts, stream.outcomes
    else:
        steps = list(stream)
        if not steps:
            raise ValueError("stream is empty")
        rows = [[f.probs if isinstance(f, Forecast) else f for f in fs] for fs, _ in steps]
        P = _stack_steps(rows)
        # an object array keeps each outcome's type (bool, float) for StreamFile
        checked = StreamFile(P, np.array([j for _, j in steps], dtype=object))
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


def _losses(rule: RuleSpec, X: np.ndarray, J) -> np.ndarray:
    """Per-step losses -s(x_t; j_t) of the (T, n) pools X at the 0-based
    outcomes J; the one place the learner's loss is written."""
    return -_score_matrix(rule, X)[np.arange(X.shape[0]), J]


def _step(rule: RuleSpec, E_t: np.ndarray, j, w: np.ndarray):
    """Pool of one step's (m, n) exposures E_t under w, and the loss
    gradient in w at the 0-based outcome j, E_t @ (x - e_j) centred to
    sum zero."""
    x = _invert_rows(rule, _mix(E_t[None], w))[0]
    d = x.copy()
    d[j] -= 1.0  # x - e_j, the loss gradient's direction
    g = _ordered_dot(E_t, d)
    g -= np.add.reduce(g) / g.size  # canonicalize, in place
    return x, g


def _float_steps(rule: RuleSpec, E: np.ndarray, J: np.ndarray, etas: np.ndarray, w: list):
    """ogd_run's loop on Python floats (module docstring), by the kernel of
    E's shape: the (T, n) pools and the final weights.  The family's float
    inverse is its closed form's twin or, for a root-find family, the
    float shift solve; a row it refuses goes to _invert_rows, which
    inverts it as _step does, or raises _step's error."""
    impl = rule._impl
    inverse = impl.float_inverse or partial(_float_shift_inverse, impl.float_shift)
    return _kernel(*E.shape[1:])(rule, inverse, E, J, etas, *w)


@cache
def _kernel(m: int, n: int):
    """The float loop for m experts and n outcomes, generated as
    straight-line Python on named locals: the step's exposures e{i}_{j},
    the weights w{i}, the mix t{j}, the pool x{j} and the gradient g{i}.
    Fixed m and n let each sum be one expression, a + b + c, which Python
    adds from the left as np.add.reduce does on at most _ORDERED_MAX
    terms; Python >= 3.12's sum() compensates, and pyproject allows 3.10.
    E is converted one step at a time.  Built at a shape's first run and
    kept, as collections.namedtuple builds its class."""
    total = " + ".join
    W, T, X, G = ([f"{a}{i}" for i in range(k)] for a, k in zip("wtxg", (m, n, n, m)))
    rows = ", ".join("(" + ", ".join(f"e{i}_{j}" for j in range(n)) + ",)" for i in range(m))
    src = "\n".join([
        f"def kernel(rule, inverse, E, J, etas, {', '.join(W)}):",
        f"    pools, c, nans = np.empty((len(J), {n})), rule.param, ({'nan, ' * n})",
        "    steps = zip(map(np.ndarray.tolist, E), J.tolist(), etas.tolist())",
        f"    for k, (({rows},), j, eta) in enumerate(steps):",
        *(f"        t{j} = {total(f'w{i} * e{i}_{j}' for i in range(m))}" for j in range(n)),
        f"        mean = ({total(T)}) / {n}",
        f"        t = [{', '.join(f'{v} - mean' for v in T)}]",
        f"        {', '.join(X)}, = inverse(t, c) or nans",
        f"        s = {total(X)}",
        "        if 0.0 < s < inf:",
        f"            x = [{', '.join(f'{v} / s' for v in X)}]",
        "        else:  # a target the float inverse refuses",
        "            x = _invert_rows(rule, np.array([t]))[0].tolist()",
        "        pools[k] = x",
        "        x[j] -= 1.0  # x - e_j, the loss gradient's direction",
        f"        {', '.join(X)}, = x",
        *(f"        g{i} = {total(f'e{i}_{j} * x{j}' for j in range(n))}" for i in range(m)),
        f"        mean = ({total(G)}) / {m}",
        f"        {', '.join(W)}, = _project_floats(["
        f"{', '.join(f'w{i} - eta * (g{i} - mean)' for i in range(m))}])",
        f"    return pools, [{', '.join(W)}]",
    ])
    return _compiled(src, f"ogd kernel m={m} n={n}", {
        "np": np, "inf": math.inf, "nan": math.nan,
        "_invert_rows": _invert_rows, "_project_floats": _project_floats,
    })


# products per block of the hindsight Hessian's sum over the stream (1 MB)
_HESS_BLOCK = 1 << 17


def _solve_offline(rule: RuleSpec, E: np.ndarray, J: np.ndarray):
    """Best fixed weights for the (T, m, n) exposures E at the 0-based
    outcomes J, the (T, n) pools of the stream under them, and the
    Frank-Wolfe gap of the per-step mean loss there, at most
    optim.GAP_TOL.

    The loss, the gradient and the Hessian at a point share its pools:
    the pools of the last point asked about are kept.  The Hessian of the
    mean loss is (1/T) sum_t E_t J_t E_t^T, with J_t the derivative of the
    step's pool in its target (rules._tangent_inverse): with B_t = E_t
    (I - pi_t 1^T) diag(d_t)^(1/2), it is (1/T) sum_t B_t B_t^T, exactly
    symmetric.
    """
    T, m, _ = E.shape
    rows, inv_t = np.arange(T), 1.0 / T
    last_w = last_X = None  # the last weights asked about and their pools

    def pools(w: np.ndarray) -> np.ndarray:
        nonlocal last_w, last_X
        if last_w is None or not np.array_equal(last_w, w):
            last_w, last_X = w.copy(), _invert_rows(rule, _mix(E, w))
        return last_X

    # the per-step mean, so that the gap tolerance is T-independent
    def value_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        X = pools(w)
        D = X.copy()
        D[rows, J] -= 1.0
        grad = canonicalize(np.einsum("tmn,tn->m", E, D)) * inv_t
        return float(_losses(rule, X, J).sum()) * inv_t, grad

    def hess(w: np.ndarray) -> np.ndarray:
        d, pi = _tangent_inverse(rule, pools(w))
        H = np.zeros((m, m))
        # an overflowing Hessian is not finite, and the solve stalls on it
        with np.errstate(over="ignore", invalid="ignore"):
            B = (E - _ordered_dot(E, pi[:, None, :])[..., None]) * np.sqrt(d)[:, None, :]
            B = B.transpose(1, 0, 2).reshape(m, -1)  # expert i's terms, every step's outcomes
            cols = max(1, _HESS_BLOCK // (m * m))
            for lo in range(0, B.shape[1], cols):
                Bc = B[:, lo:lo + cols]
                H += np.add.reduce(Bc[:, None] * Bc[None], axis=2)
        return H * inv_t

    w, _, gap = newton_simplex(value_grad, hess, uniform_point(m))
    return w, pools(w), gap


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def _one_step(rule: RuleSpec, forecasts, w, j: int) -> tuple[float, np.ndarray]:
    wv = w if isinstance(w, WeightVector) else WeightVector(w)
    fs = [as_forecast(f) for f in forecasts]
    if len(fs) != wv.m:
        raise ValueError("one weight per forecast required")
    P = np.array([f.probs for f in fs])
    j0 = _outcome(j, P.shape[1])
    x, grad = _step(rule, _exposures(rule, P), j0, wv.weights)
    return float(_losses(rule, x[None], j0)[0]), grad


def weight_score(rule: RuleSpec, forecasts, w, j: int) -> float:
    """Score of the pool of ``forecasts`` under weights ``w`` at outcome j."""
    return -_one_step(rule, forecasts, w, j)[0]


def loss_gradient(rule: RuleSpec, forecasts, w, j: int) -> np.ndarray:
    """Gradient in w of the loss -weight_score, canonicalized to sum zero."""
    return _one_step(rule, forecasts, w, j)[1]


def project_to_simplex(y) -> WeightVector:
    """Euclidean-nearest point of the weight simplex."""
    return WeightVector(project_simplex(np.asarray(y, dtype=float)))


def offline_best_weights(rule: RuleSpec, stream) -> tuple[WeightVector, float]:
    """Best fixed weights in hindsight and their total loss.

    The stream is taken as by ogd_run.  Maximizes the summed pooled
    scores over the weight simplex; the objective is concave, so
    projected Newton converges to the global optimum, and the answer's
    Frank-Wolfe gap certifies it: the per-step mean of the total loss is
    within 1e-12 of its minimum.  A solve that cannot certify raises
    SolverError.
    """
    P, J = _normalize_stream(stream)
    J = J - 1
    w, X, _ = _solve_offline(rule, _exposures(rule, P), J)
    return WeightVector(w), float(_losses(rule, X, J).sum())


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
        bound = float(_regret_bound(m, M, T))
    if not (np.isfinite(etas).all() and math.isfinite(bound)):
        raise ConfigError(
            f"exposure bound M = {M!r} leaves the step sizes or the regret bound non-finite"
        )

    E, J = _exposures(rule, P[:T]), J[:T] - 1
    observed = float(_row_norms(E).max())
    if math.isinf(observed):  # the squares overflow, E does not (_exposures)
        top = np.abs(E).max()
        observed = float(top * _row_norms(E / top).max())
    w = uniform_point(m)
    # the losses do not feed back into the weights: score all pools at once
    if max(m, n) <= _ORDERED_MAX:
        X, w = _float_steps(rule, E, J, etas, w.tolist())
        w = np.array(w)
    else:
        X = np.empty((T, n))
        for t, eta in enumerate(etas.tolist()):
            X[t], grad = _step(rule, E[t], J[t], w)
            w = project_simplex(w - eta * grad)
    losses = _losses(rule, X, J)

    best_w, best_pools, gap = _solve_offline(rule, E, J)
    comparator = _losses(rule, best_pools, J)
    best_loss = float(comparator.sum())
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
        hindsight_gap=gap,
    )
