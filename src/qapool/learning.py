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
the one before it, so each step is made cheap instead.  _step is one row
through pooling's shared mix and inversion path.  With m and n at most
_KERNEL_MAX, where a numpy call costs more than the arithmetic,
_float_steps runs the whole loop on Python floats, one step of E at a
time: mix, centring, inversion, row-sum check, gradient and projection,
in _step's order, so the pools and weights are bit for bit the numpy
loop's.  The loop is a kernel generated for the stream's shape and its
family's kind of float inverse (_kernel): with m and n fixed, every sum
is one expression on named locals, added from the first term as
simplex._ordered_sum adds, and the inverse and the projection are
written into it.  pooling._float_inverse gives the inverse as source:
quadratic's and log's closed form (rules._Family.float_inverse), inlined,
or for the root-find families one call of the float shift solve, which
runs the shift solve's generated kernel on the row directly.  The
projection is simplex._projection_lines, the loop of
simplex._project_floats unrolled for m weights.  So a quadratic step
calls only min and sorted, and a log step max, sorted and one np.exp,
made in place in an n-value buffer the kernel allocates once per run;
a root-find step also calls its inverse.  The fallbacks are called only
for the rows and steps they must decide: a row the float inverse
refuses (unattainable, unconverged, non-finite, or one the numpy setup
must decide) goes to pooling._invert_rows, which inverts it as _step
does or raises _step's error, and a step where no projection threshold
passes or the running sum is not finite goes to the loop, which raises
its error or gives its answer.  A kernel is compiled at its first run,
never at import, and kept: 126 at most, for 42 shapes and three kinds
of inverse (quadratic, log, and one shared by the root-find families).
The cut is for speed and compile cost: in a fresh process (2-vCPU
x86-64 VM, numpy 2.4, CPython 3.11), ten quadratic steps at m = 8,
n = 3 take 1.2 ms with the kernel's compilation and 0.4 ms on numpy
(0.06 and 0.23 ms warm), and a 50 x 50 kernel compiles in 28 ms, where
ten numpy steps take 0.7 ms (medians of seven processes).
The hindsight comparator is batched: the offline solve inverts all T
steps at once, once for each weight vector it asks about, and the
comparator losses are the ones it scored at its answer.  It is projected
Newton on the weight simplex (optim.newton_simplex) with the exact
Hessian of the per-step mean loss, (1/T) sum_t E_t J_t E_t^T, where J_t,
the derivative of step t's pool in its target, is diagonal plus low rank
(rules._tangent_inverse), so the Hessian costs a few elementwise
products and ordered sums over the stream, of its upper triangle only
(_gram), and a point whose tangent is bit for bit the last one's reuses
the last Hessian (quadratic's tangent is the same at every point).
The answer is certified by
the Frank-Wolfe gap of the mean loss, at most optim.GAP_TOL = 1e-12,
and RegretReport.hindsight_gap keeps it; a solve that cannot reach it
raises SolverError naming the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ConfigError
from .files import StreamFile, _stack_steps
from .optim import newton_simplex
from .pooling import _compiled, _float_inverse, _invert_rows, _mix, _row_norms
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
    _ordered_dot, _ordered_sum, _project_floats, _projection_lines, canonicalize, project_simplex,
    uniform_point,
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
    total = _ordered_sum(W)[..., None]
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
            total = _ordered_sum(P)[..., None]
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
    return x, canonicalize(_ordered_dot(E_t, d))


def _float_steps(rule: RuleSpec, E: np.ndarray, J: np.ndarray, etas: np.ndarray, w: list):
    """ogd_run's loop on Python floats (module docstring), by the kernel of
    E's shape and the family's float inverse (pooling._float_inverse): the
    (T, n) pools and the final weights.  A row the float inverse refuses
    goes to _invert_rows, which inverts it as _step does, or raises _step's
    error."""
    source, inverse = _float_inverse(rule, E.shape[2])
    return _kernel(*E.shape[1:], source)(rule, inverse, E.reshape(len(E), -1), J, etas, *w)


@cache
def _kernel(m: int, n: int, source: str):
    """The float loop for m experts, n outcomes and the float inverse whose
    source is ``source`` (pooling._float_inverse), generated as
    straight-line Python on named locals: the step's exposures e{i}_{j},
    the weights w{i}, the mix and then the centred targets t{j}, the pool
    x{j}, the gradient g{i} and the unprojected weights y{i}.  Fixed m and
    n let each sum be one expression, a + b + c, which Python adds from
    the left as simplex._ordered_sum does; Python >= 3.12's sum()
    compensates, and pyproject allows 3.10.  The inverse's source and the
    projection's (simplex._projection_lines) are inlined, so a step calls
    only builtins, log's np.exp, a shift family's inverse and the two
    fallbacks.  E comes as (T, m n) rows, each converted as its step
    starts.  Each pool is stored as its step ends, one float at a time
    through memoryviews of the (T, n) pools array's columns, which numpy
    stores as given: 1.6 ms per 20,000 rows at n = 3, where assigning
    the list to a numpy row takes 5.3 ms (2-vCPU x86-64 VM, numpy 2.4,
    CPython 3.11).  A list of the T pools as floats was 3 ms faster than
    the row assignment, but raised learn_bulk's peak RSS at seed 23 from
    84.5 to 91.7 MB.  buf is log's n-value buffer (rules._log_inverse_src).
    Built at a kernel's first run and kept, as collections.namedtuple
    builds its class."""
    total = " + ".join
    W, Y, T, X, G, P = ([f"{a}{i}" for i in range(k)] for a, k in zip("wytxgp", (m, m, n, n, m, n)))
    step = ", ".join(f"e{i}_{j}" for i in range(m) for j in range(n))
    src = "\n".join([
        f"def kernel(rule, inverse, E, J, etas, {', '.join(W)}):",
        f"    pools, c, nans = np.empty((len(J), {n})), rule.param, ({'nan, ' * n})",
        f"    buf, ({', '.join(P)},) = np.empty({n}), map(memoryview, pools.T)",
        "    steps = zip(map(np.ndarray.tolist, E), J.tolist(), etas.tolist())",
        f"    for k, (({step}), j, eta) in enumerate(steps):",
        *(f"        t{j} = {total(f'w{i} * e{i}_{j}' for i in range(m))}" for j in range(n)),
        f"        mean = ({total(T)}) / {n}",
        f"        {', '.join(T)}, = {', '.join(f'{v} - mean' for v in T)},",
        *(f"        {line}" for line in source.splitlines()),
        f"        s = {total(X)}",
        "        if 0.0 < s < inf:",
        f"            x = [{', '.join(f'{v} / s' for v in X)}]",
        "        else:  # a target the float inverse refuses",
        f"            x = _invert_rows(rule, np.array([[{', '.join(T)}]]))[0].tolist()",
        f"        {', '.join(f'{v}[k]' for v in P)}, = x",
        "        x[j] -= 1.0  # x - e_j, the loss gradient's direction",
        f"        {', '.join(X)}, = x",
        *(f"        g{i} = {total(f'e{i}_{j} * x{j}' for j in range(n))}" for i in range(m)),
        f"        mean = ({total(G)}) / {m}",
        *(f"        y{i} = w{i} - eta * (g{i} - mean)" for i in range(m)),
        *(f"        {line}" for line in _projection_lines(Y, W)),
        f"    return pools, [{', '.join(W)}]",
    ])
    return _compiled(src, f"ogd kernel m={m} n={n}", {
        "np": np, "inf": math.inf, "nan": math.nan, "exp": np.exp,
        "_invert_rows": _invert_rows, "_project_floats": _project_floats,
    })


_KERNEL_MAX = 7  # the float loop's largest m and n (module docstring)
# the hindsight Hessian adds B's columns in blocks of _HESS_BLOCK // m^2, the
# full (m, m) square of a block being 1 MB of products; the blocks fix the order
_HESS_BLOCK = 1 << 17
_GRAM_ROWS = 1024  # _gram's cut on a block's columns (its docstring)


@cache
def _triangle(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j), i <= j, of an (m, m) symmetric matrix, and the
    (m, m) array of each entry's pair index."""
    i, j = np.triu_indices(m)
    pair = np.empty((m, m), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(i.size)
    for a in (i, j, pair):
        a.flags.writeable = False
    return i, j, pair


def _gram(B: np.ndarray) -> np.ndarray:
    """B B^T of an (m, k) array B, each entry's k products added in order
    over blocks of _HESS_BLOCK // m^2 columns, block sums added in order.
    Only the upper triangle is summed: B_ic B_jc and B_jc B_ic are the same
    product, so the lower triangle has the upper's bits.  A block of
    _GRAM_ROWS columns or more forms expert a's products against rows a..
    (B[a] * B[a:]), the triangle's pairs in order; a narrower one gathers
    the pairs' rows, two takes.  The bits are the same; the cut is for
    speed (2-vCPU x86-64 VM, numpy 2.4): at m = 5, by rows against by
    gathers, 3.7 against 4.4 ms in a solve on the (5, 60,000) B of a
    20,000-step stream, but 15.9 against 6.5 us on the 30 columns of a
    10-step one; they break even near 1000 columns."""
    m = B.shape[0]
    i, j, pair = _triangle(m)
    h = np.zeros(i.size)
    cols = max(1, _HESS_BLOCK // (m * m))
    for lo in range(0, B.shape[1], cols):
        Bc = B[:, lo:lo + cols]
        if Bc.shape[1] < _GRAM_ROWS:
            h += _ordered_dot(Bc.take(i, 0), Bc.take(j, 0))
        else:
            h += np.concatenate([_ordered_dot(Bc[a], Bc[a:]) for a in range(m)])
    return h.take(pair)


def _solve_offline(rule: RuleSpec, E: np.ndarray, J: np.ndarray):
    """Best fixed weights for the (T, m, n) exposures E at the 0-based
    outcomes J, the (T,) losses of the stream under them, and the
    Frank-Wolfe gap of the per-step mean loss there, at most
    optim.GAP_TOL.

    The loss, the gradient and the Hessian at a point share its pools:
    value_grad keeps the pools and losses of the last point it was asked
    at, and newton_simplex asks for the Hessian only there and returns
    that point.
    The Hessian of the mean loss is (1/T) sum_t E_t J_t E_t^T, with J_t
    the derivative of the step's pool in its target
    (rules._tangent_inverse): with B_t = E_t (I - pi_t 1^T)
    diag(d_t)^(1/2), it is (1/T) sum_t B_t B_t^T, exactly symmetric
    (_gram).
    The mix and B take E expert-major, one C-contiguous (m, T, n) copy, so
    that each expert's slice of the mix's fold is one block and B's rows
    are expert i's terms with no transposing copy; the sums are the same.
    The Hessian is a function of (d_t, pi_t) alone, so hess keeps the last
    one it built, read-only, and returns it again when _tangent_inverse
    gives bytewise the same (d, pi): quadratic's h is 2 everywhere, so its
    solve builds one Hessian, not one per Newton step: a 20,000-step
    learn_bulk quadratic solve takes 12.2 ms, where building the Hessian at
    each step took 18.6 (2-vCPU x86-64 VM, numpy 2.4).
    """
    T, m, _ = E.shape
    rows, inv_t = np.arange(T), 1.0 / T
    Em = np.ascontiguousarray(E.transpose(1, 0, 2))
    X = losses = None  # the pools and losses at the last point value_grad was asked at
    last = None, None, None  # the last tangent (d, pi) hess was given, and its Hessian

    # the per-step mean, so that the gap tolerance is T-independent
    def value_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal X, losses
        X = _invert_rows(rule, _mix(Em.transpose(1, 0, 2), w))
        D = X.copy()
        D[rows, J] -= 1.0
        # einsum's own loop, not BLAS: any ordered form costs twice as much;
        # it gives other bits on Em
        grad = canonicalize(np.einsum("tmn,tn->m", E, D)) * inv_t
        losses = _losses(rule, X, J)
        return float(_ordered_sum(losses)) * inv_t, grad

    def hess(w: np.ndarray) -> np.ndarray:
        nonlocal last
        d, pi = _tangent_inverse(rule, X)  # w is value_grad's last point
        # the same bytes, not equal values: 0.0 == -0.0, and NaN != NaN
        if last[0] is None or any(a.tobytes() != b.tobytes() for a, b in zip((d, pi), last)):
            last = None, None, None  # the old tangent is freed before B is built
            # an overflowing Hessian is not finite, and the solve stalls on it
            with np.errstate(over="ignore", invalid="ignore"):
                B = (Em - _ordered_dot(Em, pi)[..., None]) * np.sqrt(d)
                # expert i's terms, every step's outcomes
                last = d, pi, _read_only(_gram(B.reshape(m, -1)) * inv_t)
        return last[2]

    w, _, gap = newton_simplex(value_grad, hess, uniform_point(m))
    return w, losses, gap


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
    w, losses, _ = _solve_offline(rule, _exposures(rule, P), J)
    return WeightVector(w), float(_ordered_sum(losses))


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
    if max(m, n) <= _KERNEL_MAX:
        X, w = _float_steps(rule, E, J, etas, w.tolist())
        w = np.array(w)
    else:
        X = np.empty((T, n))
        for t, eta in enumerate(etas.tolist()):
            X[t], grad = _step(rule, E[t], J[t], w)
            w = project_simplex(w - eta * grad)
    losses = _losses(rule, X, J)

    best_w, comparator, gap = _solve_offline(rule, E, J)
    best_loss = float(_ordered_sum(comparator))
    return RegretReport(
        per_step_loss=losses,
        comparator_loss=comparator,
        best_weights=WeightVector(best_w),
        best_fixed_loss=best_loss,
        cumulative_regret=float(_ordered_sum(losses) - best_loss),
        bound=bound,
        exposure_bound=float(M),
        observed_exposure_sup=observed,
        exposure_bound_exceeded=bool(observed > M),
        final_weights=WeightVector(w),
        hindsight_gap=gap,
    )
