"""Quasi-arithmetic pooling: exposure averaging plus exposure inversion.

The pool of weighted forecasts is the forecast whose exposure equals
the weighted average of the input exposures (an equality in the
sum-zero space, i.e. modulo the all-ones direction).  Weights are
normalized internally, so scaling all weights leaves the pool fixed.
Inputs are (forecast, weight) pairs and take one path: _prepare turns
them into (m, n) forecast and (m,) weight arrays, _check_weights makes
every weight check, and _mix averages exposures into the canonical
targets that every pool, the online learner and the exposure probe
invert.  _mix sums w_1 e_1 + w_2 e_2 + ... in expert order, not by a BLAS
matvec (see simplex), so a row has the same bits on every CPU, in a
batch or alone, and the learner's float loop can copy them.

Inversion follows the rule's family record (rules._Family): quadratic
and log invert in closed form (affine map and softmax); neglog, power,
hs, tsallis and spherical reduce to one monotone equation per target
for the additive constant that the all-ones quotient leaves free, with
a closed-form bracket per family.  One safeguarded Newton kernel
solves that equation for a whole (k, n) array of targets at once and
reports, per row, a target no forecast attains, a solve that ran out of
iterations, or a degenerate inverse; one failed row leaves the others
untouched, and a caller that needs every row raises the first failure
as the error a one-row call raises (_raise_first).  _pool_rows pools a
(k, m, n) array of weighted forecast rows and checks and certifies each
row as qa_pool checks one collection; qa_pool is its one-row case, and
the audit suites pool whole arrays of seeded draws through it.

A shift problem of at most _SCALAR_ROWS rows of n <= _ORDERED_MAX
coordinates (the online learner's one row per step, the hindsight
solve's batch of a short stream, a one-row pool) is solved on Python
floats by _solve_shift_small, the numpy kernel's operations in its
order, and gives the same bits; the cut in n is where numpy stops
summing a row in order (see simplex).  numpy's z**2 is z*z and its
z**-1 is 1/z, so those are taken on floats; log and every other power
are not correctly rounded, and math.log and Python's ** differ from
numpy's on some inputs, so they take one numpy call per iteration on
the active rows' z.  Python raises where numpy divides by zero (the hs
row that starts at z_j = 0), so such a row's step is redone on numpy
scalars.  The cut in rows is for speed: on a 2-core x86-64 VM (numpy
2.4, CPython 3.11) the float path is 6.5x faster at one row of n = 3,
1.3x at 10 rows and even at 12 (9 rows at n = 7, 15 at n = 2), and with
it at every row count the cli_mix benchmark ran slower in 29 of 30
paired in-process runs (median 116 -> 140 ms).  _mix's cut,
_MIX_SLICES, is for speed too, and both its forms give the same bits:
one ordered reduction is the faster at one row, one in-place addition
per expert at the 20,000-row hindsight batches of the learn_bulk
benchmark.

The generalized pool drops the solvability requirement: it returns the
unique minimizer over the closed simplex of the weighted sum of Bregman
divergences from the candidate to each input, found by projected
gradient descent (the gradient of that objective is exactly
g(x) - average exposure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, truediv

import numpy as np

from .errors import DegenerateError, DomainError, ExposureRangeError, SolverError
from .optim import projected_gradient
from .rules import (
    ExposureVector,
    Forecast,
    RuleSpec,
    as_forecast,
    _check_nonnegative,
    _expected,
    _exposures,
    _gradient,
    _simplex_rows,
)
from .simplex import _ORDERED_MAX, _ordered_dot, project_simplex_floor, uniform_point

__all__ = [
    "PoolResult",
    "qa_pool",
    "invert_exposure",
    "generalized_pool",
    "CLOSED_FORM",
    "ROOT_FIND",
    "BREGMAN_MIN",
]

CLOSED_FORM = "closed_form"
ROOT_FIND = "root_find"
BREGMAN_MIN = "bregman_min"


@dataclass(frozen=True)
class PoolResult:
    """A pooled forecast plus solver diagnostics.

    residual is the Euclidean distance, in the sum-zero space, between
    the pool's exposure and the weighted average of input exposures.
    For every method except bregman_min it certifies the defining
    identity; for bregman_min a large residual signals that the
    minimizer sits on the boundary (no exact inverse exists).
    """

    pooled: Forecast
    total_weight: float
    residual: float
    method: str


# --------------------------------------------------------------------------
# shared input handling
# --------------------------------------------------------------------------

def _prepare(inputs) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n) forecasts and (m,) weights of pooling inputs.

    Inputs are (forecast, weight) pairs; each forecast is checked by
    as_forecast, the weights by _check_weights.  Zero weights are
    dropped, so that the sums over the others run in the same order
    whatever zeros sit between them.
    """
    pairs = list(inputs)
    forecasts = [as_forecast(f) for f, _ in pairs]
    W = np.array([float(w) for _, w in pairs])
    nonzero = W != 0.0
    if nonzero.any():  # an all-zero collection is left for _check_weights
        forecasts, W = [f for f, k in zip(forecasts, nonzero) if k], W[nonzero]
    n = forecasts[0].n if forecasts else 0
    if any(f.n != n for f in forecasts):
        raise ValueError("forecasts have different outcome counts")
    return np.array([f.probs for f in forecasts]).reshape(len(forecasts), n), W


def _check_weights(P: np.ndarray, W: np.ndarray):
    """Check the (k, m) weights of a (k, m, n) array of forecast rows as
    qa_pool checks one collection: m >= 1, finite nonnegative weights, a
    finite total, and some weight positive.

    Returns each row's total weight, the mask of its positive weights,
    its first positively weighted forecast, and whether that forecast is
    the only one the row weights (every kept forecast equals it).
    """
    k, m, _ = P.shape
    if m == 0:
        raise DegenerateError("cannot pool an empty collection")
    _check_nonnegative(W)
    with np.errstate(over="ignore"):
        total = W.cumsum(axis=1)[:, -1]  # in order at every m; np.sum goes pairwise from 8
    if not np.isfinite(total).all():
        # normalizing by an infinite total would zero every weight
        over = float(total[~np.isfinite(total)][0])
        raise ValueError(f"total weight overflows to {over!r}")
    kept = W > 0.0
    if not kept.any(axis=1).all():
        raise DegenerateError("all weights are zero")
    first = P[np.arange(k), kept.argmax(axis=1)]
    same = ((P == first[:, None]) | ~kept[..., None]).all(axis=(1, 2))
    return total, kept, first, same


def _mix(E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (k, n) canonical w-averages of (k, m, n) exposure rows, under
    one (m,) weight vector or a (k, m) array of them that sum to one:
    one ordered reduction for few rows, and for many, at a third of the
    cost, the same sums as one in-place addition per expert."""
    if E.shape[0] < _MIX_SLICES:
        T = _ordered_dot(w[..., None], E, axis=-2)
    else:
        T = w[..., 0, None] * E[:, 0]
        for i in range(1, E.shape[1]):
            T += w[..., i, None] * E[:, i]
    # np.add.reduce is what T.sum calls, without the method's wrapper
    T -= np.add.reduce(T, axis=1, keepdims=True) / T.shape[1]
    return T


def _row_norms(D: np.ndarray) -> np.ndarray:
    # the Euclidean norm of each row; a norm that overflows is inf
    with np.errstate(over="ignore"):
        return np.sqrt(_ordered_dot(D, D))


# --------------------------------------------------------------------------
# row-batched inversion of canonical (sum-zero) exposure targets
# --------------------------------------------------------------------------

# safeguarded Newton: iteration cap per call, and the relative step or
# bracket width below which a row's shift counts as converged
_ROOT_MAX_ITER = 200
_ROOT_XTOL = 4.0 * np.finfo(float).eps

# why a row was not inverted (0: it was): no forecast attains the target,
# the Newton solve ran out of iterations, the inverse does not normalize,
# or the pool's residual fails its certificate
_UNATTAINABLE, _NOT_CONVERGED, _DEGENERATE, _UNCERTIFIED = 1, 2, 3, 4


# a shift problem of at most _SCALAR_ROWS rows of at most _ORDERED_MAX
# coordinates is solved on Python floats (see the module docstring)
_SCALAR_ROWS = 12
_MIX_SLICES = 64  # _mix adds one expert at a time from this many rows on


def _solve_shift(a: np.ndarray, p: float, lo, hi) -> np.ndarray:
    """Per-row shift c in [lo, hi] with sum_j z_j^p = 1, z = a + c.

    At p = 0 the equation is sum_j log z_j = 0.  Either side is monotone
    in c, so the sign of each Newton step tells which end of the bracket
    the iterate replaces.  A step that leaves the bracket is replaced by
    bisection.  Rows leave the iteration as they converge.  A row with a
    NaN upper end (no admissible shift) and a row still unconverged after
    _ROOT_MAX_ITER iterations come back as NaN.

    A (k, n) problem with k <= _SCALAR_ROWS and n <= _ORDERED_MAX goes to
    _solve_shift_small, which makes these operations on Python floats and
    returns the same bits: numpy's per-call overhead, some 30 ufunc calls
    per iteration, costs more than the arithmetic on so few values.  The
    numpy kernel below takes every other call.
    """
    k, n = a.shape
    if k <= _SCALAR_ROWS and n <= _ORDERED_MAX:
        return _solve_shift_small(a, p, lo, hi)
    lo, hi = np.full(k, lo, dtype=float), np.full(k, hi, dtype=float)
    # start at the end from which Newton approaches the root without
    # overshooting: hi when sum z^p is convex and increasing (p >= 1),
    # lo when it is concave and increasing or convex and decreasing
    out = (hi if p >= 1.0 else lo).copy()
    out[np.isnan(hi)] = np.nan
    rows = np.flatnonzero(hi - lo > _ROOT_XTOL * np.abs(out))
    a, lo, hi, c = a[rows], lo[rows], hi[rows], out[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAX_ITER):
            if rows.size == 0:
                return out
            z = a + c[:, None]
            if p == 0.0:
                terms = np.log(z)
                f, df = terms.sum(axis=1), (1.0 / z).sum(axis=1)
                size = np.abs(terms).sum(axis=1)
            else:
                terms = z**p
                size = terms.sum(axis=1)
                f, df = size - 1.0, p * (terms / z).sum(axis=1)
            step = f / df  # positive when c lies past the root
            hi = np.where(step > 0.0, c, hi)
            lo = np.where(step < 0.0, c, lo)
            # converged once the step, or the bracket, is below the larger
            # of the relative tolerance and the rounding error of f
            tol = _ROOT_XTOL * (np.abs(c) + size / np.abs(df))
            done = (np.abs(step) <= tol) | (hi - lo <= tol)
            c = c - step
            c = np.where((c > lo) & (c < hi) | done, c, 0.5 * (lo + hi))
            if np.count_nonzero(done):
                out[rows[done]] = c[done]
                keep = ~done
                rows, a, lo, hi, c = rows[keep], a[keep], lo[keep], hi[keep], c[keep]
    out[rows] = np.nan
    return out


def _solve_shift_small(a: np.ndarray, p: float, lo, hi) -> np.ndarray:
    """_solve_shift on Python floats: the same start, Newton step, bracket
    update, tolerance, bisection, iteration cap and NaN rows, operation for
    operation, and so the same bits (see the module docstring).

    Log and every power but 2 and -1 take one numpy call per iteration on
    the (r, n) array of the r active rows' z, the array the numpy kernel
    passes it.  A row whose step divides by zero is redone on numpy
    scalars, which give numpy's inf or NaN where Python floats raise.
    """
    k = a.shape[0]
    A = a.tolist()
    # a family's bracket end is a (k,) array or one float for every row
    lo = lo.tolist() if isinstance(lo, np.ndarray) else [float(lo)] * k
    hi = hi.tolist() if isinstance(hi, np.ndarray) else [float(hi)] * k
    xtol = float(_ROOT_XTOL)
    out = list(hi if p >= 1.0 else lo)
    # each active row as (index, shift, lower end, upper end)
    rows = []
    for i in range(k):
        if hi[i] != hi[i]:
            out[i] = math.nan
        elif hi[i] - lo[i] > xtol * abs(out[i]):
            rows.append((i, out[i], lo[i], hi[i]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAX_ITER):
            if not rows:
                break
            Z = [[x + c for x in A[i]] for i, c, _, _ in rows]
            if p == 2.0 or p == -1.0:
                U = [None] * len(rows)
            else:
                U = (np.log(Z) if p == 0.0 else np.array(Z) ** p).tolist()
            left = []
            for (i, c, lo_i, hi_i), z, terms in zip(rows, Z, U):
                try:
                    step, tol = _shift_step(p, xtol, c, z, terms)
                except ZeroDivisionError:
                    z = [np.float64(x) for x in z]
                    step, tol = map(float, _shift_step(p, xtol, c, z, terms))
                if step > 0.0:
                    hi_i = c
                if step < 0.0:
                    lo_i = c
                done = abs(step) <= tol or hi_i - lo_i <= tol
                c = c - step
                if not (c > lo_i and c < hi_i or done):
                    c = 0.5 * (lo_i + hi_i)
                if done:
                    out[i] = c
                else:
                    left.append((i, c, lo_i, hi_i))
            rows = left
    for i, _, _, _ in rows:
        out[i] = math.nan
    return np.array(out, dtype=float)


def _shift_step(p: float, xtol: float, c: float, z: list, terms: list | None):
    """One row's Newton step f/df and convergence tolerance at shift c, z = a + c."""
    # reduce(add, ...) sums in order from the first term, as numpy sums a short row
    if p == 0.0:
        f, size = reduce(add, terms), reduce(add, map(abs, terms))
        df = reduce(add, [1.0 / x for x in z])
    else:
        if terms is None:
            terms = [x * x for x in z] if p == 2.0 else [1.0 / x for x in z]
        size = reduce(add, terms)
        f, df = size - 1.0, p * reduce(add, map(truediv, terms, z))
    return f / df, xtol * (abs(c) + size / abs(df))


def _inverse_rows(
    rule: RuleSpec, T: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Forecasts whose canonical exposures are the rows of a (k, n) array,
    and why each row failed (0 where it did not).

    Families with a closed-form inverse use it; every other family goes
    through one safeguarded Newton solve for all rows of the family's
    shift problem (see rules._Family).
    A failed row is NaN and has code _UNATTAINABLE, _NOT_CONVERGED or
    _DEGENERATE; one failed row leaves the others as they would be alone.
    The codes are None when every row was inverted, so that the common
    case (one row per online-learning step) allocates and checks nothing.
    """
    closed_form = rule._impl.closed_form
    if closed_form is not None:
        X = closed_form(T, rule.param)
    else:
        a, p, q, lo, hi = rule._impl.shift(T, rule.param)
        c = _solve_shift(a, p, lo, hi)
        with np.errstate(divide="ignore"):
            X = (a + c[:, None]) ** q
    s = np.add.reduce(X, axis=1, keepdims=True)
    # every row sum is finite and positive (not NaN) when the least sum is
    # above 0 and the largest below inf; one row's sum is both
    if s.size == 1:
        least = most = s.item()
    else:
        least, most = np.minimum.reduce(s, axis=None), np.maximum.reduce(s, axis=None)
    if 0.0 < least and most < np.inf:
        X /= s
        return X, None
    bad = ~(np.isfinite(s[:, 0]) & (s[:, 0] > 0.0))
    fail = np.where(bad, _DEGENERATE, 0).astype(np.int8)
    if closed_form is not None:
        # a closed form gives NaN for a finite target outside its range
        unattainable = np.isnan(X).any(axis=1) & ~np.isnan(T).any(axis=1)
    else:
        fail[np.isnan(c)] = _NOT_CONVERGED
        unattainable = np.broadcast_to(np.isnan(hi), fail.shape)
    fail[unattainable] = _UNATTAINABLE
    s[bad] = np.nan
    return X / s, fail


def _raise_first(
    rule: RuleSpec, fail: np.ndarray | None, res: np.ndarray | None = None,
    doing: str = "inversion for",
) -> None:
    """Raise, for the first failed row, the error a one-row call raises.

    ``res`` and ``doing`` word the residual certificate's failure.
    """
    if fail is None or not np.count_nonzero(fail):
        return
    i = int((fail != 0).argmax())
    if fail[i] == _UNATTAINABLE:
        if rule._impl.closed_form is not None:
            raise ExposureRangeError(
                f"target exposure lies outside the {rule.label} rule's range"
            )
        raise ExposureRangeError(
            f"target exposure is not attainable for rule {rule.label}: "
            "the simplex constraint overshoots at every admissible shift"
        )
    if fail[i] == _NOT_CONVERGED:
        raise SolverError(
            f"root-find for rule {rule.label} did not converge in "
            f"{_ROOT_MAX_ITER} iterations"
        )
    if fail[i] == _DEGENERATE:
        raise SolverError(f"inversion for {rule.label} produced a degenerate point")
    raise SolverError(
        f"{doing} {rule.label} left residual {res[i]:.3e} above tolerance"
    )


def _invert_rows(rule: RuleSpec, T: np.ndarray) -> np.ndarray:
    """The forecasts of _inverse_rows; raises the first failed row's error."""
    X, fail = _inverse_rows(rule, T)
    if fail is not None:
        _raise_first(rule, fail)
    return X


def _certified_inverse(
    rule: RuleSpec, T: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified inverses of the rows of T: forecasts, residuals, failures.

    Each inverted row is checked and renormalized as ``Forecast`` does,
    and its defining-identity residual is measured against its row of T
    (NaN where the kernel failed); a row whose residual exceeds the
    certificate res <= _scaled(1e-8, t) is marked _UNCERTIFIED.
    """
    X, fail = _inverse_rows(rule, T)
    if fail is None:
        fail = np.zeros(X.shape[0], dtype=np.int8)
    ok = fail == 0
    res = np.full(X.shape[0], np.nan)
    if ok.any():
        X[ok] = _simplex_rows(X[ok])
        res[ok] = _row_norms(_exposures(rule, X[ok]) - T[ok])
        fail[ok & ~(res <= _scaled(1e-8, T))] = _UNCERTIFIED
    return X, res, fail


def _pool_rows(
    rule: RuleSpec, P: np.ndarray, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pool k rows of weighted forecasts, each checked and certified alone.

    P is (k, m, n), W is (k, m).  Every row gets the weight checks of
    _check_weights, zero-weight forecasts ignored, the domain of the rule,
    the simplex sum of the pool, and the residual certificate.  The first
    failed row raises the error a one-row call raises.  Returns the (k, n)
    pools, the (k,) total weights, the residuals, and a mask of the rows
    whose kept forecasts were all equal (pooled to that forecast itself,
    with residual 0).
    """
    total, kept, first, same = _check_weights(P, W)
    X, res = first.copy(), np.zeros(P.shape[0])
    rows = np.flatnonzero(~same)
    if rows.size:
        w = W[rows] / W[rows].sum(axis=1, keepdims=True)
        # a dropped forecast stands in as the first kept one, at weight 0
        T = _mix(
            _exposures(rule, np.where(kept[rows, :, None], P[rows], first[rows, None])), w
        )
        Y, r, fail = _certified_inverse(rule, T)
        _raise_first(rule, fail, r, "pooling under")
        X[rows], res[rows] = Y, r
    return X, total, res, same


# --------------------------------------------------------------------------
# convex minimization for the generalized pool
# --------------------------------------------------------------------------

def _minimize_tilted(
    rule: RuleSpec, t: np.ndarray, floor: float
) -> tuple[np.ndarray, float, bool]:
    """Minimize G(x) - <t, x> over the floored simplex."""
    n = t.size

    def project(y: np.ndarray) -> np.ndarray:
        return project_simplex_floor(y, floor)

    def objective(x: np.ndarray) -> float:
        if floor <= 0.0 and rule.domain_kind == "open" and x.min() <= 0.0:
            return np.inf
        return _expected(rule, x) - float(_ordered_dot(t, x))

    def gradient(x: np.ndarray) -> np.ndarray:
        return _gradient(rule, x) - t

    return projected_gradient(objective, gradient, uniform_point(n), project, lower=floor)


def _scaled(tol: float, t: np.ndarray):
    # absolute tolerances widen proportionally once exposure magnitudes
    # leave the O(1) regime float64 can resolve them in; the norm is taken
    # of t / max|t| so that it cannot overflow (unscaled when max|t| <= 1).
    # One tolerance per row of a (k, n) array.
    scale = np.maximum(1.0, np.abs(t).max(axis=-1))
    return tol * np.maximum(1.0, scale * _row_norms(t / scale[..., None]))


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def invert_exposure(rule: RuleSpec, target) -> Forecast:
    """The forecast whose canonical exposure equals ``target``.

    Raises ValueError when the target is not finite or overflows the
    inverse's offsets, DomainError when the pool has a coordinate below
    rules.OPEN_MIN, ExposureRangeError when no forecast attains it (the
    failure mode of non-convex-exposure rules), SolverError when a
    numeric path fails to certify the identity to tolerance.
    """
    if not isinstance(target, ExposureVector):
        with np.errstate(invalid="ignore", over="ignore"):  # NaN is refused below
            target = ExposureVector(np.asarray(target, dtype=float))
    t = target.coords
    if not np.isfinite(t).all():
        # the kernel would spend every iteration on it and call that a solver failure
        raise ValueError("exposure target must be finite")
    try:
        # a finite target can still be too spread out for the rule's offsets
        with np.errstate(over="raise"):
            X, res, fail = _certified_inverse(rule, t[None])
    except FloatingPointError:
        raise ValueError(
            f"exposure target is too spread out to invert for rule {rule.label} in float64"
        ) from None
    _raise_first(rule, fail, res)
    return Forecast._trusted(X[0])


def qa_pool(rule: RuleSpec, inputs) -> PoolResult:
    """Pool weighted forecasts by averaging exposures and inverting.

    Inputs are (forecast, weight) pairs.  Zero-weight entries are
    dropped; total_weight reports the sum of all supplied weights.  This
    is the one-row case of _pool_rows.
    """
    P, W = _prepare(inputs)
    X, total, res, same = _pool_rows(rule, P[None], W[None])
    closed_form = same[0] or rule._impl.closed_form is not None
    method = CLOSED_FORM if closed_form else ROOT_FIND
    return PoolResult(Forecast._trusted(X[0]), float(total[0]), float(res[0]), method)


def generalized_pool(rule: RuleSpec, inputs, *, floor: float | None = None) -> PoolResult:
    """Minimize the weighted sum of Bregman divergences to the inputs.

    Defined on the closed simplex, so it exists even when the exposure
    average has no exact inverse; whenever qa_pool succeeds the two
    agree.  Rules whose G itself diverges at the boundary (neglog,
    power with negative parameter) need an explicit interior ``floor``
    shrinking the feasible set to {x : x_j >= floor}.
    """
    P, W = _prepare(inputs)
    total, _, _, same = _check_weights(P[None], W[None])
    if not rule._impl.bounded(rule.param) and (floor is None or floor <= 0.0):
        raise DomainError(
            f"rule {rule.label} has unbounded expected reward at the simplex "
            "boundary; supply a positive interior floor"
        )
    if floor is not None and not 0.0 <= floor * P.shape[1] < 1.0:
        raise ValueError("floor must satisfy 0 <= n*floor < 1")
    if same[0] and (floor is None or P[0].min() >= floor):
        return PoolResult(Forecast._trusted(P[0]), float(total[0]), 0.0, BREGMAN_MIN)
    t = _mix(_exposures(rule, P[None]), (W / W.sum())[None])[0]
    if floor is None:  # a working floor keeps the iterates inside an open domain
        floor = min(1e-12, 1e-3 * P.min()) if rule.domain_kind == "open" else 0.0
    x, kkt, converged = _minimize_tilted(rule, t, floor)
    if not converged and not kkt <= _scaled(1e-7, t):
        raise SolverError(
            f"generalized pooling under {rule.label} stalled at KKT "
            f"residual {kkt:.3e}"
        )
    pooled = Forecast(x)
    res = float(_row_norms(_exposures(rule, pooled.probs) - t))
    return PoolResult(pooled, float(total[0]), res, BREGMAN_MIN)
