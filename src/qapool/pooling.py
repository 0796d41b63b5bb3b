"""Quasi-arithmetic pooling: exposure averaging plus exposure inversion.

The pool of weighted forecasts is the forecast whose exposure equals
the weighted average of the input exposures (an equality in the
sum-zero space, i.e. modulo the all-ones direction).  Weights are
normalized internally, so scaling all weights leaves the pool fixed.

Inversion follows the rule's family record (rules._Family): quadratic
and log invert in closed form (affine map and softmax); neglog, power,
hs, tsallis and spherical reduce to one monotone equation per target
for the additive constant that the all-ones quotient leaves free, with
a closed-form bracket per family.  One safeguarded Newton kernel
solves that equation for a whole (k, n) array of targets at once (a
single pool is a one-row batch) and raises SolverError when it runs
out of iterations.  A generic convex-minimization fallback covers
everything and doubles as a cross-check oracle.

The generalized pool drops the solvability requirement: it returns the
unique minimizer over the closed simplex of the weighted sum of Bregman
divergences from the candidate to each input, found by projected
gradient descent (the gradient of that objective is exactly
g(x) - average exposure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, ExposureRangeError, SolverError
from .optim import projected_gradient
from .rules import (
    ExposureVector,
    Forecast,
    RuleSpec,
    as_forecast,
    _expected,
    _exposures,
    _gradient,
    exposure,
)
from .simplex import canonicalize, project_simplex, project_simplex_floor, uniform_point

__all__ = [
    "WeightedForecast",
    "PoolResult",
    "as_weighted",
    "qa_pool",
    "invert_exposure",
    "tsallis_invert",
    "spherical_pool",
    "generalized_pool",
    "CLOSED_FORM",
    "ROOT_FIND",
    "CONVEX_MIN",
    "BREGMAN_MIN",
]

CLOSED_FORM = "closed_form"
ROOT_FIND = "root_find"
CONVEX_MIN = "convex_min"
BREGMAN_MIN = "bregman_min"

@dataclass(frozen=True)
class WeightedForecast:
    """A forecast together with a nonnegative reliability weight."""

    forecast: Forecast
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "forecast", as_forecast(self.forecast))
        w = float(self.weight)
        if not np.isfinite(w) or w < 0.0:
            raise ValueError(f"weight must be a finite nonnegative real, got {w!r}")
        object.__setattr__(self, "weight", w)


def as_weighted(value) -> WeightedForecast:
    """Coerce a WeightedForecast or a (forecast, weight) pair."""
    if isinstance(value, WeightedForecast):
        return value
    forecast, weight = value
    return WeightedForecast(as_forecast(forecast), float(weight))


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

def _prepare(inputs) -> tuple[list[Forecast], np.ndarray, float]:
    """Validate, drop zero weights, normalize.  Returns (forecasts, w, total)."""
    wfs = [as_weighted(x) for x in inputs]
    if not wfs:
        raise DegenerateError("cannot pool an empty collection")
    total = float(sum(wf.weight for wf in wfs))
    if not np.isfinite(total):
        # normalizing by an infinite total would zero every weight
        raise ValueError(f"total weight overflows to {total!r}")
    kept = [wf for wf in wfs if wf.weight > 0.0]
    if not kept:
        raise DegenerateError("all weights are zero")
    n = kept[0].forecast.n
    if any(wf.forecast.n != n for wf in kept):
        raise ValueError("forecasts have different outcome counts")
    w = np.array([wf.weight for wf in kept], dtype=float)
    return [wf.forecast for wf in kept], w / w.sum(), total


def _all_equal(forecasts: list[Forecast]) -> bool:
    first = forecasts[0].probs
    return all(np.array_equal(f.probs, first) for f in forecasts[1:])


def _average_exposure(rule: RuleSpec, forecasts: list[Forecast], w: np.ndarray) -> np.ndarray:
    return canonicalize(w @ _exposures(rule, np.stack([f.probs for f in forecasts])))


def _residual(rule: RuleSpec, pooled: Forecast, target: np.ndarray) -> float:
    return float(np.linalg.norm(exposure(rule, pooled).coords - target))


# --------------------------------------------------------------------------
# row-batched inversion of canonical (sum-zero) exposure targets
# --------------------------------------------------------------------------

# safeguarded Newton: iteration cap per call, and the relative step or
# bracket width below which a row's shift counts as converged
_ROOT_MAX_ITER = 200
_ROOT_XTOL = 4.0 * np.finfo(float).eps


def _solve_shift(rule: RuleSpec, a: np.ndarray, p: float, lo, hi) -> np.ndarray:
    """Per-row shift c in [lo, hi] with sum_j z_j^p = 1, z = a + c.

    At p = 0 the equation is sum_j log z_j = 0.  Either side is monotone
    in c, so the sign of each Newton step tells which end of the bracket
    the iterate replaces.  A step that leaves the bracket is replaced by
    bisection.  Rows leave the iteration as they converge.
    """
    k = a.shape[0]
    lo, hi = np.full(k, lo, dtype=float), np.full(k, hi, dtype=float)
    if np.isnan(hi).any():  # an empty bracket: no shift meets the constraint
        raise ExposureRangeError(
            f"target exposure is not attainable for rule {rule.label}: "
            "the simplex constraint overshoots at every admissible shift"
        )
    # start at the end from which Newton approaches the root without
    # overshooting: hi when sum z^p is convex and increasing (p >= 1),
    # lo when it is concave and increasing or convex and decreasing
    out = (hi if p >= 1.0 else lo).copy()
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
    if rows.size:
        raise SolverError(
            f"root-find for rule {rule.label} did not converge in "
            f"{_ROOT_MAX_ITER} iterations"
        )
    return out


def _shift_problem(rule: RuleSpec, T: np.ndarray):
    """Offsets, exponents and bracket per target row (see rules._Family)."""
    return rule._impl.shift(T, rule.param)


def _invert_rows(rule: RuleSpec, T: np.ndarray) -> np.ndarray:
    """Forecasts whose canonical exposures are the rows of a (k, n) array.

    Families with a closed-form inverse use it; every other family goes
    through one safeguarded Newton solve for all rows (see _shift_problem).
    """
    if rule._impl.closed_form is not None:
        X = rule._impl.closed_form(T, rule.param)
    else:
        a, p, q, lo, hi = _shift_problem(rule, T)
        c = _solve_shift(rule, a, p, lo, hi)
        with np.errstate(divide="ignore"):
            X = (a + c[:, None]) ** q
    s = X.sum(axis=1, keepdims=True)
    if not np.isfinite(s).all() or s.min() <= 0.0:
        raise SolverError(f"inversion for {rule.label} produced a degenerate point")
    return X / s


# --------------------------------------------------------------------------
# generic convex-minimization path
# --------------------------------------------------------------------------

def _interior_floor(rule: RuleSpec, forecasts: list[Forecast] | None) -> float:
    """Working floor keeping solver iterates inside an open domain."""
    if rule.domain_kind != "open":
        return 0.0
    if forecasts:
        smallest = min(f.probs.min() for f in forecasts)
        return min(1e-12, 1e-3 * smallest)
    return 1e-12


def _minimize_tilted(
    rule: RuleSpec,
    t: np.ndarray,
    *,
    floor: float,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float, bool]:
    """Minimize G(x) - <t, x> over the floored simplex."""
    n = t.size
    if floor > 0.0:
        def project(y: np.ndarray) -> np.ndarray:
            return project_simplex_floor(y, floor)
    else:
        project = project_simplex

    def objective(x: np.ndarray) -> float:
        if floor <= 0.0 and rule.domain_kind == "open" and x.min() <= 0.0:
            return np.inf
        return _expected(rule, x) - float(np.dot(t, x))

    def gradient(x: np.ndarray) -> np.ndarray:
        return _gradient(rule, x) - t

    return projected_gradient(
        objective,
        gradient,
        uniform_point(n),
        project,
        lower=floor,
        tol=tol,
        max_iter=max_iter,
    )


def _scaled(tol: float, t: np.ndarray) -> float:
    # absolute tolerances widen proportionally once exposure magnitudes
    # leave the O(1) regime float64 can resolve them in; the norm is taken
    # of t / max|t| so that it cannot overflow (unscaled when max|t| <= 1)
    scale = max(1.0, float(np.abs(t).max()))
    return tol * max(1.0, scale * float(np.linalg.norm(t / scale)))


def _invert_generic(rule: RuleSpec, t: np.ndarray) -> np.ndarray:
    floor = _interior_floor(rule, None)
    # aim for the absolute tolerance; a spectral-step stall below the
    # scale-aware bound is accepted as float-optimal
    x, kkt, converged = _minimize_tilted(rule, t, floor=floor, tol=1e-8)
    if not converged and not kkt <= _scaled(1e-7, t):
        raise SolverError(
            f"exposure inversion for {rule.label} stalled at KKT residual {kkt:.3e}"
        )
    pooled = Forecast(x)
    # structural mismatches (minimizer pinned to a face) leave residuals
    # many orders of magnitude above solver noise, so the classification
    # threshold sits well above the first-order float64 resolution
    if not _residual(rule, pooled, t) <= _scaled(1e-6, t):
        raise ExposureRangeError(
            f"target exposure is not attainable for rule {rule.label}: the "
            "tilted-objective minimizer sits on a face with mismatched gradient"
        )
    return pooled.probs


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def invert_exposure(rule: RuleSpec, target, *, force_generic: bool = False) -> Forecast:
    """The forecast whose canonical exposure equals ``target``.

    Raises ExposureRangeError when no forecast attains the target (the
    failure mode of non-convex-exposure rules), SolverError when a
    numeric path fails to certify the identity to tolerance.
    """
    if not isinstance(target, ExposureVector):
        target = ExposureVector(np.asarray(target, dtype=float))
    t = target.coords
    if force_generic:
        return Forecast(_invert_generic(rule, t))
    pooled = Forecast(_invert_rows(rule, t[None])[0])
    res = _residual(rule, pooled, t)
    if not res <= _scaled(1e-8, t):
        raise SolverError(
            f"inversion for {rule.label} left residual {res:.3e} above tolerance"
        )
    return pooled


def qa_pool(rule: RuleSpec, inputs, *, force_generic: bool = False) -> PoolResult:
    """Pool weighted forecasts by averaging exposures and inverting.

    Inputs may be WeightedForecast instances or (forecast, weight)
    pairs.  Zero-weight entries are dropped; total_weight reports the
    sum of all supplied weights.
    """
    forecasts, w, total = _prepare(inputs)
    if _all_equal(forecasts):
        return PoolResult(forecasts[0], total, 0.0, CLOSED_FORM)
    t = _average_exposure(rule, forecasts, w)
    if force_generic:
        x, method = _invert_generic(rule, t), CONVEX_MIN
    else:
        x = _invert_rows(rule, t[None])[0]
        method = ROOT_FIND if rule._impl.closed_form is None else CLOSED_FORM
    pooled = Forecast(x)
    res = _residual(rule, pooled, t)
    if method != CONVEX_MIN and not res <= _scaled(1e-8, t):
        raise SolverError(
            f"pooling under {rule.label} left residual {res:.3e} above tolerance"
        )
    return PoolResult(pooled, total, res, method)


def tsallis_invert(gamma: float, v) -> Forecast:
    """Solve the tsallis simplex constraint for weighted power averages.

    Given v_j, the weighted average of the inputs' p_j^(gamma-1), finds
    the constant c with sum_j (v_j + c)^(1/(gamma-1)) = 1 and returns
    x_j = (v_j + c)^(1/(gamma-1)).  Raises ExposureRangeError when the
    constraint would force some v_j + c below zero (the failure mode of
    gamma > 2 with more than two outcomes).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2 or not np.all(np.isfinite(v)):
        raise ValueError("expected a finite vector of power averages")
    # gamma * v is the tsallis exposure average, up to the free shift
    return Forecast(_invert_rows(RuleSpec.tsallis(gamma), gamma * v[None])[0])


def spherical_pool(alpha: float, inputs) -> PoolResult:
    """Pool under the spherical rule by its sphere geometry.

    Steps: map each forecast to its raw exposure on the unit
    beta-sphere (beta = alpha/(alpha-1)); average; shift along the
    all-ones direction back onto the sphere; pull back through
    y -> y^(1/(alpha-1)) and normalize.  This is qa_pool under the
    spherical rule, whose inverter takes exactly these steps.
    """
    return qa_pool(RuleSpec.spherical(alpha), inputs)


def generalized_pool(
    rule: RuleSpec,
    inputs,
    *,
    floor: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> PoolResult:
    """Minimize the weighted sum of Bregman divergences to the inputs.

    Defined on the closed simplex, so it exists even when the exposure
    average has no exact inverse; whenever qa_pool succeeds the two
    agree.  Rules whose G itself diverges at the boundary (neglog,
    power with negative parameter) need an explicit interior ``floor``
    shrinking the feasible set to {x : x_j >= floor}.
    """
    forecasts, w, total = _prepare(inputs)
    if not rule._impl.bounded(rule.param) and (floor is None or floor <= 0.0):
        raise DomainError(
            f"rule {rule.label} has unbounded expected reward at the simplex "
            "boundary; supply a positive interior floor"
        )
    if floor is not None and not 0.0 <= floor * forecasts[0].n < 1.0:
        raise ValueError("floor must satisfy 0 <= n*floor < 1")
    if _all_equal(forecasts) and (floor is None or forecasts[0].probs.min() >= floor):
        return PoolResult(forecasts[0], total, 0.0, BREGMAN_MIN)
    t = _average_exposure(rule, forecasts, w)
    working_floor = floor if floor is not None else _interior_floor(rule, forecasts)
    x, kkt, converged = _minimize_tilted(
        rule, t, floor=working_floor, tol=tol, max_iter=max_iter
    )
    if not converged and not kkt <= _scaled(1e-7, t):
        raise SolverError(
            f"generalized pooling under {rule.label} stalled at KKT "
            f"residual {kkt:.3e}"
        )
    pooled = Forecast(x)
    return PoolResult(pooled, total, _residual(rule, pooled, t), BREGMAN_MIN)
