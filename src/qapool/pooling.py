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
matvec: it is one simplex._ordered_dot, which adds one expert's products
at a time across a batch of many rows, so a row has the same bits on
every CPU, in a batch or alone, and the learner's float loop can copy
them.

Inversion follows the rule's family record (rules._Family): quadratic
and log invert in closed form (affine map and softmax); neglog, power,
hs, tsallis and spherical reduce to one monotone equation per target
for the additive constant that the all-ones quotient leaves free, with
a closed-form bracket per family.  One safeguarded Newton kernel
solves that equation for a whole (k, n) array of targets at once.
_inverse_rows reports, in one (k,) array of codes, each row's failure: a
target no forecast attains, a solve that ran out of iterations, or a
degenerate inverse; one failed row leaves the others untouched, and a
caller that needs every row raises the first failure as the error a
one-row call raises (_raise_first).  _pool_rows pools a
(k, m, n) array of weighted forecast rows and checks and certifies each
row as qa_pool checks one collection; qa_pool is its one-row case, and
the audit suites pool whole arrays of seeded draws through it.

A shift problem of at most _SCALAR_ROWS rows of n <= _SCALAR_COLS
coordinates (the hindsight solve's batch of a short stream, a one-row
pool) is solved by _solve_shift on Python floats (_solve_shift_floats),
the numpy kernel's operations in its order, and gives the same bits at
any size, since both add every sum in order (see simplex).  Its
iterations run in a kernel generated for the row length n and the
exponent's kind (_shift_kernel).  The online learner's one row per step
skips the numpy setup around that kernel as well: _float_inverse gives
it the family's one-row float inverse as source, the closed form's
template, inlined in the learner's kernel, or a call of
_float_shift_inverse, which takes a row of Python floats through the
family's float setup (rules._Family.float_shift), the kernel and the
power-back, and leaves a row it cannot finish on floats to
_inverse_rows.  numpy's z**2 is z*z
and its z**-1 is 1/z, so those are taken on floats; log and every other
power are not correctly rounded, and math.log and Python's ** differ
from numpy's on some inputs, so they take one numpy call per iteration
on the active rows' z.  Python raises where numpy divides by zero (the
hs row that starts at z_j = 0), so such a row's step is redone on numpy
scalars.  Both cuts are for speed and compile cost: on a 2-core x86-64
VM (numpy 2.4, CPython 3.11) the float path is 6.6x (log) to 27x (z*z)
faster than the numpy kernel at one row of n = 3 and 1.1x to 5.5x at 12
rows for every kind and n <= 7, but log and power are 0.8x at 20 rows
of n = 7, 0.6x at 48 rows of n = 3 and 0.25x to 0.55x at 12 rows of
n = 50.  A kernel for n = 50 compiles in 2 to 5 ms, what 10 to 20
one-row solves save; one for n = 5000 does not compile (RecursionError).

The generalized pool drops the solvability requirement: it returns the
unique minimizer over the (floored) simplex of the weighted sum of
Bregman divergences from the candidate to each input, G(x) - <t, x> up
to a constant, t the average exposure.  optim.newton_simplex finds it
with G's Hessian (rules._hessian) and certifies it by the
Frank-Wolfe gap of that objective divided by max(1, max|t|), so that
the tolerance means the same at every exposure scale; a solve that
cannot reach it is a SolverError naming the gap (_minimize_tilted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DegenerateError, DomainError, ExposureRangeError, SolverError
from .optim import newton_simplex
from .rules import (
    ExposureVector,
    Forecast,
    RuleSpec,
    as_forecast,
    _check_nonnegative,
    _expected,
    _exposures,
    _gradient,
    _hessian,
    _simplex_rows,
)
from .simplex import _ordered_dot, _ordered_sum, canonicalize, uniform_point

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
        total = _ordered_sum(W)
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
    one (m,) weight vector or a (k, m) array of them that sum to one."""
    return canonicalize(_ordered_dot(w[..., None], E, axis=-2))


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


# a shift problem of at most _SCALAR_ROWS rows of at most _SCALAR_COLS
# coordinates is solved on Python floats (see the module docstring)
_SCALAR_ROWS, _SCALAR_COLS = 12, 7


def _solve_shift(a: np.ndarray, p: float, lo, hi) -> np.ndarray:
    """Per-row shift c in [lo, hi] with sum_j z_j^p = 1, z = a + c.

    At p = 0 the equation is sum_j log z_j = 0.  Either side is monotone
    in c, so the sign of each Newton step tells which end of the bracket
    the iterate replaces.  A step that leaves the bracket is replaced by
    bisection.  Rows leave the iteration as they converge.  A row with a
    NaN upper end (no admissible shift) and a row still unconverged after
    _ROOT_MAX_ITER iterations come back as NaN.

    A (k, n) problem with k <= _SCALAR_ROWS and n <= _SCALAR_COLS is
    solved by _solve_shift_floats, which makes these operations on Python
    floats and returns the same bits: numpy's per-call overhead, some 30
    ufunc calls per iteration, costs more than the arithmetic on so few
    values.  The numpy kernel below takes every other call.
    """
    k, n = a.shape
    if k <= _SCALAR_ROWS and n <= _SCALAR_COLS:
        # a family's bracket end is a (k,) array or one float for every row
        lo = lo.tolist() if isinstance(lo, np.ndarray) else [float(lo)] * k
        hi = hi.tolist() if isinstance(hi, np.ndarray) else [float(hi)] * k
        return np.array(_solve_shift_floats(a.tolist(), p, lo, hi), dtype=float)
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
                f, df = _ordered_sum(terms), _ordered_sum(1.0 / z)
                size = _ordered_sum(np.abs(terms))
            else:
                terms = z**p
                size = _ordered_sum(terms)
                f, df = size - 1.0, p * _ordered_sum(terms / z)
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


def _solve_shift_floats(a: list, p: float, lo: list, hi: list) -> list:
    """_solve_shift on Python floats, for rows of offsets a and bracket ends
    lo and hi, all lists: the same start, Newton step, bracket update,
    tolerance, bisection, iteration cap and NaN rows, operation for
    operation, and so the same bits (see the module docstring).  The
    iterations run in the kernel of the rows' length and p's kind."""
    xtol = float(_ROOT_XTOL)
    out = list(hi if p >= 1.0 else lo)
    # each active row as (index, shift, lower end, upper end, *offsets)
    rows = []
    for i, row in enumerate(a):
        if hi[i] != hi[i]:
            out[i] = math.nan
        elif hi[i] - lo[i] > xtol * abs(out[i]):
            rows.append((i, out[i], lo[i], hi[i], *row))
    kernel = _shift_kernel(len(a[0]), _SHIFT_KINDS.get(p, "power"))
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel(rows, out, p, xtol, _ROOT_MAX_ITER)
    return out


def _float_shift_inverse(setup, t: list, c) -> list | None:
    """A shift family's inverse of one target row t of Python floats, up to
    scale, for learning's float loop: the family's float setup
    (rules._Family.float_shift), the float shift solve, and the power-back
    z**q, each as _inverse_rows makes them, and so the same bits.  z**2 is
    z*z and z**-1 is 1/z; any other q takes one numpy call.  None for a
    row left to _inverse_rows, which inverts it or finds its failure: a
    row the setup refuses, a NaN or infinite offset, a shift that did not
    converge, and a zero z under a negative q."""
    problem = setup(t, c)
    if problem is None:
        return None
    a, p, q, lo, hi = problem
    if not sum(a) < math.inf:  # the offsets are >= 0 unless NaN
        return None
    s, = _solve_shift_floats([a], p, [lo], [hi])
    if s != s:
        return None
    z = [v + s for v in a]
    if q < 0.0 and not min(z) > 0.0:
        return None
    if q == 2.0:
        return [v * v for v in z]
    if q == -1.0:
        return [1.0 / v for v in z]
    return (np.array(z) ** q).tolist()


def _float_inverse(rule: RuleSpec, n: int):
    """The family's inverse of one row of n centred targets t0.. on Python
    floats, for learning's float loop: straight-line source that sets
    x0.. up to scale, and the function that source calls as ``inverse``,
    if any.  The closed form's source is its twin's template
    (rules._Family.float_inverse), which calls none; every other family's
    is one call of _float_shift_inverse on the family's float setup, which
    sets every x to the kernel's ``nans`` where that returns None, so all
    of them share one source per n."""
    template = rule._impl.float_inverse
    if template is not None:
        return template(n), None
    t, x = (", ".join(f"{a}{j}" for j in range(n)) for a in "tx")
    return (f"{x}, = inverse([{t}], c) or nans",
            partial(_float_shift_inverse, rule._impl.float_shift))


# numpy's z**2 is z*z and its z**-1 is 1/z, which floats give; log and any
# other power take numpy's (module docstring)
_SHIFT_KINDS = {2.0: "square", -1.0: "reciprocal", 0.0: "log"}


@cache
def _shift_kernel(n: int, kind: str):
    """_solve_shift_floats' iterations for rows of n offsets, generated as
    straight-line Python on named locals: offsets a{j}, z{j} = a{j} + c and
    the terms t{j} of the sum.  Fixed n lets each sum be one expression,
    a + b + c, which adds from the first term as _solve_shift does.

    The log and power kinds take their terms from one numpy call per
    iteration on the (r, n) array of the r active rows' z, the array the
    numpy kernel passes it, so the rows iterate together; a square or
    reciprocal row depends on no other row and iterates to the end alone.
    A row whose step divides by zero (the hs row that starts at z_j = 0)
    is redone on numpy scalars, which give numpy's inf or NaN where Python
    floats raise.  The iteration cap is an argument, read at each call.
    Built at a kernel's first use and kept: 24 kernels at most."""
    total = " + ".join
    A, Z, T = ([f"{v}{j}" for j in range(n)] for v in "azt")
    a, z, t = ", ".join(A), ", ".join(Z), ", ".join(T)
    alone = kind == "square" or kind == "reciprocal"  # no numpy call couples the rows
    step = []
    if alone:
        power = "{0} * {0}" if kind == "square" else "1.0 / {0}"
        step.append(f"{t} = {', '.join(power.format(v) for v in Z)}")
    if kind == "log":
        step += [f"f, size = {total(T)}, {total(f'abs({v})' for v in T)}",
                 f"df = {total(f'1.0 / {v}' for v in Z)}"]
    else:
        step += [f"size = {total(T)}",
                 f"f, df = size - 1.0, p * ({total(f'{u} / {v}' for u, v in zip(T, Z))})"]
    step += ["step, tol = f / df, xtol * (abs(c) + size / abs(df))"]
    newton = [
        f"{z} = {', '.join(f'{v} + c' for v in A)}",
        "try:",
        *(f"    {line}" for line in step),
        "except ZeroDivisionError:",
        f"    {z} = {', '.join(f'float64({v})' for v in Z)}",
        *(f"    {line}" for line in step),
        "    step, tol = float(step), float(tol)",
        "if step > 0.0:",
        "    hi = c",
        "if step < 0.0:",
        "    lo = c",
        "done = abs(step) <= tol or hi - lo <= tol",
        "c = c - step",
        "if not (c > lo and c < hi or done):",
        "    c = 0.5 * (lo + hi)",
    ]
    if alone:
        loop = [
            f"    for i, c, lo, hi, {a} in rows:",
            "        for _ in range(max_iter):",
            *(f"            {line}" for line in newton),
            "            if done:",
            "                out[i] = c",
            "                break",
            "        else:",
            "            out[i] = nan",
        ]
    else:
        zs = f"[({', '.join(f'{v} + c' for v in A)}) for _, c, _, _, {a} in rows]"
        loop = [
            "    for _ in range(max_iter):",
            "        if not rows:",
            "            return",
            f"        U = {f'np.log({zs})' if kind == 'log' else f'(np.array({zs}) ** p)'}.tolist()",
            "        left = []",
            f"        for (i, c, lo, hi, {a}), ({t}) in zip(rows, U):",
            *(f"            {line}" for line in newton),
            "            if done:",
            "                out[i] = c",
            "            else:",
            f"                left.append((i, c, lo, hi, {a}))",
            "        rows = left",
            "    for i, *_ in rows:",
            "        out[i] = nan",
        ]
    src = "\n".join(["def kernel(rows, out, p, xtol, max_iter):", *loop])
    return _compiled(src, f"shift kernel n={n} {kind}",
                     {"np": np, "nan": math.nan, "float64": np.float64})


def _compiled(src: str, name: str, scope: dict):
    """The function ``kernel`` that the generated source src defines, run
    under the file name <name> with scope as its globals."""
    exec(compile(src, f"<{name}>", "exec"), scope)
    return scope["kernel"]


def _inverse_rows(rule: RuleSpec, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forecasts whose canonical exposures are the rows of a (k, n) array,
    and the (k,) int8 codes of why each row failed (0 where it did not).

    Families with a closed-form inverse use it; every other family goes
    through one safeguarded Newton solve for all rows of the family's
    shift problem (see rules._Family).
    A failed row is NaN and has code _UNATTAINABLE, _NOT_CONVERGED or
    _DEGENERATE; one failed row leaves the others as they would be alone.
    The codes are worked out only when some row's sum shows a failure.
    """
    closed_form = rule._impl.closed_form
    if closed_form is not None:
        X = closed_form(T, rule.param)
    else:
        a, p, q, lo, hi = rule._impl.shift(T, rule.param)
        c = _solve_shift(a, p, lo, hi)
        with np.errstate(divide="ignore"):
            X = (a + c[:, None]) ** q
    s = _ordered_sum(X)[:, None]
    # every row sum is finite and positive (not NaN) when the least sum is
    # above 0 and the largest below inf
    if 0.0 < np.minimum.reduce(s, axis=None) and np.maximum.reduce(s, axis=None) < np.inf:
        X /= s
        return X, np.zeros(X.shape[0], np.int8)
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
    rule: RuleSpec, fail: np.ndarray, res: np.ndarray | None = None,
    doing: str = "inversion for",
) -> None:
    """Raise, for the first failed row, the error a one-row call raises.

    ``res`` and ``doing`` word the residual certificate's failure.
    """
    if not np.count_nonzero(fail):
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
    _raise_first(rule, fail)
    return X


def _certified_inverse(
    rule: RuleSpec, T: np.ndarray, certify: bool | np.ndarray = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified inverses of the rows of T: forecasts, residuals, failures.

    Each inverted row is checked and renormalized as ``Forecast`` does,
    and its defining-identity residual is measured against its row of T
    (NaN where the kernel failed); a row whose residual exceeds the
    certificate res <= _scaled(1e-8, t) is marked _UNCERTIFIED.  A row
    outside the mask ``certify`` is left as _inverse_rows leaves it, with
    residual NaN, as _invert_rows takes it.
    """
    X, fail = _inverse_rows(rule, T)
    ok = (fail == 0) & certify
    res = np.full(X.shape[0], np.nan)
    if ok.any():
        X[ok] = _simplex_rows(X[ok])
        res[ok] = _row_norms(_exposures(rule, X[ok]) - T[ok])
        fail[ok & ~(res <= _scaled(1e-8, T))] = _UNCERTIFIED
    return X, res, fail


def _pool_steps(rule: RuleSpec, P: np.ndarray, W: np.ndarray):
    """_pool_rows as bulk requests: a generator that yields its exposure
    and its inversion request, each as a list [(f, rows, *args)] that
    asks for f(rule, rows, *args), is sent the list of their values, and
    returns _pool_rows' value.  _run_steps answers it alone; the audit
    answers it together with its other checks' requests."""
    total, kept, first, same = _check_weights(P, W)
    X, res = first.copy(), np.zeros(P.shape[0])
    rows = np.flatnonzero(~same)
    if rows.size:
        w = W[rows] / total[rows, None]
        # a dropped forecast stands in as the first kept one, at weight 0
        (E,) = yield [(_exposures, np.where(kept[rows, :, None], P[rows], first[rows, None]))]
        ((Y, r, fail),) = yield [(_certified_inverse, _mix(E, w), True)]
        _raise_first(rule, fail, r, "pooling under")
        X[rows], res[rows] = Y, r
    return X, total, res, same


def _run_steps(rule: RuleSpec, steps):
    """The value of a generator of bulk requests (_pool_steps), each
    request (f, rows, *args) answered by its own call f(rule, rows, *args)."""
    answers = None
    while True:
        try:
            requests = steps.send(answers)
        except StopIteration as done:
            return done.value
        answers = [f(rule, *args) for f, *args in requests]


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
    return _run_steps(rule, _pool_steps(rule, P, W))


# --------------------------------------------------------------------------
# convex minimization for the generalized pool
# --------------------------------------------------------------------------

def _minimize_tilted(rule: RuleSpec, t: np.ndarray, floor: float, x0: np.ndarray) -> np.ndarray:
    """The minimizer of G(x) - <t, x> over the floored simplex
    {x >= floor, sum x = 1}, found by projected Newton from its point x0
    and certified by the Frank-Wolfe gap, or SolverError naming the gap.

    The solve runs on the unit simplex in y, x = floor + s y with
    s = 1 - n floor, on the objective divided by sigma = max(1, max|t|),
    so that the gap tolerance means the same at every exposure scale.
    Its gradient is s (g(x) - t) / sigma, and its Hessian is
    s^2 / sigma times G's (rules._hessian).
    """
    n = t.size
    slack = 1.0 - n * floor
    sigma = max(1.0, float(np.abs(t).max()))

    def value_grad(y: np.ndarray) -> tuple[float, np.ndarray]:
        x = floor + slack * y
        value = float(_expected(rule, x)) - float(_ordered_dot(t, x))
        return value / sigma, (_gradient(rule, x) - t) * (slack / sigma)

    def hess(y: np.ndarray) -> np.ndarray:
        return _hessian(rule, floor + slack * y) * (slack * slack / sigma)

    # G, g and h may overflow near a tiny floor; the solve refuses the
    # non-finite values and stalls, naming the gap
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y, _, _ = newton_simplex(value_grad, hess, (x0 - floor) / slack)
    return floor + slack * y


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
    shrinking the feasible set to {x : x_j >= floor}.  The pool is
    certified by the Frank-Wolfe gap of its objective (_minimize_tilted);
    a solve that cannot certify raises SolverError naming the gap.
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
    t = _mix(_exposures(rule, P[None]), (W / total)[None])[0]
    # a working floor keeps the iterates inside an open domain
    near = 1e-3 * P.min() if rule.domain_kind == "open" else 0.0
    floor = floor or min(1e-12, near)
    # A Newton step can land on the floor, from where an open family's
    # pool climbs back by a bounded factor per step (hs by 2.5), so a tiny
    # floor would cost some log(x / floor) steps.  A first solve at the
    # floor `near`, 1e-3 times the least input probability, keeps such a
    # climb short, and the second starts next to its answer.
    x = uniform_point(t.size)
    try:
        for f in (near, floor) if floor < near else (floor,):
            x = _minimize_tilted(rule, t, f, x)
    except SolverError as err:
        raise SolverError(f"generalized pooling under {rule.label}: {err}") from None
    pooled = Forecast(x)
    res = float(_row_norms(_exposures(rule, pooled.probs) - t))
    return PoolResult(pooled, float(total[0]), res, BREGMAN_MIN)
