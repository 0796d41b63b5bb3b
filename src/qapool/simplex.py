"""Probability-simplex utilities: projection, sampling, canonicalization.

The Euclidean projection uses the sort-and-threshold construction
(Held, Wolfe & Crowder 1974; see also Wang & Carreira-Perpinan 2013):
sort the coordinates, find the largest support size rho for which the
water-filling threshold keeps all supported coordinates positive, then
clip.  It is exact up to floating-point rounding, O(m log m).

The projection runs on Python floats at every size: the online
learner projects one m-vector per step, where numpy's per-call overhead
costs more than the arithmetic.  simplex owns its two forms.
_project_floats is the loop, which project_simplex calls at any length;
_projection_lines is the template of its body unrolled for m named
values, straight-line source that the learner's generated kernel
inlines, so that a step makes no call to project.  The template calls
the loop on the same values only where no tau passes or the running sum
is not finite, so the loop raises its error or gives its answer.  A
running sum of finite values that overflows to -inf passes the last
threshold test with tau = inf, which would make every weight inf: the
loop refuses it as it refuses a vector where no tau passes.  Both
make the operations of the numpy formulation (np.sort reversed, cumsum,
np.maximum) in their order, so all three give the same bits: the sort
is descending; the running sum adds in order from -0.0, as cumsum does
at every length; the test u_k + (1 - css_k)/k > 0, tau and y_i + tau
are the same IEEE double operations; and since tau is never -0.0,
neither is y_i + tau, so clipping by comparison with 0.0 gives
np.maximum's result, sign of zero included.  Ties sort in either order
at no cost, as equal values add to the same sums.  A non-finite input
raises before any arithmetic warns.
On a 2-core x86-64 VM (numpy 2.4, CPython 3.11) the loop costs what the
numpy formulation costs at n = 50, the largest vector a benchmark
workload projects, and about 2.4x and 9x as much at n = 100 and 1000.

Every sum whose bits reach the output is _ordered_sum, the last slice of
np.add.accumulate: numpy documents it as the running sum, so it adds
from the first term in index order at every length, as a left fold
a + b + c does (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 4).  np.add.reduce adds a row pairwise from
eight terms on, and BLAS in the order OpenBLAS picks for the CPU.
_ordered_dot and canonicalize are built on it, and the generated float
kernels of pooling and learning add as a + b + c, so the numpy and float
paths give the same bits at every size.

accumulate runs one latency-bound inner loop per row, so many short
rows are folded by slices instead: s = a[..., 0] + a[..., 1], then
s += a[..., k] for each later term, the same left fold with the same
bits, but each add is one vector add across all the rows
(_slice_fold).  _ordered_dot forms each slice's products as it adds
them, so a broadcast product is never built whole.  The cut is timed:
slices when the rows number at least _SLICE_RATIO = 20 times the terms
and there are at least _SLICE_SIZE = 256 values; a smaller sum is not
even tested, so the short sums of a 10-step stream cost what they cost
on accumulate alone.  On a 2-core x86-64 VM (numpy 2.4,
CPython 3.11), slices against accumulate: 29 against 371 us at
(20000, 3); 271 against 1875 us for the 20,000 x 5 rows of 3 terms of
the hindsight solve, and 678 against 2080 us for its 20,000 x 3 rows of
5 experts (axis -2); 7.6 against 15.8 us at (400, 8).  They lose with
few rows or long ones: 2.4 against 1.1 us at (10, 3), 3.6 against 2.0
us at (10, 5, 3), 58 against 5.7 us at (20, 50), and 3.6 against 0.46
ms at (25, 5242), a block of the hindsight Hessian.  The ratio is
conservative for long rows: (400, 50) stays on accumulate, 70 us where
slices take 44.

The sampler draws Dirichlet(1, ..., 1) as n i.i.d. Exp(1) variates
divided by their sum (Devroye, *Non-Uniform Random Variate Generation*,
1986, ch. XI).  Generator.dirichlet builds it the same way: each
variate is standard_gamma(1), the ziggurat exponential, the row total is
summed in order, and the row is multiplied by its reciprocal.  Drawing
the exponentials directly therefore gives every row bit for bit as
Generator.dirichlet with all-ones alpha would, and leaves the generator
in the same state, while a block of rows costs one generator call and
none of dirichlet's per-call argument checks.

The map from exponentials to shell points is _shell_points, written
once.  It works on any (..., n) array of rows, and each row's bits do
not depend on the rows around it, so a caller whose generator calls
must interleave with other draws (a forecast, then its weight) can make
each exponential call bare, in its order, and transform them all in one
bulk call afterwards.  random_simplex_point is that transform applied
to one generator call.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "canonicalize",
    "project_simplex",
    "random_simplex_point",
    "uniform_point",
]


# a sum folds by slices from _SLICE_SIZE values on, and with at least
# _SLICE_RATIO rows per term (see the module docstring)
_SLICE_SIZE, _SLICE_RATIO = 256, 20
_accumulate = np.add.accumulate


def _ordered_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over a nonempty ``axis``, from the first term in index order."""
    size = a.size
    if size >= _SLICE_SIZE and size >= _SLICE_RATIO * a.shape[axis] ** 2:
        return _slice_fold(a, None, axis)
    s = _accumulate(a, axis)
    return s[..., -1] if axis == -1 else s[(slice(None),) * (axis % s.ndim) + (-1,)]


def _ordered_dot(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over ``axis`` of the products a * b (broadcast), in order; the
    cut reads the larger operand as the products' shape."""
    big = a if a.size >= b.size else b
    size = big.size
    if size >= _SLICE_SIZE and size >= _SLICE_RATIO * big.shape[axis] ** 2:
        return _slice_fold(a, b, axis)
    s = _accumulate(a * b, axis)  # as _ordered_sum(a * b, axis), past its cut
    return s[..., -1] if axis == -1 else s[(slice(None),) * (axis % s.ndim) + (-1,)]


def _slice_fold(a: np.ndarray, b: np.ndarray | None, axis: int) -> np.ndarray:
    """The sum over ``axis`` of a, or of the products a * b, as the left
    fold of its slices: each add is one vector add across all the rows,
    and a product is formed as its slice is added."""
    if axis >= 0:  # count from the end, where broadcast operands align
        axis -= a.ndim if b is None else max(a.ndim, b.ndim)
    if b is not None and (min(a.ndim, b.ndim) < -axis or a.shape[axis] != b.shape[axis]):
        a, b = np.broadcast_arrays(a, b)  # an operand broadcasts along the axis
    n = a.shape[axis]
    tail = (slice(None),) * (-1 - axis)
    at = (..., 0) + tail
    if b is None:  # a[at] is a view of a, so the first add makes the sum
        s, first = (a[at].copy(), 1) if n == 1 else (a[at] + a[(..., 1) + tail], 2)
    else:
        s, first = a[at] * b[at], 1
    for k in range(first, n):
        at = (..., k) + tail
        s += a[at] if b is None else a[at] * b[at]
    return s


def canonicalize(v: np.ndarray) -> np.ndarray:
    """Each row (last axis) less its mean: the sum-zero projection."""
    v = np.asarray(v, dtype=float)
    return v - _ordered_sum(v)[..., None] / v.shape[-1]


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``y`` onto {x >= 0, sum x = 1}."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("expected a one-dimensional vector")
    return np.array(_project_floats(y.tolist()))


def _project_floats(v: list) -> list:
    """project_simplex on a list of Python floats: sort, running sum,
    threshold test, tau and clip, in the numpy formulation's order."""
    css, tau = -0.0, None  # -0.0 + x is x: css runs as cumsum runs
    for k, u_k in enumerate(sorted(v, reverse=True), 1):
        css += u_k
        t = (1.0 - css) / k
        if u_k + t > 0.0:
            tau = t  # the last passing k wins
    # k = 1 always passes in exact arithmetic, but not when 1 - u_1 rounds
    # to -u_1.  A running sum that is not finite is refused when some input
    # is not finite; from finite inputs it overflowed, and at -inf it makes
    # tau inf, which no clip can mend
    if tau is None or tau == math.inf or not math.isfinite(css) and not all(map(math.isfinite, v)):
        raise _unprojectable(np.array(v))
    # y_i + tau is never -0.0 (tau is not), so this clip is np.maximum's
    return [x + tau if x + tau > 0.0 else 0.0 for x in v]


def _projection_lines(y: list, w: list) -> list:
    """_project_floats unrolled for the len(y) values named y: straight-line
    source that sets the names w to their projection, for a generated
    kernel whose scope has inf and _project_floats.  It makes the loop's
    operations in its order, every threshold test included, so the last
    passing k still wins; where no tau passes or the running sum is not
    finite, it calls the loop on the same values, which raises the loop's
    error or gives its answer.  Temporaries: u0.., css, cut and tau."""
    ys = ", ".join(y)
    lines = [f"{', '.join(f'u{k}' for k in range(len(y)))}, = sorted(({ys},), reverse=True)",
             "tau, css = None, -0.0"]
    for k in range(len(y)):
        lines += [f"css += u{k}", f"cut = (1.0 - css) / {k + 1}", f"if u{k} + cut > 0.0: tau = cut"]
    return lines + [
        "if tau is None or not -inf < css < inf:",
        f"    {', '.join(w)}, = _project_floats([{ys}])",
        "else:",
        *(f"    {b} = {a} + tau if {a} + tau > 0.0 else 0.0" for a, b in zip(y, w)),
    ]


def _unprojectable(y: np.ndarray) -> ValueError:
    return ValueError(
        "cannot project onto the simplex: the threshold test fails at "
        f"every support size (largest |y_i| is {np.abs(y).max():.3g})"
    )


def uniform_point(n: int) -> np.ndarray:
    """The barycenter (1/n, ..., 1/n)."""
    return np.full(n, 1.0 / n)


def _shell_points(e: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Map (..., n) rows of Exp(1) variates to points of the shell
    {p : min_j p_j >= floor}: floor + (1 - n*floor) * e / sum(e), row
    by row; requires n*floor < 1.
    """
    slack = 1.0 - e.shape[-1] * floor
    if slack <= 0.0:
        raise ValueError("floor too large for the dimension")
    # the row total is summed in order, as dirichlet sums it
    return floor + slack * (e * (1.0 / _ordered_sum(e)[..., None]))


def random_simplex_point(
    rng: np.random.Generator, n: int, floor: float = 0.0, size: int | None = None
) -> np.ndarray:
    """Draw uniformly from the shell {p : min_j p_j >= floor}.

    floor + (1 - n*floor) * Dirichlet(1, ..., 1) is exactly the uniform
    law on that shrunken simplex; requires n*floor < 1.  With ``size``,
    a (size, n) block: row i is bit for bit the i-th of ``size``
    one-point calls, and the generator ends in the same state.
    """
    return _shell_points(rng.standard_exponential(n if size is None else (size, n)), floor)
