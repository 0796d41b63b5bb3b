"""Probability-simplex utilities: projection, sampling, canonicalization.

The Euclidean projection uses the sort-and-threshold construction
(Held, Wolfe & Crowder 1974; see also Wang & Carreira-Perpinan 2013):
sort the coordinates, find the largest support size rho for which the
water-filling threshold keeps all supported coordinates positive, then
clip.  It is exact up to floating-point rounding, O(m log m).

The projection runs on Python floats at every size: the online
learner projects one m-vector per step, where numpy's per-call overhead
costs more than the arithmetic, and its float loop calls _project_floats
on its own lists.  It makes the operations of the numpy formulation
(np.sort reversed, cumsum, np.maximum) in their order, so both give the
same bits: the sort is descending; the running sum adds in order from
-0.0, as cumsum does at every length; the test u_k + (1 - css_k)/k > 0,
tau and y_i + tau are the same IEEE double operations; and since tau is
never -0.0, neither is y_i + tau, so clipping by comparison with 0.0
gives np.maximum's result, sign of zero included.  Ties sort in either
order at no cost, as equal values add to the same sums.  A non-finite
input raises before any arithmetic warns.
On a 2-core x86-64 VM (numpy 2.4, CPython 3.11) it costs what the numpy
formulation costs at n = 50, the largest vector a benchmark workload
projects, and about 2.4x and 9x as much at n = 100 and 1000.

Every sum whose bits reach the output is _ordered_sum, the last slice of
np.add.accumulate: numpy documents it as the running sum, so it adds
from the first term in index order at every length, as a left fold
a + b + c does (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 4).  np.add.reduce adds a row pairwise from
eight terms on, and BLAS in the order OpenBLAS picks for the CPU.
_ordered_dot and canonicalize are built on it, and the generated float
kernels of pooling and learning add as a + b + c, so the numpy and float
paths give the same bits at every size.

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


def _ordered_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over a nonempty ``axis``, from the first term in index order."""
    s = np.add.accumulate(a, axis)
    return s[..., -1] if axis == -1 else s[(slice(None),) * (axis % s.ndim) + (-1,)]


def _ordered_dot(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over ``axis`` of the products a * b (broadcast), in order."""
    return _ordered_sum(a * b, axis)


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
    # to -u_1; a sum of finite values is finite unless it overflows
    if tau is None or not math.isfinite(css) and not all(map(math.isfinite, v)):
        raise _unprojectable(np.array(v))
    # y_i + tau is never -0.0 (tau is not), so this clip is np.maximum's
    return [x + tau if x + tau > 0.0 else 0.0 for x in v]


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
