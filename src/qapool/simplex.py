"""Probability-simplex utilities: projection, sampling, canonicalization.

The Euclidean projection uses the sort-and-threshold construction
(Held, Wolfe & Crowder 1974; see also Wang & Carreira-Perpinan 2013):
sort the coordinates, find the largest support size rho for which the
water-filling threshold keeps all supported coordinates positive, then
clip.  It is exact up to floating-point rounding, O(m log m).

The sampler draws Dirichlet(1, ..., 1) as n i.i.d. Exp(1) variates
divided by their sum (Devroye, *Non-Uniform Random Variate Generation*,
1986, ch. XI).  Generator.dirichlet builds it the same way: each
variate is standard_gamma(1), the ziggurat exponential, the row total is
summed in order, and the row is multiplied by its reciprocal.  Drawing
the exponentials directly therefore gives every row bit for bit as
Generator.dirichlet with all-ones alpha would, and leaves the generator
in the same state, while a block of rows costs one generator call and
none of dirichlet's per-call argument checks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "canonicalize",
    "project_simplex",
    "project_simplex_floor",
    "random_simplex_point",
    "uniform_point",
]


def canonicalize(v: np.ndarray) -> np.ndarray:
    """Project onto the sum-zero hyperplane by subtracting the mean."""
    v = np.asarray(v, dtype=float)
    # the value of v.mean(), without its Python-level overhead on hot paths
    return v - v.sum() / v.size


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``y`` onto {x >= 0, sum x = 1}."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("expected a one-dimensional vector")
    u = np.sort(y)[::-1]
    css = u.cumsum()
    # largest k with u_k + (1 - sum_{i<=k} u_i)/k > 0; k = 1 always passes
    # in exact arithmetic, but not when 1 - u_1 rounds to -u_1 or y holds NaN
    passing = (u + (1.0 - css) / np.arange(1, y.size + 1) > 0).nonzero()[0]
    if passing.size == 0:
        raise ValueError(
            "cannot project onto the simplex: the threshold test fails at "
            f"every support size (largest |y_i| is {np.abs(y).max():.3g})"
        )
    rho = passing[-1]
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(y + tau, 0.0)


def project_simplex_floor(y: np.ndarray, floor: float) -> np.ndarray:
    """Projection onto the shrunken simplex {x >= floor, sum x = 1}.

    Requires n*floor < 1.  Substituting x = floor + z reduces to a
    standard simplex projection scaled by (1 - n*floor).
    """
    y = np.asarray(y, dtype=float)
    if floor <= 0.0:
        return project_simplex(y)
    slack = 1.0 - y.size * floor
    if slack <= 0.0:
        raise ValueError("floor too large for the dimension")
    z = project_simplex((y - floor) / slack)
    return floor + slack * z


def uniform_point(n: int) -> np.ndarray:
    """The barycenter (1/n, ..., 1/n)."""
    return np.full(n, 1.0 / n)


def random_simplex_point(
    rng: np.random.Generator, n: int, floor: float = 0.0, size: int | None = None
) -> np.ndarray:
    """Draw uniformly from the shell {p : min_j p_j >= floor}.

    floor + (1 - n*floor) * Dirichlet(1, ..., 1) is exactly the uniform
    law on that shrunken simplex; requires n*floor < 1.  With ``size``,
    a (size, n) block: row i is bit for bit the i-th of ``size``
    one-point calls, and the generator ends in the same state.
    """
    slack = 1.0 - n * floor
    if slack <= 0.0:
        raise ValueError("floor too large for the dimension")
    e = rng.standard_exponential(n if size is None else (size, n))
    # cumsum, not sum: the row total is summed in order, as dirichlet sums it
    return floor + slack * (e * (1.0 / e.cumsum(axis=-1)[..., -1:]))
