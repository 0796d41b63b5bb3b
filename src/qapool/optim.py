"""Projected gradient descent over a simplex, with spectral step sizes.

Steps follow the Barzilai-Borwein spectral rule safeguarded by a
non-monotone Armijo backtracking line search (the SPG scheme of Birgin,
Martinez & Raydan), which handles the badly conditioned objectives the
steep scoring rules produce.  The stopping certificate is the
first-order (KKT) residual for {x >= lower, sum x = 1}: with A the
active lower bounds and lam the mean gradient over free coordinates,

    r_j = grad_j - lam              for free j,
    r_j = min(0, grad_j - lam)      for active j,

and the residual is ||r||_2.  It vanishes exactly at the constrained
minimizer of a convex objective.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["kkt_residual", "projected_gradient"]

ARMIJO_C1 = 1e-4
KKT_TOL = 1e-8  # the residual at which a solve counts as converged
BACKTRACK = 0.5
ACTIVE_ATOL = 1e-12
NONMONOTONE_MEMORY = 10
STEP_MIN = 1e-14
STEP_MAX = 1e14


def kkt_residual(grad: np.ndarray, x: np.ndarray, lower: float = 0.0) -> float:
    """First-order violation of stationarity at x for the floored simplex."""
    active = x <= lower + ACTIVE_ATOL
    free = ~active
    if not np.any(free):
        # floors sum below 1, so at least one coordinate is free
        raise ValueError("no free coordinate above the lower bound")
    lam = grad[free].mean()
    r = grad - lam
    r[active] = np.minimum(r[active], 0.0)
    # a residual too large for float64 is inf, without numpy's warning
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(r))


def projected_gradient(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
    *,
    lower: float = 0.0,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float, bool]:
    """Minimize a smooth convex objective over a (floored) simplex.

    Returns (x, kkt, converged).  Non-finite trial objectives count as
    Armijo failures, so domains where the objective blows up at the
    boundary are handled as long as iterates can stay interior.
    """
    x = project(np.asarray(x0, dtype=float))
    f = objective(x)
    g = gradient(x)
    recent = [f]
    step = 1.0
    prev_x: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    kkt = np.inf
    for _ in range(max_iter):
        kkt = kkt_residual(g, x, lower)
        if kkt <= KKT_TOL:
            return x, kkt, True
        if prev_x is not None:
            s = x - prev_x
            y = g - prev_g
            sy = float(np.dot(s, y))
            if sy > 0.0:
                step = min(STEP_MAX, max(STEP_MIN, float(np.dot(s, s)) / sy))
        f_ref = max(recent)
        eta = step
        accepted = False
        for _ in range(100):
            trial = project(x - eta * g)
            d = trial - x
            if not np.any(d):
                break  # displacement below float resolution: stalled
            f_trial = objective(trial)
            if np.isfinite(f_trial) and f_trial <= f_ref + ARMIJO_C1 * float(
                np.dot(g, d)
            ):
                accepted = True
                break
            eta *= BACKTRACK
        if not accepted:
            return x, kkt, False
        prev_x, prev_g = x, g
        x, f = trial, f_trial
        g = gradient(x)
        recent.append(f)
        if len(recent) > NONMONOTONE_MEMORY:
            recent.pop(0)
    kkt = kkt_residual(g, x, lower)
    return x, kkt, kkt <= KKT_TOL
