"""Convex minimization over a simplex: spectral projected gradient, and
projected Newton certified by the Frank-Wolfe gap.

projected_gradient follows the Barzilai-Borwein spectral rule safeguarded
by a non-monotone Armijo backtracking line search (the SPG scheme of
Birgin, Martinez & Raydan), which handles the badly conditioned
objectives the steep scoring rules produce.  Its stopping certificate is
the first-order (KKT) residual for {x >= lower, sum x = 1}: with A the
active lower bounds and lam the mean gradient over free coordinates,

    r_j = grad_j - lam              for free j,
    r_j = min(0, grad_j - lam)      for active j,

and the residual is ||r||_2.  It vanishes exactly at the constrained
minimizer of a convex objective.  The generalized pool uses it.

newton_simplex is Bertsekas's projected Newton method ("Projected Newton
methods for optimization problems with simple constraints", SIAM J.
Control Optim. 1982) on {x >= 0, sum x = 1}, with the exact Hessian.  The
largest coordinate k is eliminated by the equality, which leaves bounds
on the others, with reduced gradient r_i = g_i - g_k and reduced Hessian
H_ij - H_ik - H_kj + H_kk.  A coordinate within Bertsekas's epsilon of
its bound whose r_i pushes it there is active and takes a diagonally
scaled step; the free ones take the Newton step of the reduced Hessian
plus _DAMPING times its largest diagonal entry (Levenberg-Marquardt), so
that a singular Hessian (identical experts, or more experts than the
stream has directions) still gives a descent step, and the elimination
that solves for it stays stable.  The step is taken along the projection
arc y(a) = max(y - a d, 0), halving a until Bertsekas's Armijo condition
holds; a decrease at the rounding level of f passes, so the last steps,
which f can no longer resolve, are taken.  The certificate is the
Frank-Wolfe gap <g, x> - min_i g_i, which bounds f(x) - min f for a
convex f (Jaggi, ICML 2013); a solve that cannot bring it to the
tolerance raises SolverError naming it.  The step is made on Python
floats, with every sum in order and the m x m solve written out as an
elimination, so the iterates do not depend on the CPU's BLAS kernel.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SolverError
from .simplex import _ordered_dot

__all__ = ["kkt_residual", "newton_simplex", "projected_gradient"]

ARMIJO_C1 = 1e-4
KKT_TOL = 1e-8  # the residual at which a solve counts as converged
BACKTRACK = 0.5
ACTIVE_ATOL = 1e-12
NONMONOTONE_MEMORY = 10
STEP_MIN = 1e-14
STEP_MAX = 1e14

GAP_TOL = 1e-12  # the Frank-Wolfe gap at which a Newton solve is certified
NEWTON_MAX_ITER = 100
ARC_HALVINGS = 40  # trial steps along one projection arc before a solve stalls
ACTIVE_BAND = 1e-2  # Bertsekas's epsilon-bar: the widest band counted as active
_DAMPING = 1e-10  # Levenberg-Marquardt damping, relative to the largest diagonal
_ROUNDING = 64.0 * np.finfo(float).eps  # relative change in f below its rounding


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
        return float(np.sqrt(_ordered_dot(r, r)))


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
    boundary are handled as long as iterates can stay interior.  A trial
    point the projection refuses (too large for float64 to project) is
    an Armijo failure too.
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
            sy = float(_ordered_dot(s, y))
            if sy > 0.0:
                step = min(STEP_MAX, max(STEP_MIN, float(_ordered_dot(s, s)) / sy))
        f_ref = max(recent)
        eta = step
        accepted = False
        for _ in range(100):
            try:
                trial = project(x - eta * g)
            except ValueError:
                eta *= BACKTRACK
                continue
            d = trial - x
            if not np.any(d):
                break  # displacement below float resolution: stalled
            f_trial = objective(trial)
            if np.isfinite(f_trial) and f_trial <= f_ref + ARMIJO_C1 * float(
                _ordered_dot(g, d)
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


def _frank_wolfe_gap(grad: np.ndarray, x: np.ndarray) -> float:
    """<grad, x> - min_i grad_i at a point x of the simplex: an upper bound
    on f(x) - min f over the simplex when f is convex."""
    return float(_ordered_dot(grad, x) - grad.min())


def newton_simplex(
    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    hess: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """Minimize a smooth convex f over {x >= 0, sum x = 1} by projected
    Newton (module docstring), from the point x0 of the simplex.

    value_grad(x) gives f and its gradient; hess(x) gives the (m, m)
    Hessian and is asked only at the point value_grad was last asked at.
    Returns (x, f(x), gap) with the Frank-Wolfe gap at x at most GAP_TOL,
    the last point value_grad was asked at; raises SolverError naming the
    gap when no step, or no NEWTON_MAX_ITER steps, can bring it there.
    """
    x = np.asarray(x0, dtype=float)
    f, g = value_grad(x)
    gap = _frank_wolfe_gap(g, x)
    for _ in range(NEWTON_MAX_ITER):
        if gap <= GAP_TOL:
            return x, f, gap
        step = _arc_search(value_grad, x, f, _newton_arc(x, g, hess(x)))
        if step is None:
            break
        x, f, g = step
        gap = _frank_wolfe_gap(g, x)
    raise SolverError(
        f"projected Newton stalled at Frank-Wolfe gap {gap:.3e}, above {GAP_TOL:g}"
    )


def _arc_search(value_grad, x: np.ndarray, f: float, arc):
    """The first point of the arc, at step lengths 1, 1/2, 1/4, ..., that
    meets Armijo's condition within the rounding of f, with its value and
    gradient; None when none of ARC_HALVINGS does, or the step no longer
    moves x."""
    if arc is None:
        return None
    slack = _ROUNDING * max(1.0, abs(f))
    alpha = 1.0
    for _ in range(ARC_HALVINGS):
        trial, decrease = arc(alpha)
        alpha *= 0.5
        if trial is None:  # the eliminated coordinate would turn negative
            continue
        if np.array_equal(trial, x):  # a step below float resolution
            return None
        f_trial, g_trial = value_grad(trial)
        if f_trial <= f - ARMIJO_C1 * decrease + slack:
            return trial, f_trial, g_trial
    return None


def _newton_arc(x: np.ndarray, g: np.ndarray, H: np.ndarray):
    """The projection arc of one projected-Newton step at x: a function of
    the step length a giving the trial point (None where the eliminated
    coordinate would be negative) and the first-order decrease that
    Bertsekas's Armijo condition asks of it.  None when the step is not
    finite.  It runs on Python floats, whose arithmetic neither warns nor
    depends on the CPU, and adds every sum in order."""
    if not np.isfinite(H).all():
        return None
    xs, H = x.tolist(), H.tolist()
    k = xs.index(max(xs))
    gk, hk = float(g[k]), H[k]
    r = [v - gk for v in g.tolist()]

    def reduced(i: int, j: int) -> float:  # the reduced Hessian
        return H[i][j] - hk[j] - H[i][k] + hk[k]

    # epsilon = min(epsilon-bar, ||x - [x - r]^+||), as Bertsekas takes it
    reach = 0.0
    for v, ri in zip(xs, r):
        step = v - max(v - ri, 0.0)
        reach += step * step
    eps = min(ACTIVE_BAND, math.sqrt(reach))
    active = [i for i, (v, ri) in enumerate(zip(xs, r)) if v <= eps and ri > 0.0]  # never k
    fixed = {k, *active}
    free = [i for i in range(len(xs)) if i not in fixed]
    d = [0.0] * len(xs)
    solved = _solve_damped([[reduced(i, j) for j in free] for i in free], [r[i] for i in free])
    along = 0.0
    for i, v in zip(free, solved):
        d[i] = v
        along += r[i] * v
    for i in active:  # the diagonal Newton step, or the whole coordinate
        h = reduced(i, i)
        d[i] = r[i] / h if h > 0.0 else xs[i]
    if not (math.isfinite(along) and all(map(math.isfinite, d))):
        return None

    def arc(alpha: float):
        trial = [v - alpha * di for v, di in zip(xs, d)]
        trial = [v if v > 0.0 else 0.0 for v in trial]  # never -0.0
        top = 1.0
        for i, v in enumerate(trial):
            if i != k:
                top -= v
        if not top >= 0.0:
            return None, 0.0
        trial[k] = top
        decrease = alpha * along
        for i in active:
            decrease += r[i] * (xs[i] - trial[i])
        return np.array(trial), decrease

    return arc


def _solve_damped(A: list, b: list) -> list:
    """The solution of (A + mu I) v = b for a symmetric positive
    semidefinite A, given as a list of rows of which the lower triangle is
    read, with mu _DAMPING times A's largest diagonal entry (1 for a zero
    A), by Gaussian elimination in order with no pivoting (LDL^T).  A
    pivot that rounding leaves below mu is raised to mu.  A and b are
    overwritten."""
    size = len(b)
    top = max([abs(A[i][i]) for i in range(size)], default=0.0)
    mu = _DAMPING * top if top > 0.0 else 1.0
    pivots = []
    for i in range(size):
        pivot = A[i][i] + mu
        pivot = pivot if pivot >= mu else mu
        pivots.append(pivot)
        for j in range(i + 1, size):
            row, lower = A[j], A[j][i] / pivot
            for c in range(i + 1, j + 1):
                row[c] -= lower * A[c][i]
            b[j] -= lower * b[i]
    v = [0.0] * size
    for i in range(size - 1, -1, -1):
        total = b[i]
        for c in range(i + 1, size):
            total -= A[c][i] * v[c]  # the upper triangle, by symmetry
        v[i] = total / pivots[i]
    return v
