"""Convex minimization over the simplex: projected Newton, certified by
the Frank-Wolfe gap.

newton_simplex is Bertsekas's projected Newton method ("Projected Newton
methods for optimization problems with simple constraints", SIAM J.
Control Optim. 1982) on {x >= 0, sum x = 1}, with the exact Hessian.  The
largest coordinate k is eliminated by the equality, which leaves bounds
on the others, with reduced gradient r_i = g_i - g_k and reduced Hessian
R_ij = H_ij - H_kj - H_ik + H_kk.  A coordinate within Bertsekas's
epsilon of its bound whose r_i pushes it there is active and takes a
diagonally scaled step.  Epsilon is the distance ||x - [x - D r]^+|| that
the diagonal Newton step D r, D = diag(R)^-1, would move x, capped at
ACTIVE_BAND: an unscaled r would count an interior coordinate of a
strongly coupled objective (hs) as active whenever r is large.  The free
coordinates take the Newton step of the reduced Hessian plus _DAMPING
times its largest diagonal entry (Levenberg-Marquardt), so that a
singular Hessian (identical experts, or more experts than the stream has
directions) still gives a descent step, and the elimination that solves
for it stays stable.  The step is taken along the projection arc
y(a) = max(y - a d, 0), halving a until Bertsekas's Armijo condition
holds; a decrease at the rounding level of f passes, so the last steps,
which f can no longer resolve, are taken.  The certificate is the
Frank-Wolfe gap <g, x> - min_i g_i, which bounds f(x) - min f for a
convex f (Jaggi, ICML 2013); a solve that cannot bring it to the
tolerance raises SolverError naming it.

Every sum the step makes is in order and the solve is an elimination,
one rank-one update of the trailing block per pivot, so the iterates do
not depend on the CPU's BLAS kernel.  Both simplex problems of the
library run on it: learning's hindsight comparator, over the expert
weights, and pooling's generalized pool, over the pooled forecast.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SolverError
from .simplex import _ordered_dot

__all__ = ["newton_simplex"]

ARMIJO_C1 = 1e-4
GAP_TOL = 1e-12  # the Frank-Wolfe gap at which a Newton solve is certified
NEWTON_MAX_ITER = 100
ARC_HALVINGS = 40  # trial steps along one projection arc before a solve stalls
ACTIVE_BAND = 1e-2  # Bertsekas's epsilon-bar: the widest band counted as active
_DAMPING = 1e-10  # Levenberg-Marquardt damping, relative to the largest diagonal
_ROUNDING = 64.0 * np.finfo(float).eps  # relative change in f below its rounding
# _solve_damped updates a trailing block of more rows than this by one numpy
# outer product per pivot, and a smaller one on Python floats, whose loop is
# the faster below it (timed on a 2-vCPU x86-64 VM, numpy 2.4, CPython 3.11)
_OUTER_ROWS = 12


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


# an entry that overflows makes the step non-finite, and it is refused
@np.errstate(over="ignore", invalid="ignore")
def _newton_arc(x: np.ndarray, g: np.ndarray, H: np.ndarray):
    """The projection arc of one projected-Newton step at x: a function of
    the step length a giving the trial point (None where the eliminated
    coordinate would be negative) and the first-order decrease that
    Bertsekas's Armijo condition asks of it.  None when the step is not
    finite.  The reduced Hessian is one elementwise numpy expression and
    its free block is solved by _solve_damped; the rest runs on Python
    floats, whose arithmetic neither warns nor depends on the CPU, and
    adds every sum in order."""
    if not np.isfinite(H).all():
        return None
    xs = x.tolist()
    k = xs.index(max(xs))
    gk = float(g[k])
    r = [v - gk for v in g.tolist()]
    R = ((H - H[k]) - H[:, k, None]) + H[k, k]  # the reduced Hessian
    diag = R.diagonal().tolist()
    # epsilon = min(epsilon-bar, ||x - [x - D r]^+||), D the diagonal
    # Newton scaling (1 where R_ii is not positive)
    reach = 0.0
    for v, ri, h in zip(xs, r, diag):
        step = v - max(v - (ri / h if h > 0.0 else ri), 0.0)
        reach += step * step
    eps = min(ACTIVE_BAND, math.sqrt(reach))
    active = [i for i, (v, ri) in enumerate(zip(xs, r)) if v <= eps and ri > 0.0]  # never k
    fixed = {k, *active}
    free = [i for i in range(len(xs)) if i not in fixed]
    solved = _solve_damped(R.take(free, 0).take(free, 1), np.array([r[i] for i in free]))
    d = [0.0] * len(xs)
    along = 0.0
    for i, v in zip(free, solved):
        d[i] = v
        along += r[i] * v
    for i in active:  # the diagonal Newton step, or the whole coordinate
        h = diag[i]
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


def _solve_damped(A: np.ndarray, b: np.ndarray) -> list:
    """The solution, as a list, of (A + mu I) v = b for a symmetric
    positive semidefinite (s, s) array A of which the lower triangle is
    read, with mu _DAMPING times A's largest diagonal entry (1 for a zero
    A), by Gaussian elimination in order with no pivoting (LDL^T).  A
    pivot that rounding leaves below mu is raised to mu.  Each pivot
    subtracts a rank-one product from the trailing block and from b,
    entry by entry: A[j][c] -= l_j A[c][i] and b[j] -= l_j b[i] with
    l_j = A[j][i] / pivot, as one numpy outer product while the block has
    more than _OUTER_ROWS rows and on Python floats after that (the same
    operations, so the cut is for speed).  The back-substitution runs on
    Python floats in row order.  A and b are overwritten; the caller
    decides which floating-point errors numpy reports."""
    size = b.size
    top = max(map(abs, A.diagonal().tolist()), default=0.0)
    mu = _DAMPING * top if top > 0.0 else 1.0
    pivots = []
    lead = max(0, size - 1 - _OUTER_ROWS)
    for i in range(lead):
        pivot = A.item(i, i) + mu
        pivots.append(pivot if pivot >= mu else mu)
        column = A[i + 1:, i]
        lower = column / pivots[i]
        A[i + 1:, i + 1:] -= np.multiply.outer(lower, column)
        b[i + 1:] -= lower * b.item(i)
    A, b = A.tolist(), b.tolist()
    for i in range(lead, size):
        pivot = A[i][i] + mu
        pivots.append(pivot if pivot >= mu else mu)
        for j in range(i + 1, size):
            row, lower = A[j], A[j][i] / pivots[i]
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
