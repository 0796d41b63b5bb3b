"""Independent oracles the tests check library output against.

Everything here is deliberately naive: finite differences, exhaustive
face enumeration, dense grid search, directly-transcribed textbook
formulas, and exposure inversion by convex minimization instead of the
library's closed forms and shift equation.  None of it shares code with
the library paths it verifies, except the per-check suite references at
the end: they check how the suites batch and draw, not the pooling they
share with the library.
"""

from __future__ import annotations

import numpy as np


def fd_canonical_gradient(G, p: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Tangent-space central differences of a scalar field on the simplex.

    Differencing along v_j = e_j - (1/n) 1 gives exactly the sum-zero
    canonicalization of grad G, coordinate by coordinate.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    out = np.empty(n)
    for j in range(n):
        v = -np.ones(n) / n
        v[j] += 1.0
        out[j] = (G(p + h * v) - G(p - h * v)) / (2.0 * h)
    return out


def project_simplex_faces(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex by face enumeration.

    Tries every support set: zero out the complement, shift the rest to
    sum to one, keep feasible candidates, return the closest.  O(2^m),
    fine for small m.
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    best, best_d = None, np.inf
    for support in range(1, 2**m):
        idx = [i for i in range(m) if support >> i & 1]
        x = np.zeros(m)
        shift = (1.0 - y[idx].sum()) / len(idx)
        x[idx] = y[idx] + shift
        if np.any(x[idx] < -1e-12):
            continue
        d = float(np.linalg.norm(np.maximum(x, 0.0) - y))
        if d < best_d:
            best_d, best = d, np.maximum(x, 0.0)
    return best


def weighted_arithmetic_mean(ps: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    return sum(wi * np.asarray(p, dtype=float) for wi, p in zip(w, ps))


def weighted_geometric_mean(ps: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """Coordinate-wise weighted geometric mean, normalized to the simplex."""
    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    logs = sum(wi * np.log(np.asarray(p, dtype=float)) for wi, p in zip(w, ps))
    x = np.exp(logs)
    return x / x.sum()


def weighted_power_mean(ps: list[np.ndarray], w: np.ndarray, rho: float) -> np.ndarray:
    """Coordinate-wise weighted power mean with an additive shift chosen
    so the result lands on the simplex (the tsallis pooling shape)."""
    from scipy.optimize import brentq  # not a runtime dependency; tests only

    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    v = sum(wi * np.asarray(p, dtype=float) ** rho for wi, p in zip(w, ps))
    u = v - v.min()  # the admissible shifts are d > 0 in v + (d - min v)
    expo = 1.0 / rho

    def h(d):
        return np.power(u + d, expo).sum() - 1.0

    if rho < 0.0:
        # h falls from +inf (d -> 0) to -1 (d -> inf)
        lo = 1.0
        while h(lo) < 0.0:
            lo *= 0.5
        hi = 2.0 * lo
        while h(hi) > 0.0:
            hi *= 2.0
    else:
        # h rises with d; a root needs h(0) <= 0
        lo = 0.0
        if h(lo) > 0.0:
            raise ValueError("no admissible shift puts the mean on the simplex")
        hi = 1.0
        while h(hi) < 0.0:
            hi *= 2.0
    d = brentq(h, lo, hi, xtol=1e-15)
    x = np.power(u + d, expo)
    return x / x.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def simplex_grid(n: int, step: float) -> np.ndarray:
    """All simplex points with coordinates on a uniform grid of pitch step."""
    k = int(round(1.0 / step))
    if n == 2:
        a = np.arange(k + 1) / k
        return np.column_stack([a, 1.0 - a])
    if n == 3:
        pts = []
        for i in range(k + 1):
            js = np.arange(k - i + 1)
            a = np.full(js.size, i / k)
            b = js / k
            c = np.maximum(1.0 - a - b, 0.0)  # scrub -1e-16 rounding dust
            pts.append(np.column_stack([a, b, c]))
        return np.vstack(pts)
    raise NotImplementedError("grids beyond n=3 are too large to enumerate")


def grid_argmin(fun, n: int, step: float) -> tuple[np.ndarray, float]:
    """Dense-grid minimizer of a vectorized function over the simplex."""
    grid = simplex_grid(n, step)
    vals = fun(grid)
    k = int(np.argmin(vals))
    return grid[k], float(vals[k])


def brute_weight_grid(m: int, step: float) -> np.ndarray:
    """All weight vectors on a grid over the m-simplex."""
    k = int(round(1.0 / step))
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        a = np.arange(k + 1) / k
        return np.column_stack([a, 1.0 - a])
    if m == 3:
        pts = []
        for i in range(k + 1):
            js = np.arange(k - i + 1)
            a = np.full(js.size, i / k)
            b = js / k
            pts.append(np.column_stack([a, b, 1.0 - a - b]))
        return np.vstack(pts)
    raise NotImplementedError


def all_distributions(rng: np.random.Generator, n: int, count: int,
                      floor: float = 0.0) -> list[np.ndarray]:
    out = []
    while len(out) < count:
        p = rng.dirichlet(np.ones(n))
        if p.min() >= floor:
            out.append(p)
    return out


def spg_inverse(rule, t):
    """The forecast whose canonical exposure is t, as the minimizer of the
    tilted objective G(x) - <t, x> over the simplex (its gradient is
    g(x) - t), found by optim.projected_gradient from the barycenter.

    Iterates stay above 1e-12 on an open domain.  A stall whose KKT
    residual is within the scale-aware 1e-7 counts as float-optimal; a
    minimizer whose exposure misses t by more than the scale-aware 1e-6
    sits on a face of the simplex, and t is not attainable.
    """
    from qapool import ExposureVector, Forecast
    from qapool.errors import ExposureRangeError, SolverError
    from qapool.optim import projected_gradient
    from qapool.rules import _expected, _exposures, _gradient
    from qapool.simplex import project_simplex, project_simplex_floor

    t = ExposureVector(np.asarray(t, dtype=float)).coords
    floor = 1e-12 if rule.domain_kind == "open" else 0.0

    def scaled(tol):
        # absolute tolerances widen with the exposure magnitude
        scale = max(1.0, float(np.abs(t).max()))
        return tol * max(1.0, scale * float(np.linalg.norm(t / scale)))

    x, kkt, converged = projected_gradient(
        lambda x: _expected(rule, x) - float(np.dot(t, x)),
        lambda x: _gradient(rule, x) - t,
        np.full(t.size, 1.0 / t.size),
        (lambda y: project_simplex_floor(y, floor)) if floor > 0.0 else project_simplex,
        lower=floor,
    )
    if not converged and not kkt <= scaled(1e-7):
        raise SolverError(f"SPG inversion for {rule.label} stalled at KKT residual {kkt:.3e}")
    f = Forecast(x)
    if not np.linalg.norm(_exposures(rule, f.probs) - t) <= scaled(1e-6):
        raise ExposureRangeError(
            f"target exposure is not attainable for rule {rule.label}: the "
            "tilted-objective minimizer sits on a face with mismatched gradient"
        )
    return f


# --------------------------------------------------------------------------
# per-check suite references: one certified batch per check, one sampler
# call per draw, as the axiom suite and the concavity probe ran before
# their pools were stacked and their draws transformed in bulk
# --------------------------------------------------------------------------

def _per_draw_weighted(rng, n, floor, count, per):
    from qapool.rules import _simplex_rows
    from qapool.simplex import random_simplex_point

    P, W = np.empty((count, per, n)), np.empty((count, per))
    for i in range(count):
        for r in range(per):
            P[i, r] = random_simplex_point(rng, n, floor)
            W[i, r] = rng.uniform(0.1, 2.0)
    return _simplex_rows(P), W


def per_check_axiom_suite(rule, n: int, samples: int, seed: int):
    """axiom_suite with one _pool_rows call per check (two for
    associativity), each check's draws made just before it."""
    from qapool.analysis import (
        STRICT_FLOOR, AxiomCheck, AxiomSuiteReport, _check_draws, _cycle_sums,
        _distinct_points, _sampling_floor,
    )
    from qapool.errors import ConfigError
    from qapool.pooling import _pool_rows
    from qapool.rules import _simplex_rows, has_convex_exposure
    from qapool.simplex import random_simplex_point

    _check_draws(n, samples)
    if not has_convex_exposure(rule, n):
        raise ConfigError(f"rule {rule.label} lacks convex exposure at n={n}")
    rng = np.random.default_rng(seed)
    floor = _sampling_floor(rule)

    def pool(*parts):
        X, total, _, _ = _pool_rows(
            rule, np.concatenate([P for P, _ in parts]), np.concatenate([W for _, W in parts])
        )
        return X, total

    checks = []
    P, W = _per_draw_weighted(rng, n, floor, samples, 2)
    _, total = pool((P, W))
    gap = float(np.abs(total - (W[:, 0] + W[:, 1])).max())
    checks.append(AxiomCheck("weight_additivity", gap == 0.0, gap, 0.0))

    P, W = _per_draw_weighted(rng, n, floor, samples, 2)
    X, _ = pool((P, W), (P[:, ::-1], W[:, ::-1]))
    gap = float(np.abs(X[:samples] - X[samples:]).max())
    checks.append(AxiomCheck("commutativity", gap <= 1e-12, gap, 1e-12))

    P, W = _per_draw_weighted(rng, n, floor, samples, 3)
    X, total = pool((P[:, :2], W[:, :2]), (P[:, 1:], W[:, 1:]))
    X, total = pool(
        (np.stack([X[:samples], P[:, 2]], axis=1), np.stack([total[:samples], W[:, 2]], axis=1)),
        (np.stack([P[:, 0], X[samples:]], axis=1), np.stack([W[:, 0], total[samples:]], axis=1)),
    )
    d = np.maximum(
        np.abs(X[:samples] - X[samples:]).max(axis=1), np.abs(total[:samples] - total[samples:])
    )
    gap = float(d.max())
    checks.append(AxiomCheck("associativity", gap <= 1e-9, gap, 1e-9))

    P, W = np.empty((samples, 1, n)), np.empty((samples, 2))
    for i in range(samples):
        P[i, 0] = random_simplex_point(rng, n, floor)
        W[i] = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
    P = _simplex_rows(P).repeat(2, axis=1)
    X, _ = pool((P, W))
    gap = float(np.abs(X - P[:, 0]).max())
    checks.append(AxiomCheck("idempotence", gap <= 1e-12, gap, 1e-12))

    P, W = _per_draw_weighted(rng, n, floor, samples, 2)
    X, _ = pool((P, W), (P, W + [1e-6, 0.0]))
    gap = float(np.abs(X[samples:] - X[:samples]).max())
    checks.append(AxiomCheck("continuity", gap <= 1e-3, gap, 1e-3))

    if n == 2:
        pairs = []
        for _ in range(max(1, samples // 10)):
            while True:
                p1, p2 = _simplex_rows(random_simplex_point(rng, 2, floor, size=2))
                if p1[0] < p2[0]:
                    p1, p2 = p2, p1
                if p1[0] - p2[0] >= 0.05:
                    break
            pairs.append((p1, p2))
        xs = np.linspace(0.01, 0.99, 101)
        P = np.repeat(np.array(pairs), xs.size, axis=0)
        W = np.tile(np.stack([xs, 1.0 - xs], axis=1), (len(pairs), 1))
        X, _ = pool((P, W))
        diffs = np.diff(X[:, 0].reshape(len(pairs), xs.size), axis=1)
        checks.append(
            AxiomCheck("monotonicity_n2", bool(np.all(diffs > 0.0)), float(diffs.min()), 0.0)
        )
    else:
        cycles = [_distinct_points(rng, n, rule, int(rng.integers(2, 6))) for _ in range(samples)]
        totals = _cycle_sums(rule, cycles)
        checks.append(
            AxiomCheck(
                "cyclical_monotonicity", bool(np.all(totals > STRICT_FLOOR)),
                float(totals.min()), STRICT_FLOOR,
            )
        )
    return AxiomSuiteReport(rule.label, n, samples, seed, tuple(checks))


def per_check_concavity_gap(rule, n: int, samples: int, seed: int) -> float:
    """concavity_probe's worst gap with one pools call per weight vector
    and expert count, each point drawn by its own sampler call."""
    from qapool.analysis import _check_draws, _sampling_floor
    from qapool.learning import _losses, _weight_rows
    from qapool.pooling import _invert_rows, _mix
    from qapool.rules import _exposures, _simplex_rows
    from qapool.simplex import random_simplex_point

    _check_draws(n, samples)
    rng = np.random.default_rng(seed)
    floor = _sampling_floor(rule)
    draws = []
    for _ in range(samples):
        m = int(rng.choice((2, 3)))
        P = random_simplex_point(rng, n, floor, size=m)
        v, w = random_simplex_point(rng, m, size=2)
        c = rng.uniform()
        j = int(rng.integers(1, n + 1))
        draws.append((m, P, v, w, c, j))
    worst = np.inf
    for m in sorted({d[0] for d in draws}):
        _, P, V, W, c, J = (np.array(x) for x in zip(*(d for d in draws if d[0] == m)))
        E = _exposures(rule, _simplex_rows(P))
        mixed, at_v, at_w = (
            -_losses(rule, _invert_rows(rule, _mix(E, _weight_rows(U))), J - 1)
            for U in (c[:, None] * V + (1.0 - c[:, None]) * W, V, W)
        )
        worst = min(worst, float((mixed - c * at_v - (1.0 - c) * at_w).min()))
    return worst


# --------------------------------------------------------------------------
# the online learner's step as it ran before its one-row path was trimmed:
# numpy's projection, the method-call reductions, and canonicalization by
# a copy.  Root-find families share the library's shift problem and Newton
# kernel, which that change left alone.
# --------------------------------------------------------------------------

def numpy_project_simplex(y: np.ndarray) -> np.ndarray:
    """Sort-and-threshold projection onto the simplex, in numpy at every size."""
    y = np.asarray(y, dtype=float)
    u = np.sort(y)[::-1]
    css = u.cumsum()
    passing = (u + (1.0 - css) / np.arange(1, y.size + 1) > 0).nonzero()[0]
    if passing.size == 0:
        raise ValueError(
            "cannot project onto the simplex: the threshold test fails at "
            f"every support size (largest |y_i| is {np.abs(y).max():.3g})"
        )
    rho = passing[-1]
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(y + tau, 0.0)


def reference_pools(rule, E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pools of the (k, m, n) exposure rows E under the (m,) weights w."""
    from qapool.pooling import _solve_shift

    # sums of products in numpy's fixed order, not a BLAS kernel's
    T = (w[:, None] * E).sum(axis=1)
    T -= T.sum(axis=1, keepdims=True) / T.shape[1]
    if rule.family == "quadratic":
        X = 0.5 * T + 1.0 / T.shape[1]
        assert X.min() >= -1e-12
        X = np.maximum(X, 0.0)
    elif rule.family == "log":
        X = np.exp(T - T.max(axis=1, keepdims=True))
    else:
        a, p, q, lo, hi = rule._impl.shift(T, rule.param)
        c = _solve_shift(a, p, lo, hi)
        with np.errstate(divide="ignore"):
            X = (a + c[:, None]) ** q
    s = X.sum(axis=1, keepdims=True)
    assert np.isfinite(s).all() and s.min() > 0.0
    return X / s


def reference_step(rule, E_t: np.ndarray, j: int, w: np.ndarray):
    """Pool and loss gradient of one step: (m, n) exposures, 0-based j."""
    x = reference_pools(rule, E_t[None], w)[0]
    d = x.copy()
    d[j] -= 1.0
    g = (E_t * d).sum(axis=1)
    return x, g - g.sum() / g.size


def hindsight_loss_and_gap(rule, E: np.ndarray, J0: np.ndarray, w: np.ndarray):
    """The total loss of the pools of the (T, m, n) exposures E under the
    weights w at the 0-based outcomes J0, and the Frank-Wolfe gap
    <g, w> - min_i g_i of the per-step mean loss there, g its gradient."""
    from qapool.rules import _score_matrix

    X = reference_pools(rule, E, w)
    rows = np.arange(E.shape[0])
    D = X.copy()
    D[rows, J0] -= 1.0
    g = (E * D[:, None, :]).sum(axis=(0, 2)) / E.shape[0]
    return float(-_score_matrix(rule, X)[rows, J0].sum()), float(g @ w - g.min())


def reference_ogd(rule, P: np.ndarray, J: np.ndarray, M: float):
    """ogd_run's loop on a checked, clamped (T, m, n) stream with 1-based
    outcomes, and its hindsight solve as it was made before projected
    Newton replaced SPG: per-step pools, gradients, weights (before each
    step), losses, the final weights, and the best fixed weights by SPG
    (an oracle the Newton answer must match within SPG's tolerance)."""
    from qapool.optim import projected_gradient
    from qapool.rules import _exposures, _score_matrix

    E = _exposures(rule, P)
    T, m, _ = E.shape
    rows, J0 = np.arange(T), J - 1
    etas = 1.0 / (M * np.sqrt(m * np.arange(1, T + 1)))
    w = np.full(m, 1.0 / m)
    X, G, Wt = np.empty((T, P.shape[2])), np.empty((T, m)), np.empty((T, m))
    for t in range(T):
        Wt[t] = w
        X[t], G[t] = reference_step(rule, E[t], J0[t], w)
        w = numpy_project_simplex(w - etas[t] * G[t])

    def losses(Y):
        return -_score_matrix(rule, Y)[rows, J0]

    def total_grad(v):
        D = reference_pools(rule, E, v)
        D[rows, J0] -= 1.0
        g = np.einsum("tmn,tn->m", E, D)
        return g - g.sum() / g.size

    inv_t = 1.0 / T
    best, _, _ = projected_gradient(
        lambda v: float(losses(reference_pools(rule, E, v)).sum()) * inv_t,
        lambda v: total_grad(v) * inv_t,
        np.full(m, 1.0 / m),
        numpy_project_simplex,
        max_iter=1_000_000,
    )
    return X, G, Wt, losses(X), w, best
