"""Optimality verification and property suites.

Covers three groups of checks:

* max-min surplus: the pool maximizes the aggregator's worst-case
  profit u(p; j) = s(p; j) - sum_i w_i s(p_i; j), equalizes it across
  outcomes, and the common value equals the weighted sum of Bregman
  divergences from the pool to the inputs;
* pooling-operator axioms (weight additivity, commutativity,
  associativity, continuity, idempotence, monotonicity / cyclical
  monotonicity), evaluated on seeded random draws;
* exposure-range probes that measure how often averaged exposures fail
  to invert, separating convex-exposure rules (never) from the
  tsallis family above parameter 2 (detectably, at n > 2).

Each check draws all of its seeded samples first, in a fixed order,
and then evaluates them batched: the axioms through one certified
pooling._pool_rows call per check (qa_pool is its one-row case), the
exposure probe through one certified batch inversion whose per-row
failure reports it counts, the concavity probe through one batch of
pools per weight vector and expert count, the cyclical-monotonicity
check through one exposure array per cycle length.  A batch makes every
check that the one-sample calls make.  Consecutive points are drawn as
one block (simplex.random_simplex_point with ``size``), bit for bit the
points one-point draws give, so a seed gives the same samples either way.

"Strict" numerical claims use separation floors instead of raw
inequalities; the continuity check is sampling evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExposureRangeError
from .pooling import (
    _UNATTAINABLE,
    _certified_inverse,
    _check_weights,
    _mix,
    _pool_rows,
    _prepare,
    _row_norms,
    invert_exposure,
    qa_pool,
)
from .rules import (
    Forecast,
    RuleSpec,
    as_forecast,
    has_convex_exposure,
    _exposures,
    _score_matrix,
    _simplex_rows,
)
from .simplex import random_simplex_point

__all__ = [
    "SurplusReport",
    "AxiomCheck",
    "AxiomSuiteReport",
    "ExposureProbeReport",
    "ConcavityReport",
    "sample_forecast",
    "aggregator_utility",
    "surplus_report",
    "maxmin_verify",
    "axiom_suite",
    "exposure_probe",
    "concavity_probe",
]

# open-domain rules are sampled inside this shell so that stated
# absolute tolerances stay meaningful at float64 exposure magnitudes
OPEN_SAMPLING_FLOOR = 1e-3

STRICT_FLOOR = 1e-12


def _sampling_floor(rule: RuleSpec | None) -> float:
    if rule is not None and rule.domain_kind == "open":
        return OPEN_SAMPLING_FLOOR
    return 0.0


def sample_forecast(rng: np.random.Generator, n: int, rule: RuleSpec | None = None) -> Forecast:
    """Dirichlet(1,...,1) draw, shell-restricted for open-domain rules."""
    return Forecast(random_simplex_point(rng, n, _sampling_floor(rule)))


@dataclass(frozen=True)
class SurplusReport:
    """Per-outcome aggregator utilities at the pool.

    surplus is the guaranteed profit min_j u(p*; j); the equalization
    gap max_j u - min_j u certifies outcome-independence.
    """

    per_outcome_utility: np.ndarray
    surplus: float
    equalization_gap: float


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    worst_gap: float
    tolerance: float
    note: str = ""


@dataclass(frozen=True)
class AxiomSuiteReport:
    rule: str
    n: int
    samples: int
    seed: int
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ExposureProbeReport:
    """Inversion failure statistics for averaged exposures."""

    rule: str
    n: int
    samples: int
    seed: int
    failures: int
    solver_failures: int
    canonical_vertex_failure: bool | None  # closed-domain rules, n > 2 only

    @property
    def failure_rate(self) -> float:
        return self.failures / self.samples


@dataclass(frozen=True)
class ConcavityReport:
    """Worst concavity gap of the pooled score over weight mixtures."""

    rule: str
    n: int
    samples: int
    seed: int
    worst_gap: float
    tolerance: float = 1e-9

    @property
    def passed(self) -> bool:
        return self.worst_gap >= -self.tolerance


# --------------------------------------------------------------------------
# max-min surplus
# --------------------------------------------------------------------------

def _utilities(rule: RuleSpec, reports: np.ndarray, inputs) -> np.ndarray:
    """U[r, j-1] = u(report r; j) for the rows of a (k, n) report array."""
    P, W = _prepare(inputs)
    _check_weights(P[None], W[None])
    k = reports.shape[0]
    S = _score_matrix(rule, np.vstack([reports, P]))
    return S[:k] - (W / W.sum()) @ S[k:]


def _surplus(rule: RuleSpec, report: Forecast, inputs) -> SurplusReport:
    u = _utilities(rule, report.probs[None], inputs)[0]
    return SurplusReport(
        per_outcome_utility=u,
        surplus=float(u.min()),
        equalization_gap=float(u.max() - u.min()),
    )


def aggregator_utility(rule: RuleSpec, report, inputs, j: int) -> float:
    """Profit of reporting ``report`` while paying the experts: the
    report's score minus the weighted average of expert scores."""
    r = as_forecast(report)
    if not 1 <= j <= r.n:
        raise IndexError(f"outcome {j} out of range 1..{r.n}")
    return float(_utilities(rule, r.probs[None], inputs)[0, j - 1])


def surplus_report(rule: RuleSpec, inputs) -> SurplusReport:
    """Utilities of the pool across outcomes, with their spread."""
    return _surplus(rule, qa_pool(rule, inputs).pooled, inputs)


def maxmin_verify(rule: RuleSpec, inputs, trials: int, seed: int = 0) -> bool:
    """Check that no sampled alternative report beats the pool's
    guaranteed utility beyond tolerance 1e-10."""
    pool = qa_pool(rule, inputs).pooled.probs
    rng = np.random.default_rng(seed)
    Q = _simplex_rows(random_simplex_point(rng, pool.size, _sampling_floor(rule), size=trials))
    Q = Q[np.linalg.norm(Q - pool, axis=1) >= 1e-9]
    worst = _utilities(rule, np.vstack([pool, Q]), inputs).min(axis=1)
    return not np.any(worst[1:] >= worst[0] + 1e-10)


# --------------------------------------------------------------------------
# axiom suite
# --------------------------------------------------------------------------

def _check_draws(n: int, samples: int) -> None:
    # a check over no draws, or over draws with one outcome, passes vacuously
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if n < 2:
        raise ValueError("need at least two outcomes")


def _weighted_draws(
    rng: np.random.Generator, n: int, rule: RuleSpec, count: int, per: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows of ``per`` weighted forecasts, drawn forecast then
    weight, in row order: (count, per, n) forecasts, (count, per) weights.

    The forecasts are those of sample_forecast, renormalized in bulk.
    """
    floor = _sampling_floor(rule)
    P, W = np.empty((count, per, n)), np.empty((count, per))
    for i in range(count):
        for r in range(per):
            P[i, r] = random_simplex_point(rng, n, floor)
            W[i, r] = rng.uniform(0.1, 2.0)
    return _simplex_rows(P), W


def axiom_suite(rule: RuleSpec, n: int, samples: int, seed: int) -> AxiomSuiteReport:
    """Exercise the pooling-operator axioms on seeded random draws.

    Requires convex exposure at dimension n (the operator must be total
    for the axioms to be well-posed).  The binary operator pools a pair
    of weighted forecasts to their pool, carrying the summed weight.  Each
    check draws all its samples first, in a fixed order, then pools them
    in one certified batch (pooling._pool_rows; associativity makes one
    batch per nesting level).
    """
    _check_draws(n, samples)
    if not has_convex_exposure(rule, n):
        raise ConfigError(
            f"rule {rule.label} lacks convex exposure at n={n}; "
            "the pooling operator is partial there"
        )
    rng = np.random.default_rng(seed)

    def pool(*parts: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        # pools and total weights of the stacked (forecasts, weights) parts
        X, total, _, _ = _pool_rows(
            rule,
            np.concatenate([P for P, _ in parts]),
            np.concatenate([W for _, W in parts]),
        )
        return X, total

    checks: list[AxiomCheck] = []

    # weight additivity: exact by construction of the operator
    P, W = _weighted_draws(rng, n, rule, samples, 2)
    _, total = pool((P, W))
    gap = float(np.abs(total - (W[:, 0] + W[:, 1])).max())
    checks.append(AxiomCheck("weight_additivity", gap == 0.0, gap, 0.0))

    P, W = _weighted_draws(rng, n, rule, samples, 2)
    X, _ = pool((P, W), (P[:, ::-1], W[:, ::-1]))
    gap = float(np.abs(X[:samples] - X[samples:]).max())
    checks.append(AxiomCheck("commutativity", gap <= 1e-12, gap, 1e-12))

    P, W = _weighted_draws(rng, n, rule, samples, 3)
    X, total = pool((P[:, :2], W[:, :2]), (P[:, 1:], W[:, 1:]))  # ab, bc
    X, total = pool(
        (
            np.stack([X[:samples], P[:, 2]], axis=1),
            np.stack([total[:samples], W[:, 2]], axis=1),
        ),
        (
            np.stack([P[:, 0], X[samples:]], axis=1),
            np.stack([W[:, 0], total[samples:]], axis=1),
        ),
    )
    d = np.maximum(
        np.abs(X[:samples] - X[samples:]).max(axis=1),
        np.abs(total[:samples] - total[samples:]),
    )
    gap = float(d.max())
    checks.append(AxiomCheck("associativity", gap <= 1e-9, gap, 1e-9))

    P, W = np.empty((samples, 1, n)), np.empty((samples, 2))
    for i in range(samples):  # one forecast at two weights
        P[i, 0] = random_simplex_point(rng, n, _sampling_floor(rule))
        W[i] = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
    P = _simplex_rows(P).repeat(2, axis=1)
    X, _ = pool((P, W))
    gap = float(np.abs(X - P[:, 0]).max())
    checks.append(AxiomCheck("idempotence", gap <= 1e-12, gap, 1e-12))

    # continuity: sampled Lipschitz evidence, not a proof
    P, W = _weighted_draws(rng, n, rule, samples, 2)
    X, _ = pool((P, W), (P, W + [1e-6, 0.0]))
    gap = float(np.abs(X[samples:] - X[:samples]).max())
    checks.append(
        AxiomCheck(
            "continuity", gap <= 1e-3, gap, 1e-3,
            note="sampling evidence: weight bump 1e-6 moves the pool little",
        )
    )

    if n == 2:
        pairs = []
        for _ in range(max(1, samples // 10)):
            while True:
                p1, p2 = _simplex_rows(random_simplex_point(rng, 2, _sampling_floor(rule), size=2))
                if p1[0] < p2[0]:
                    p1, p2 = p2, p1
                if p1[0] - p2[0] >= 0.05:
                    break
            pairs.append((p1, p2))
        # each pair at each weight share x of its larger forecast
        xs = np.linspace(0.01, 0.99, 101)
        P = np.repeat(np.array(pairs), xs.size, axis=0)
        W = np.tile(np.stack([xs, 1.0 - xs], axis=1), (len(pairs), 1))
        X, _ = pool((P, W))
        diffs = np.diff(X[:, 0].reshape(len(pairs), xs.size), axis=1)
        checks.append(
            AxiomCheck(
                "monotonicity_n2", bool(np.all(diffs > 0.0)), float(diffs.min()), 0.0,
                note="pool probability strictly increases with the larger "
                "forecast's weight share",
            )
        )
    else:
        cycles = [_distinct_points(rng, n, rule, int(rng.integers(2, 6))) for _ in range(samples)]
        totals = _cycle_sums(rule, cycles)
        checks.append(
            AxiomCheck(
                "cyclical_monotonicity",
                bool(np.all(totals > STRICT_FLOOR)),
                float(totals.min()),
                STRICT_FLOOR,
                note="exposure cycle sums strictly positive on random "
                "cycles of distinct points",
            )
        )

    return AxiomSuiteReport(rule.label, n, samples, seed, tuple(checks))


def _distinct_points(rng: np.random.Generator, n: int, rule: RuleSpec, k: int) -> np.ndarray:
    """k sampled forecasts as the rows of a (k, n) array, each at distance
    >= 1e-3 from the rows before it.

    The candidates are those of successive sample_forecast calls: a block
    of k draws, then one draw at a time after a rejection, so the
    generator ends where the one-candidate-at-a-time loop would.
    """
    floor = _sampling_floor(rule)
    block = _simplex_rows(random_simplex_point(rng, n, floor, size=k))
    far = _row_norms(block[:, None] - block) >= 1e-3
    keep: list[int] = []
    for i in range(k):
        if far[i, keep].all():
            keep.append(i)
    pts = block[keep]
    while len(pts) < k:
        cand = _simplex_rows(random_simplex_point(rng, n, floor))
        if np.all(_row_norms(pts - cand) >= 1e-3):
            pts = np.vstack([pts, cand])
    return pts


def _cycle_sums(rule: RuleSpec, cycles: list[np.ndarray]) -> np.ndarray:
    """sum_i <g(p_i), p_i - p_(i-1)> around each cycle of (k, n) points.

    One exposure call per cycle length; each total is summed term by term
    in cycle order (cumsum), so it is bitwise the Python sum of the
    one-vector np.dot values.
    """
    totals = np.empty(len(cycles))
    lengths = np.array([len(c) for c in cycles])
    for k in np.unique(lengths):
        at = np.flatnonzero(lengths == k)
        P = np.stack([cycles[i] for i in at])
        steps = P - np.roll(P, 1, axis=1)  # p_i - p_(i-1), cyclically
        dots = (_exposures(rule, P)[..., None, :] @ steps[..., :, None])[..., 0, 0]
        totals[at] = dots.cumsum(axis=1)[:, -1]
    return totals


# --------------------------------------------------------------------------
# exposure probes
# --------------------------------------------------------------------------

def exposure_probe(rule: RuleSpec, n: int, samples: int, seed: int) -> ExposureProbeReport:
    """Average random exposure pairs and attempt inversion.

    Convex-exposure rules must show zero failures; for closed-domain
    rules at n > 2 the probe also tries the vertex pair (e_1, e_2) at
    weight one half, the canonical witness separating the tsallis
    family above parameter 2.  All averages are drawn first and inverted
    in one certified batch, whose per-row failure reports are counted:
    unattainable targets as failures, unconverged, degenerate or
    uncertified inverses as solver failures.
    """
    _check_draws(n, samples)
    rng = np.random.default_rng(seed)
    floor = _sampling_floor(rule)
    P, W = np.empty((samples, 2, n)), np.empty((samples, 2))
    for i in range(samples):
        P[i] = random_simplex_point(rng, n, floor, size=2)
        w = rng.uniform(0.05, 0.95)
        W[i] = w, 1.0 - w
    _, _, fail = _certified_inverse(rule, _mix(_exposures(rule, _simplex_rows(P)), W))
    failures = int(np.count_nonzero(fail == _UNATTAINABLE))
    solver_failures = int(np.count_nonzero(fail)) - failures

    canonical: bool | None = None
    if rule.domain_kind == "closed" and n > 2:
        t = 0.5 * _exposures(rule, np.eye(n)[:2]).sum(axis=0)  # e_1 and e_2
        try:
            invert_exposure(rule, t)
            canonical = False
        except ExposureRangeError:
            canonical = True
    return ExposureProbeReport(
        rule.label, n, samples, seed, failures, solver_failures, canonical
    )


def concavity_probe(rule: RuleSpec, n: int, samples: int, seed: int) -> ConcavityReport:
    """Sample weight mixtures of two or three experts and record the
    worst concavity gap of the pooled score:
    WS(c v + (1-c) w) - c WS(v) - (1-c) WS(w).

    All samples are drawn first; the samples with m experts then form one
    stream whose pools under the three weight vectors of each step are
    scored in one batch per vector (learning.weight_score on every row).
    """
    # local import: avoid cycle at import time
    from .learning import _StreamEvaluator, _weight_rows

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
        ev = _StreamEvaluator(rule, (_simplex_rows(P), J))
        mixed, at_v, at_w = (
            -ev.losses(ev.pools(_weight_rows(U), ev.E))
            for U in (c[:, None] * V + (1.0 - c[:, None]) * W, V, W)
        )
        gap = mixed - c * at_v - (1.0 - c) * at_w
        worst = min(worst, float(gap.min()))
    return ConcavityReport(rule.label, n, samples, seed, worst)
