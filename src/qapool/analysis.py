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
and then evaluates them batched:

* the axiom suite's five pooling checks stack their two-forecast rows,
  in check order, into two certified pooling._pool_rows calls (qa_pool
  is its one-row case), the second built on the first's pools, so the
  first failed row raised is the one check-by-check pooling would raise;
* the exposure probe makes one certified batch inversion and counts its
  per-row failure reports;
* the concavity probe inverts its three weight vectors, stacked, in one
  batch of pools per expert count;
* the cyclical-monotonicity check makes one exposure array per cycle
  length.

A batch makes every check that the one-sample calls make, and its rows
do not interact, so each verdict is bit for bit the one-sample value.
Every draw keeps its generator call and its place in the call order: a
forecast interleaved with weight draws is one bare
``rng.standard_exponential(n)`` call, consecutive points one block call,
and all of a check's exponentials are mapped to the sampling shell in
one bulk simplex._shell_points transform, bit for bit the points of
one-point random_simplex_point draws.  A seed gives the same samples
and verdicts either way.

"Strict" numerical claims use separation floors instead of raw
inequalities; the continuity check is sampling evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExposureRangeError
from .learning import _losses, _weight_rows
from .pooling import (
    _UNATTAINABLE,
    _certified_inverse,
    _check_weights,
    _invert_rows,
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
    _outcome,
    _score_matrix,
    _simplex_rows,
)
from .simplex import _ordered_dot, _shell_points, random_simplex_point

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

    def verdict(self, convex: bool) -> tuple[bool, str]:
        """Whether the probe came out as the rule's exposure range predicts,
        given has_convex_exposure at its n, and what was expected."""
        if convex:
            ok = self.failures == 0 and self.solver_failures == 0
            return ok, "no inversion failures expected for convex exposure"
        return bool(self.canonical_vertex_failure), "probe must detect the vertex-pair failure"


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
    return S[:k] - _ordered_dot((W / W.sum())[:, None], S[k:], axis=0)


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
    return float(_utilities(rule, r.probs[None], inputs)[0, _outcome(j, r.n)])


def surplus_report(rule: RuleSpec, inputs) -> SurplusReport:
    """Utilities of the pool across outcomes, with their spread."""
    inputs = list(inputs)  # read once: pooled, then paid
    return _surplus(rule, qa_pool(rule, inputs).pooled, inputs)


def maxmin_verify(rule: RuleSpec, inputs, trials: int, seed: int = 0) -> bool:
    """Check that no sampled alternative report beats the pool's
    guaranteed utility beyond tolerance 1e-10."""
    inputs = list(inputs)  # read once: pooled, then paid
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

    Each forecast is the one exponential call sample_forecast makes; all
    of them are mapped to the sampling shell and renormalized in bulk.
    """
    E, W = np.empty((count * per, n)), np.empty(count * per)
    for i in range(count * per):
        E[i] = rng.standard_exponential(n)
        W[i] = rng.uniform(0.1, 2.0)
    P = _shell_points(E.reshape(count, per, n), _sampling_floor(rule))
    return _simplex_rows(P), W.reshape(count, per)


def axiom_suite(rule: RuleSpec, n: int, samples: int, seed: int) -> AxiomSuiteReport:
    """Exercise the pooling-operator axioms on seeded random draws.

    Requires convex exposure at dimension n (the operator must be total
    for the axioms to be well-posed).  The binary operator pools a pair
    of weighted forecasts to their pool, carrying the summed weight.  The
    draws of all five pooling checks come first, in check order; their
    two-forecast rows are then pooled in two certified batches
    (pooling._pool_rows): additivity, commutativity in both orders and
    associativity's inner pairs, then associativity's outer pairs,
    idempotence and continuity.
    """
    _check_draws(n, samples)
    if not has_convex_exposure(rule, n):
        raise ConfigError(
            f"rule {rule.label} lacks convex exposure at n={n}; "
            "the pooling operator is partial there"
        )
    rng = np.random.default_rng(seed)

    def pool(*parts: tuple[np.ndarray, np.ndarray]):
        # (pools, total weights) of each of the equal-sized (forecasts,
        # weights) parts, all of them pooled in one certified batch
        X, total, _, _ = _pool_rows(
            rule,
            np.concatenate([P for P, _ in parts]),
            np.concatenate([W for _, W in parts]),
        )
        return zip(np.split(X, len(parts)), np.split(total, len(parts)))

    # every draw first, check by check: additivity, commutativity,
    # associativity (a, b, c), idempotence (one forecast at two weights),
    # continuity
    Pa, Wa = _weighted_draws(rng, n, rule, samples, 2)
    Pc, Wc = _weighted_draws(rng, n, rule, samples, 2)
    Ps, Ws = _weighted_draws(rng, n, rule, samples, 3)
    E, Wi = np.empty((samples, 1, n)), np.empty((samples, 2))
    for i in range(samples):
        E[i, 0] = rng.standard_exponential(n)
        Wi[i] = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
    Pi = _simplex_rows(_shell_points(E, _sampling_floor(rule))).repeat(2, axis=1)
    Pk, Wk = _weighted_draws(rng, n, rule, samples, 2)

    # two batches, the second on the first's pools; each stacks its parts
    # in check order, so the first failed row raised is the one that
    # pooling check by check would raise
    (_, total), (X, _), (Y, _), (ab, w_ab), (bc, w_bc) = pool(
        (Pa, Wa), (Pc, Wc), (Pc[:, ::-1], Wc[:, ::-1]),
        (Ps[:, :2], Ws[:, :2]), (Ps[:, 1:], Ws[:, 1:]),
    )
    (L, w_l), (R, w_r), (I, _), (K0, _), (K1, _) = pool(
        (np.stack([ab, Ps[:, 2]], axis=1), np.stack([w_ab, Ws[:, 2]], axis=1)),
        (np.stack([Ps[:, 0], bc], axis=1), np.stack([Ws[:, 0], w_bc], axis=1)),
        (Pi, Wi),
        (Pk, Wk),
        (Pk, Wk + [1e-6, 0.0]),
    )

    checks: list[AxiomCheck] = []

    # weight additivity: exact by construction of the operator
    gap = float(np.abs(total - (Wa[:, 0] + Wa[:, 1])).max())
    checks.append(AxiomCheck("weight_additivity", gap == 0.0, gap, 0.0))

    gap = float(np.abs(X - Y).max())
    checks.append(AxiomCheck("commutativity", gap <= 1e-12, gap, 1e-12))

    gap = float(np.maximum(np.abs(L - R).max(axis=1), np.abs(w_l - w_r)).max())
    checks.append(AxiomCheck("associativity", gap <= 1e-9, gap, 1e-9))

    gap = float(np.abs(I - Pi[:, 0]).max())
    checks.append(AxiomCheck("idempotence", gap <= 1e-12, gap, 1e-12))

    # continuity: sampled Lipschitz evidence, not a proof
    gap = float(np.abs(K1 - K0).max())
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
        ((X, _),) = pool((P, W))
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
    in cycle order (cumsum), so it is bitwise the in-order sum of the
    one-vector _ordered_dot values.
    """
    totals = np.empty(len(cycles))
    lengths = np.array([len(c) for c in cycles])
    # a set, not np.unique, whose first call imports numpy.ma
    for k in sorted(set(lengths.tolist())):
        at = np.flatnonzero(lengths == k)
        P = np.stack([cycles[i] for i in at])
        steps = P - np.roll(P, 1, axis=1)  # p_i - p_(i-1), cyclically
        dots = _ordered_dot(_exposures(rule, P), steps)
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
    E, W = np.empty((samples, 2, n)), np.empty((samples, 2))
    for i in range(samples):
        E[i] = rng.standard_exponential((2, n))
        w = rng.uniform(0.05, 0.95)
        W[i] = w, 1.0 - w
    P = _simplex_rows(_shell_points(E, _sampling_floor(rule)))
    _, _, fail = _certified_inverse(rule, _mix(_exposures(rule, P), W))
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

    All samples are drawn first, each draw one bare generator call in
    sample order, and mapped to the simplex in bulk.  The samples with m
    experts then form one stream whose exposures, computed once and
    tripled, are pooled under the three weight vectors of each step and
    scored in one batch (learning.weight_score on every row).
    """
    _check_draws(n, samples)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        m = 2 + int(rng.integers(0, 2))  # rng.choice((2, 3)): same value and state
        E = rng.standard_exponential((m, n))  # the experts' forecasts
        VW = rng.standard_exponential((2, m))  # the weight vectors v and w
        c = rng.uniform()
        j = int(rng.integers(1, n + 1))
        draws.append((m, E, VW, c, j))
    worst = np.inf
    for m in sorted({d[0] for d in draws}):
        _, E, VW, c, J = (np.array(x) for x in zip(*(d for d in draws if d[0] == m)))
        P = _simplex_rows(_shell_points(E, _sampling_floor(rule)))
        V, W = _shell_points(VW).transpose(1, 0, 2)
        U = np.concatenate([c[:, None] * V + (1.0 - c[:, None]) * W, V, W])
        tripled = np.concatenate([_exposures(rule, P)] * 3)
        X = _invert_rows(rule, _mix(tripled, _weight_rows(U)))
        mixed, at_v, at_w = -_losses(rule, X, np.tile(J - 1, 3)).reshape(3, J.size)
        gap = mixed - c * at_v - (1.0 - c) * at_w
        worst = min(worst, float(gap.min()))
    return ConcavityReport(rule.label, n, samples, seed, worst)
