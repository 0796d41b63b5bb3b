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

"Strict" numerical claims use separation floors instead of raw
inequalities; the continuity check is sampling evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExposureRangeError, SolverError
from .pooling import WeightedForecast, _prepare, invert_exposure, qa_pool
from .rules import (
    Forecast,
    RuleSpec,
    as_forecast,
    exposure,
    has_convex_exposure,
    _exposures,
    _score_matrix,
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


def sample_forecast(rng: np.random.Generator, n: int, rule: RuleSpec | None = None) -> Forecast:
    """Dirichlet(1,...,1) draw, shell-restricted for open-domain rules."""
    floor = 0.0
    if rule is not None and rule.domain_kind == "open":
        floor = OPEN_SAMPLING_FLOOR
    return Forecast(random_simplex_point(rng, n, floor))


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
    forecasts, w, _ = _prepare(inputs)
    k = reports.shape[0]
    S = _score_matrix(rule, np.vstack([reports] + [f.probs for f in forecasts]))
    return S[:k] - w @ S[k:]


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
    Q = np.array([sample_forecast(rng, pool.size, rule).probs for _ in range(trials)])
    Q = Q.reshape(-1, pool.size)
    Q = Q[np.linalg.norm(Q - pool, axis=1) >= 1e-9]
    worst = _utilities(rule, np.vstack([pool, Q]), inputs).min(axis=1)
    return not np.any(worst[1:] >= worst[0] + 1e-10)


# --------------------------------------------------------------------------
# axiom suite
# --------------------------------------------------------------------------

def _check_samples(samples: int) -> None:
    # a check over no draws would pass vacuously
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")


def _pair(rule: RuleSpec, a: WeightedForecast, b: WeightedForecast) -> WeightedForecast:
    """The binary arbitrary-weight pooling operator."""
    if a.weight == 0.0:
        return b
    if b.weight == 0.0:
        return a
    res = qa_pool(rule, [a, b])
    return WeightedForecast(res.pooled, res.total_weight)


def axiom_suite(rule: RuleSpec, n: int, samples: int, seed: int) -> AxiomSuiteReport:
    """Exercise the pooling-operator axioms on seeded random draws.

    Requires convex exposure at dimension n (the operator must be total
    for the axioms to be well-posed).
    """
    _check_samples(samples)
    if not has_convex_exposure(rule, n):
        raise ConfigError(
            f"rule {rule.label} lacks convex exposure at n={n}; "
            "the pooling operator is partial there"
        )
    rng = np.random.default_rng(seed)

    def draw_wf() -> WeightedForecast:
        return WeightedForecast(sample_forecast(rng, n, rule), rng.uniform(0.1, 2.0))

    checks: list[AxiomCheck] = []

    # weight additivity: exact by construction of the operator
    gap = 0.0
    for _ in range(samples):
        a, b = draw_wf(), draw_wf()
        gap = max(gap, abs(_pair(rule, a, b).weight - (a.weight + b.weight)))
    checks.append(AxiomCheck("weight_additivity", gap == 0.0, gap, 0.0))

    gap = 0.0
    for _ in range(samples):
        a, b = draw_wf(), draw_wf()
        d = _pair(rule, a, b).forecast.probs - _pair(rule, b, a).forecast.probs
        gap = max(gap, float(np.abs(d).max()))
    checks.append(AxiomCheck("commutativity", gap <= 1e-12, gap, 1e-12))

    gap = 0.0
    for _ in range(samples):
        a, b, c = draw_wf(), draw_wf(), draw_wf()
        left = _pair(rule, _pair(rule, a, b), c)
        right = _pair(rule, a, _pair(rule, b, c))
        d = np.abs(left.forecast.probs - right.forecast.probs).max()
        d = max(d, abs(left.weight - right.weight))
        gap = max(gap, float(d))
    checks.append(AxiomCheck("associativity", gap <= 1e-9, gap, 1e-9))

    gap = 0.0
    for _ in range(samples):
        p = sample_forecast(rng, n, rule)
        a = WeightedForecast(p, rng.uniform(0.1, 2.0))
        b = WeightedForecast(p, rng.uniform(0.1, 2.0))
        d = np.abs(_pair(rule, a, b).forecast.probs - p.probs).max()
        gap = max(gap, float(d))
    checks.append(AxiomCheck("idempotence", gap <= 1e-12, gap, 1e-12))

    # continuity: sampled Lipschitz evidence, not a proof
    gap = 0.0
    for _ in range(samples):
        a, b = draw_wf(), draw_wf()
        base = _pair(rule, a, b).forecast.probs
        bumped = _pair(
            rule, WeightedForecast(a.forecast, a.weight + 1e-6), b
        ).forecast.probs
        gap = max(gap, float(np.abs(bumped - base).max()))
    checks.append(
        AxiomCheck(
            "continuity", gap <= 1e-3, gap, 1e-3,
            note="sampling evidence: weight bump 1e-6 moves the pool little",
        )
    )

    if n == 2:
        worst = np.inf
        ok = True
        for _ in range(max(1, samples // 10)):
            while True:
                p1 = sample_forecast(rng, 2, rule)
                p2 = sample_forecast(rng, 2, rule)
                if p1.probs[0] < p2.probs[0]:
                    p1, p2 = p2, p1
                if p1.probs[0] - p2.probs[0] >= 0.05:
                    break
            xs = np.linspace(0.01, 0.99, 101)
            prs = [
                _pair(
                    rule,
                    WeightedForecast(p1, float(x)),
                    WeightedForecast(p2, float(1.0 - x)),
                ).forecast.probs[0]
                for x in xs
            ]
            diffs = np.diff(prs)
            worst = min(worst, float(diffs.min()))
            ok = ok and bool(np.all(diffs > 0.0))
        checks.append(
            AxiomCheck(
                "monotonicity_n2", ok, worst, 0.0,
                note="pool probability strictly increases with the larger "
                "forecast's weight share",
            )
        )
    else:
        worst = np.inf
        ok = True
        for _ in range(samples):
            k = int(rng.integers(2, 6))
            pts = _distinct_points(rng, n, rule, k)
            total = _cycle_sum(rule, pts)
            worst = min(worst, total)
            ok = ok and total > STRICT_FLOOR
        checks.append(
            AxiomCheck(
                "cyclical_monotonicity", ok, worst, STRICT_FLOOR,
                note="exposure cycle sums strictly positive on random "
                "cycles of distinct points",
            )
        )

    return AxiomSuiteReport(rule.label, n, samples, seed, tuple(checks))


def _distinct_points(
    rng: np.random.Generator, n: int, rule: RuleSpec, k: int
) -> list[Forecast]:
    pts: list[Forecast] = []
    while len(pts) < k:
        cand = sample_forecast(rng, n, rule)
        if all(np.linalg.norm(cand.probs - p.probs) >= 1e-3 for p in pts):
            pts.append(cand)
    return pts


def _cycle_sum(rule: RuleSpec, pts: list[Forecast]) -> float:
    P = np.stack([p.probs for p in pts])
    steps = P - np.roll(P, 1, axis=0)  # p_i - p_(i-1), cyclically
    return sum(float(np.dot(e, d)) for e, d in zip(_exposures(rule, P), steps))


# --------------------------------------------------------------------------
# exposure probes
# --------------------------------------------------------------------------

def exposure_probe(rule: RuleSpec, n: int, samples: int, seed: int) -> ExposureProbeReport:
    """Average random exposure pairs and attempt inversion.

    Convex-exposure rules must show zero failures; for closed-domain
    rules at n > 2 the probe also tries the vertex pair (e_1, e_2) at
    weight one half, the canonical witness separating the tsallis
    family above parameter 2.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    failures = 0
    solver_failures = 0
    for _ in range(samples):
        p = sample_forecast(rng, n, rule)
        q = sample_forecast(rng, n, rule)
        w = rng.uniform(0.05, 0.95)
        target = w * exposure(rule, p).coords + (1.0 - w) * exposure(rule, q).coords
        try:
            invert_exposure(rule, target)
        except ExposureRangeError:
            failures += 1
        except SolverError:
            solver_failures += 1

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


def concavity_probe(
    rule: RuleSpec,
    n: int,
    samples: int,
    seed: int,
    experts: tuple[int, ...] = (2, 3),
) -> ConcavityReport:
    """Sample weight mixtures and record the worst concavity gap of the
    pooled score: WS(c v + (1-c) w) - c WS(v) - (1-c) WS(w)."""
    from .learning import weight_score  # local import: avoid cycle at import time

    _check_samples(samples)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        m = int(rng.choice(experts))
        fs = [sample_forecast(rng, n, rule) for _ in range(m)]
        v = rng.dirichlet(np.ones(m))
        w = rng.dirichlet(np.ones(m))
        c = rng.uniform()
        j = int(rng.integers(1, n + 1))
        mixed = weight_score(rule, fs, c * v + (1.0 - c) * w, j)
        gap = mixed - c * weight_score(rule, fs, v, j) - (1.0 - c) * weight_score(
            rule, fs, w, j
        )
        worst = min(worst, float(gap))
    return ConcavityReport(rule.label, n, samples, seed, worst)
