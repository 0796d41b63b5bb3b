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
* the cyclical-monotonicity check draws each cycle's length and block of
  exponentials, cycle by cycle, and then, per cycle length, maps the
  blocks to the shell, checks every pair of points for distance >= 1e-3
  and sums the cycles from one exposure array.  A block with a closer
  pair needs top-up draws, which shift every later cycle's draws, so on
  any such block the generator is put back to its state before the
  first cycle and the cycles are drawn one at a time
  (_random_cycle_sums).

A batch makes every check that the one-sample calls make, and its rows
do not interact, so each verdict is bit for bit the one-sample value.
Every draw keeps its generator call and its place in the call order: a
forecast interleaved with weight draws is one bare
``rng.standard_exponential(out=row)`` call (the bits and generator state
of ``rng.standard_exponential(n)``, written in place), consecutive points
one block call, and all of a check's exponentials are mapped to the
sampling shell in bulk by simplex._shell_points, bit for bit the points
of one-point random_simplex_point draws.  A seed gives the same samples
and verdicts either way.

Each check is written once, as a generator (_probe_steps, _suite_steps,
_concavity_steps) that makes its draws and then yields, step by step, a
list of bulk requests (f, rows, *args), each asking for f(rule, rows,
*args) of a row-wise f: the forecasts of exponentials (_points),
exposures, a certified or an uncertified inversion
(pooling._certified_inverse, so that every inversion passes through
pooling._inverse_rows), losses, or a batch of pools (pooling._pool_steps).
The one-check functions answer each request by its own call
(pooling._run_steps).  ``qapool audit`` runs its three checks together
(_audit): each check draws from its own generator, in the one-check
order, and then the requests for one f made at one step, by all three
checks, are answered by one call over their stacked rows (_together).
That makes two bulk rounds.  Round 1 maps every forecast draw to the
shell in one call, and takes one exposure call over the probe's draws,
the suite's first batch and the concavity draws, one inversion of all
their rows (the probe's and the suite's certified, the concavity rows
left as _invert_rows leaves them) and one loss call for both concavity
groups.  Round 2 pools the suite's second batch (associativity's outer
pairs, idempotence and continuity); the cycle sums and the verdicts
follow as in the one-check run.  Every f works row by row and sums in
order, so each row keeps its bits.  Should any step of the merged run
raise, the audit runs the three checks again one at a time, so that
every exit code, message and first failed row is the one the checks
raise in turn.

"Strict" numerical claims use separation floors instead of raw
inequalities; the continuity check is sampling evidence, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .errors import ConfigError, ExposureRangeError
from .learning import _losses, _weight_rows
from .pooling import (
    _UNATTAINABLE,
    _certified_inverse,
    _check_weights,
    _mix,
    _pool_steps,
    _prepare,
    _raise_first,
    _row_norms,
    _run_steps,
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
from .simplex import _ordered_dot, _ordered_sum, _shell_points, random_simplex_point

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
    total = _check_weights(P[None], W[None])[0]
    k = reports.shape[0]
    S = _score_matrix(rule, np.vstack([reports, P]))
    return S[:k] - _ordered_dot((W / total)[:, None], S[k:], axis=0)


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
    Q = Q[_row_norms(Q - pool) >= 1e-9]
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
    rng: np.random.Generator, n: int, count: int, per: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows of ``per`` weighted forecasts, drawn forecast then
    weight, in row order: (count, per, n) exponentials, each the one call
    sample_forecast makes for a forecast, and (count, per) weights."""
    E, W = np.empty((count * per, n)), np.empty(count * per)
    for i in range(count * per):
        rng.standard_exponential(out=E[i])
        W[i] = rng.uniform(0.1, 2.0)
    return E.reshape(count, per, n), W.reshape(count, per)


def _points(rule: RuleSpec, E: np.ndarray) -> np.ndarray:
    # the sampled forecasts of (..., n) exponential rows: a bulk request
    return _simplex_rows(_shell_points(E, _sampling_floor(rule)))


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
    return _run_steps(rule, _suite_steps(rule, n, samples, seed))


def _suite_steps(rule: RuleSpec, n: int, samples: int, seed: int):
    # axiom_suite as bulk requests (module docstring)
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
        X, total, _, _ = yield from _pool_steps(
            rule,
            np.concatenate([P for P, _ in parts]),
            np.concatenate([W for _, W in parts]),
        )
        return zip(np.split(X, len(parts)), np.split(total, len(parts)))

    # every draw first, check by check: additivity, commutativity,
    # associativity (a, b, c), idempotence (one forecast at two weights),
    # continuity
    Ea, Wa = _weighted_draws(rng, n, samples, 2)
    Ec, Wc = _weighted_draws(rng, n, samples, 2)
    Es, Ws = _weighted_draws(rng, n, samples, 3)
    Ei, Wi = np.empty((samples, 1, n)), np.empty((samples, 2))
    for i in range(samples):
        rng.standard_exponential(out=Ei[i, 0])
        Wi[i] = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
    Ek, Wk = _weighted_draws(rng, n, samples, 2)
    Pa, Pc, Ps, Pi, Pk = yield [(_points, E) for E in (Ea, Ec, Es, Ei, Ek)]
    Pi = Pi.repeat(2, axis=1)

    # two batches, the second on the first's pools; each stacks its parts
    # in check order, so the first failed row raised is the one that
    # pooling check by check would raise
    (_, total), (X, _), (Y, _), (ab, w_ab), (bc, w_bc) = yield from pool(
        (Pa, Wa), (Pc, Wc), (Pc[:, ::-1], Wc[:, ::-1]),
        (Ps[:, :2], Ws[:, :2]), (Ps[:, 1:], Ws[:, 1:]),
    )
    (L, w_l), (R, w_r), (I, _), (K0, _), (K1, _) = yield from pool(
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
        ((X, _),) = yield from pool((P, W))
        diffs = np.diff(X[:, 0].reshape(len(pairs), xs.size), axis=1)
        checks.append(
            AxiomCheck(
                "monotonicity_n2", bool(np.all(diffs > 0.0)), float(diffs.min()), 0.0,
                note="pool probability strictly increases with the larger "
                "forecast's weight share",
            )
        )
    else:
        totals = _random_cycle_sums(rng, n, rule, samples)
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


def _random_cycle_sums(
    rng: np.random.Generator, n: int, rule: RuleSpec, samples: int
) -> np.ndarray:
    """_cycle_sums of ``samples`` cycles of 2 to 5 distinct sampled points,
    bit for bit those of the loop
    ``[_distinct_points(rng, n, rule, int(rng.integers(2, 6))) for _ in range(samples)]``,
    and the generator ends where that loop leaves it.

    Each cycle's length and block of exponentials are drawn first, in the
    loop's order; then the blocks of each length are mapped to points,
    checked pair by pair and summed in one batch.  A block with two points
    closer than 1e-3 would need a top-up draw, which shifts every later
    cycle's draws, so then the generator is put back and the loop is run.
    """
    state = rng.bit_generator.state
    blocks = [rng.standard_exponential((int(rng.integers(2, 6)), n)) for _ in range(samples)]
    stacks = []
    for k, at in _by_length(blocks):
        E = np.stack([blocks[i] for i in at])
        P = _simplex_rows(_shell_points(E, _sampling_floor(rule)))
        i, j = np.array(list(combinations(range(k), 2))).T
        if not np.all(_row_norms(P[:, i] - P[:, j]) >= 1e-3):
            rng.bit_generator.state = state
            cycles = [
                _distinct_points(rng, n, rule, int(rng.integers(2, 6))) for _ in range(samples)
            ]
            return _cycle_sums(rule, cycles)
        stacks.append((at, P))
    # exposures only once every block has passed, on the loop's points alone
    totals = np.empty(samples)
    for at, P in stacks:
        totals[at] = _stacked_cycle_sums(rule, P)
    return totals


def _cycle_sums(rule: RuleSpec, cycles: list[np.ndarray]) -> np.ndarray:
    """sum_i <g(p_i), p_i - p_(i-1)> around each cycle of (k, n) points.

    One exposure call per cycle length; each total adds its terms in cycle
    order, bitwise the in-order sum of the one-vector _ordered_dot values.
    """
    totals = np.empty(len(cycles))
    for _, at in _by_length(cycles):
        totals[at] = _stacked_cycle_sums(rule, np.stack([cycles[i] for i in at]))
    return totals


def _by_length(arrays: list[np.ndarray]) -> list[tuple[int, np.ndarray]]:
    # each length k, ascending, with the indices of the arrays of length k;
    # a set, not np.unique, whose first call imports numpy.ma
    lengths = np.array([len(a) for a in arrays])
    return [(k, np.flatnonzero(lengths == k)) for k in sorted(set(lengths.tolist()))]


def _stacked_cycle_sums(rule: RuleSpec, P: np.ndarray) -> np.ndarray:
    # _cycle_sums of the cycles stacked in a (cycles, k, n) array
    steps = P - np.concatenate([P[:, -1:], P[:, :-1]], axis=1)  # p_i - p_(i-1), cyclically
    return _ordered_sum(_ordered_dot(_exposures(rule, P), steps))


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
    return _run_steps(rule, _probe_steps(rule, n, samples, seed))


def _probe_steps(rule: RuleSpec, n: int, samples: int, seed: int):
    # exposure_probe as bulk requests (module docstring)
    _check_draws(n, samples)
    rng = np.random.default_rng(seed)
    E, W = np.empty((samples, 2, n)), np.empty((samples, 2))
    for i in range(samples):
        rng.standard_exponential(out=E[i])
        w = rng.uniform(0.05, 0.95)
        W[i] = w, 1.0 - w
    (P,) = yield [(_points, E)]
    (exposures,) = yield [(_exposures, P)]
    ((_, _, fail),) = yield [(_certified_inverse, _mix(exposures, W), True)]
    failures = int(np.count_nonzero(fail == _UNATTAINABLE))
    solver_failures = int(np.count_nonzero(fail)) - failures

    canonical: bool | None = None
    if rule.domain_kind == "closed" and n > 2:
        t = 0.5 * _ordered_sum(_exposures(rule, np.eye(n)[:2]), axis=0)  # e_1 and e_2
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
    scored in one batch (learning.weight_score on every row).  Every pool
    is inverted before any is scored.
    """
    return _run_steps(rule, _concavity_steps(rule, n, samples, seed))


def _concavity_steps(rule: RuleSpec, n: int, samples: int, seed: int):
    # concavity_probe as bulk requests (module docstring)
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
    # (E, VW, c, J) of the samples with m experts, m ascending
    groups = [
        tuple(np.array(x) for x in zip(*(d[1:] for d in draws if d[0] == m)))
        for m in sorted({d[0] for d in draws})
    ]
    forecasts = yield [(_points, E) for E, _, _, _ in groups]
    exposures = yield [(_exposures, P) for P in forecasts]
    targets = []
    for (_, VW, c, _), E in zip(groups, exposures):
        V, W = _shell_points(VW).transpose(1, 0, 2)
        U = np.concatenate([c[:, None] * V + (1.0 - c[:, None]) * W, V, W])
        targets.append(_mix(np.concatenate([E] * 3), _weight_rows(U)))
    pools = yield [(_certified_inverse, T, False) for T in targets]
    for _, _, fail in pools:
        _raise_first(rule, fail)  # as _invert_rows raises
    losses = yield [
        (_losses, X, np.tile(J - 1, 3)) for (X, _, _), (_, _, _, J) in zip(pools, groups)
    ]
    worst = np.inf
    for loss, (_, _, c, J) in zip(losses, groups):
        mixed, at_v, at_w = -loss.reshape(3, J.size)
        gap = mixed - c * at_v - (1.0 - c) * at_w
        worst = min(worst, float(gap.min()))
    return ConcavityReport(rule.label, n, samples, seed, worst)


# --------------------------------------------------------------------------
# the audit: the three checks together
# --------------------------------------------------------------------------

def _audit(
    rule: RuleSpec, n: int, samples: int, seed: int
) -> tuple[ExposureProbeReport, AxiomSuiteReport | None, ConcavityReport | None]:
    """exposure_probe's, axiom_suite's and concavity_probe's reports (the
    last two None where the rule lacks convex exposure at n), their bulk
    requests answered together (_together).

    Should any step raise, the checks are run again one at a time, so that
    the error raised is the one that running them in turn raises first.
    """
    if not has_convex_exposure(rule, n):
        return exposure_probe(rule, n, samples, seed), None, None
    try:
        return tuple(_together(rule, [
            _probe_steps(rule, n, samples, seed),
            _suite_steps(rule, n, samples, seed),
            _concavity_steps(rule, n, samples, seed),
        ]))
    except Exception:  # any error: the one-at-a-time run raises its own
        return (
            exposure_probe(rule, n, samples, seed),
            axiom_suite(rule, n, samples, seed),
            concavity_probe(rule, n, samples, seed),
        )


def _together(rule: RuleSpec, checks: list) -> list:
    """The values of generators of bulk requests, run side by side.

    At each step every unfinished generator yields its list of requests
    (f, rows, *args) for f(rule, rows, *args): rows of shape (..., n), and
    each arg one value per row or one for all.  All requests for one f, of
    every generator, are answered by one call over their rows stacked in
    order (_answers), and each generator is sent the answers to its own.
    """
    values = [None] * len(checks)
    answers = dict.fromkeys(range(len(checks)))
    while answers:
        asked = {}
        for i, sent in answers.items():
            try:
                asked[i] = checks[i].send(sent)
            except StopIteration as done:
                values[i] = done.value
        flat = iter(_answers(rule, [r for requests in asked.values() for r in requests]))
        answers = {i: [next(flat) for _ in requests] for i, requests in asked.items()}
    return values


def _answers(rule: RuleSpec, requests: list) -> list:
    """f(rule, rows, *args) for each request (f, rows, *args), by one call
    of each f over the rows of all its requests; each answer is cut back
    to its rows' leading shape.  Every f works row by row and sums in
    order, so an answer has the bits of its request's own call."""
    values = [None] * len(requests)
    for f in dict.fromkeys(r[0] for r in requests):
        at = [k for k, r in enumerate(requests) if r[0] is f]
        if len(at) == 1:  # nothing to stack
            values[at[0]] = f(rule, *requests[at[0]][1:])
            continue
        leads = [requests[k][1].shape[:-1] for k in at]
        columns = zip(*(requests[k][1:] for k in at))
        rows = np.concatenate([R.reshape(-1, R.shape[-1]) for R in next(columns)])
        args = [
            np.concatenate([np.broadcast_to(a, lead).ravel() for a, lead in zip(col, leads)])
            for col in columns
        ]
        out = f(rule, rows, *args)
        ends = list(accumulate(math.prod(lead) for lead in leads))

        def cut(value):  # one piece per request, in its rows' leading shape
            return [
                value[start:end].reshape(lead + value.shape[1:])
                for start, end, lead in zip([0, *ends], ends, leads)
            ]

        for k, value in zip(at, zip(*map(cut, out)) if isinstance(out, tuple) else cut(out)):
            values[k] = value
    return values
