"""Max-min optimality, axiom suite, and exposure probes."""

import math
from functools import reduce
from operator import add

import numpy as np
import pytest

from qapool import (
    ConfigError,
    ExposureRangeError,
    RuleSpec,
    SolverError,
    aggregator_utility,
    axiom_suite,
    bregman,
    concavity_probe,
    exposure,
    exposure_probe,
    has_convex_exposure,
    invert_exposure,
    maxmin_verify,
    parse_rule,
    qa_pool,
    surplus_report,
    weight_score,
)
import qapool.analysis as analysis
from qapool.analysis import (
    ExposureProbeReport,
    _cycle_sums,
    _distinct_points,
    _random_cycle_sums,
    sample_forecast,
)
from qapool.rules import _exposures

from conftest import CLOSED_RULES, CONVEX_RULES, RULE_IDS, random_instance, random_probs
from oracles import (
    kl_divergence,
    per_check_axiom_suite,
    per_check_concavity_gap,
    weighted_arithmetic_mean,
)

QUAD = RuleSpec.quadratic()
QUAD_INSTANCE = [([0.1, 0.9], 0.5), ([0.5, 0.5], 0.5)]


class TestAggregatorUtility:
    def test_reporting_the_single_expert_nets_zero(self, rng):
        p = random_probs(rng, 3, None)
        for j in (1, 2, 3):
            assert aggregator_utility(QUAD, p, [(p, 1.0)], j) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_quadratic_instance_equalizes_at_008(self):
        for j in (1, 2):
            u = aggregator_utility(QUAD, [0.3, 0.7], QUAD_INSTANCE, j)
            assert u == pytest.approx(0.08, abs=1e-12)

    def test_equals_bregman_sum_at_the_pool(self, rng):
        for rule in CONVEX_RULES:
            inputs = random_instance(rng, rule, 3, 3)
            pool = qa_pool(rule, inputs).pooled
            w = np.array([wt for _, wt in inputs])
            w = w / w.sum()
            div_sum = sum(
                wi * bregman(rule, pool, p) for wi, (p, _) in zip(w, inputs)
            )
            for j in (1, 2, 3):
                u = aggregator_utility(rule, pool, inputs, j)
                assert u == pytest.approx(div_sum, abs=1e-8)

    def test_distant_report_hurts_worst_case(self):
        base = min(
            aggregator_utility(QUAD, [0.3, 0.7], QUAD_INSTANCE, j) for j in (1, 2)
        )
        far = min(
            aggregator_utility(QUAD, [0.9, 0.1], QUAD_INSTANCE, j) for j in (1, 2)
        )
        assert far < base


class TestSurplusReport:
    def test_identical_inputs_no_surplus(self, rng):
        p = random_probs(rng, 3, None)
        rep = surplus_report(QUAD, [(p, 0.4), (p, 0.6)])
        assert rep.surplus == pytest.approx(0.0, abs=1e-12)

    def test_one_shot_iterable_reads_like_a_list(self, rng):
        inputs = random_instance(rng, parse_rule("neglog"), 3, 4)
        want = surplus_report(parse_rule("neglog"), inputs)
        got = surplus_report(parse_rule("neglog"), iter(inputs))
        assert got.per_outcome_utility.tobytes() == want.per_outcome_utility.tobytes()
        assert (got.surplus, got.equalization_gap) == (want.surplus, want.equalization_gap)

    def test_outcome_must_be_an_integer_in_range(self):
        for j in (0, 3):
            with pytest.raises(IndexError, match=rf"outcome {j} out of range 1\.\.2"):
                aggregator_utility(QUAD, [0.3, 0.7], QUAD_INSTANCE, j)
        for j in (True, 1.0, 2.7):
            with pytest.raises(ValueError, match="outcome must be an integer"):
                aggregator_utility(QUAD, [0.3, 0.7], QUAD_INSTANCE, j)

    def test_quadratic_instance(self):
        rep = surplus_report(QUAD, QUAD_INSTANCE)
        assert rep.surplus == pytest.approx(0.08, abs=1e-12)
        assert rep.equalization_gap <= 1e-12
        assert np.allclose(rep.per_outcome_utility, 0.08, atol=1e-12)

    def test_log_instance_matches_kl_sum(self):
        inputs = [([0.25, 0.75], 0.5), ([0.75, 0.25], 0.5)]
        rep = surplus_report(RuleSpec.logarithmic(), inputs)
        pool = qa_pool(RuleSpec.logarithmic(), inputs).pooled
        assert np.allclose(pool.probs, [0.5, 0.5], atol=1e-12)
        want = 0.5 * kl_divergence(pool.probs, np.array([0.25, 0.75])) + \
            0.5 * kl_divergence(pool.probs, np.array([0.75, 0.25]))
        assert rep.surplus == pytest.approx(want, abs=1e-10)
        assert rep.surplus == pytest.approx(
            0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), abs=1e-10
        )

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_equalization_on_random_instances(self, rule, rng):
        for _ in range(20):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            inputs = random_instance(rng, rule, n, m)
            rep = surplus_report(rule, inputs)
            assert rep.equalization_gap <= 1e-8
            assert rep.surplus >= -1e-12


class TestMaxminVerify:
    @pytest.mark.parametrize("rule", CLOSED_RULES, ids=lambda r: r.label)
    def test_random_challengers_never_beat_pool(self, rule, rng):
        inputs = random_instance(rng, rule, 3, 3)
        assert maxmin_verify(rule, inputs, trials=200, seed=5)

    def test_one_shot_iterable_reads_like_a_list(self, rng):
        inputs = random_instance(rng, QUAD, 3, 3)
        want = maxmin_verify(QUAD, inputs, trials=200, seed=5)
        assert want and maxmin_verify(QUAD, iter(inputs), trials=200, seed=5) == want

    def test_single_input_pool_is_unbeatable(self, rng):
        p = random_probs(rng, 3, None)
        assert maxmin_verify(QUAD, [(p, 1.0)], trials=100, seed=1)

    def test_small_perturbations_strictly_lose(self, rng):
        inputs = QUAD_INSTANCE
        pool = qa_pool(QUAD, inputs).pooled
        base = min(aggregator_utility(QUAD, pool, inputs, j) for j in (1, 2))
        for _ in range(50):
            d = rng.normal(size=2)
            d -= d.mean()
            d *= 1e-3 / np.linalg.norm(d)
            q = pool.probs + d
            if q.min() < 0:
                continue
            worst = min(aggregator_utility(QUAD, q, inputs, j) for j in (1, 2))
            assert worst < base - 1e-12

    def test_grid_sweep_confirms_argmax(self):
        inputs = QUAD_INSTANCE
        pool = qa_pool(QUAD, inputs).pooled
        base = min(aggregator_utility(QUAD, pool, inputs, j) for j in (1, 2))
        xs = np.arange(1e-3, 1.0, 1e-3)
        best_x, best_val = None, -np.inf
        for x in xs:
            val = min(
                aggregator_utility(QUAD, [x, 1.0 - x], inputs, j) for j in (1, 2)
            )
            if val > best_val:
                best_x, best_val = x, val
        assert best_val <= base + 1e-12
        assert abs(best_x - pool.probs[0]) <= 1e-3


class TestAxiomSuite:
    def test_quadratic_n3_full_pass(self):
        rep = axiom_suite(QUAD, 3, 300, seed=2)
        assert rep.all_passed, [c for c in rep.checks if not c.passed]

    def test_log_n2_monotonicity(self):
        rep = axiom_suite(RuleSpec.logarithmic(), 2, 120, seed=3)
        mono = {c.name: c for c in rep.checks}["monotonicity_n2"]
        assert mono.passed and mono.worst_gap > 0.0

    def test_unit_weight_associativity_triple(self, rng):
        a, b, c = (random_probs(rng, 3, None) for _ in range(3))
        left = qa_pool(QUAD, [(a, 1.0), (b, 1.0)])
        left = qa_pool(QUAD, [(left.pooled, left.total_weight), (c, 1.0)])
        right = qa_pool(QUAD, [(b, 1.0), (c, 1.0)])
        right = qa_pool(QUAD, [(a, 1.0), (right.pooled, right.total_weight)])
        assert np.allclose(left.pooled.probs, right.pooled.probs, atol=1e-9)
        assert left.total_weight == pytest.approx(3.0)

    def test_nonconvex_combination_is_config_error(self):
        with pytest.raises(ConfigError):
            axiom_suite(RuleSpec.tsallis(3.0), 3, 10, seed=0)

    def test_tsallis3_allowed_at_n2(self):
        rep = axiom_suite(RuleSpec.tsallis(3.0), 2, 60, seed=4)
        assert rep.all_passed

    def test_cyclical_monotonicity_reported_for_n3(self):
        rep = axiom_suite(RuleSpec.spherical(2.0), 3, 60, seed=5)
        names = [c.name for c in rep.checks]
        assert "cyclical_monotonicity" in names
        assert "monotonicity_n2" not in names


class TestCyclicalMonotonicity:
    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_cycle_sums_positive(self, rule, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            pts = []
            while len(pts) < k:
                cand = random_probs(rng, n, rule)
                if all(np.linalg.norm(cand - p) >= 1e-3 for p in pts):
                    pts.append(cand)
            total = sum(
                float(np.dot(exposure(rule, pts[i]).coords, pts[i] - pts[i - 1]))
                for i in range(k)
            )
            assert total > 1e-12

    @pytest.mark.parametrize("n", [3, 50])
    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_batched_cycle_sums_are_the_python_sums(self, rule, n):
        rng = np.random.default_rng(n)
        cycles = [_distinct_points(rng, n, rule, int(k)) for k in rng.integers(2, 6, size=40)]
        assert {len(c) for c in cycles} == {2, 3, 4, 5}
        # each term's products and the terms added in order, as a left fold
        # adds (reduce: Python >= 3.12's sum compensates)
        want = [
            reduce(add, [reduce(add, (e * d).tolist()) for e, d in zip(_exposures(rule, P), P - np.roll(P, 1, axis=0))])
            for P in cycles
        ]
        assert _cycle_sums(rule, cycles).tolist() == want


def reference_distinct_points(rng, n, rule, k):
    """One sample_forecast candidate at a time, kept when at distance
    >= 1e-3 from every point kept before it."""
    pts = []
    while len(pts) < k:
        cand = sample_forecast(rng, n, rule).probs
        if all(np.linalg.norm(cand - p) >= 1e-3 for p in pts):
            pts.append(cand)
    return np.array(pts)


class _RowGenerator:
    """Stands in for a Generator: standard_exponential serves fixed rows
    in order, one for a size of n and k for a size of (k, n)."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)
        self.used = 0

    def standard_exponential(self, size):
        k = 1 if isinstance(size, int) else size[0]
        out = self.rows[self.used:self.used + k]
        assert out.shape[0] == k, "ran out of rows"
        self.used += k
        return out[0] if isinstance(size, int) else out


class TestDistinctPoints:
    @pytest.mark.parametrize("rule", [QUAD, RuleSpec.logarithmic()], ids=lambda r: r.label)
    def test_matches_one_candidate_at_a_time(self, rule):
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in (2, 3, 5):
                got = _distinct_points(a, 3, rule, k)
                assert np.array_equal(got, reference_distinct_points(b, 3, rule, k))
            assert a.random() == b.random()

    @pytest.mark.parametrize("rule", [QUAD, RuleSpec.logarithmic()], ids=lambda r: r.label)
    def test_rejected_block_row_is_topped_up(self, rule):
        # row 1 repeats row 0 up to 1e-9, so the block keeps three rows; the
        # first top-up draw repeats row 0 again, the second is kept
        rows = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-9], [3.0, 1.0, 1.0], [1.0, 1.0, 4.0],
                [2.0, 4.0, 6.0], [2.0, 2.0, 1.0], [5.0, 1.0, 1.0]]
        a, b = _RowGenerator(rows), _RowGenerator(rows)
        got = _distinct_points(a, 3, rule, 4)
        want = reference_distinct_points(b, 3, rule, 4)
        assert np.array_equal(got, want)
        assert a.used == b.used == 6


_default_rng = np.random.default_rng  # unpatched, for the stand-in below


class _CloseGenerator:
    """A seeded Generator whose (k, n) exponential blocks are numbered from
    0 in call order; a block whose number is in ``close`` repeats its first
    row as its last, so two of its points coincide.  The count is part of
    bit_generator.state, so putting a saved state back replays the blocks."""

    def __init__(self, seed, close=()):
        self.rng, self.close, self.blocks = _default_rng(seed), set(close), 0

    def __getattr__(self, name):  # integers, uniform, ...
        return getattr(self.rng, name)

    @property
    def bit_generator(self):
        return self  # for its state

    @property
    def state(self):
        return self.rng.bit_generator.state, self.blocks

    @state.setter
    def state(self, value):
        self.rng.bit_generator.state, self.blocks = value

    def standard_exponential(self, size):
        out = self.rng.standard_exponential(size)
        if not isinstance(size, int):
            if self.blocks in self.close:
                out[-1] = out[0]
            self.blocks += 1
        return out


# a too-close pair in no cycle, the first, a middle one, the last (of 20)
CLOSE = {"none": (), "first": (0,), "middle": (10,), "last": (19,)}


class TestCycleFallback:
    # the suite draws every cycle's block first and checks each length's
    # blocks in one batch; a block with a too-close pair needs a top-up draw,
    # which shifts every later cycle, so the suite puts the generator back
    # and draws the cycles one at a time

    @pytest.fixture
    def one_at_a_time(self, monkeypatch):
        """The number of cycles the suite drew through _distinct_points."""
        calls = []
        monkeypatch.setattr(
            analysis, "_distinct_points", lambda *a: calls.append(a) or _distinct_points(*a)
        )
        return calls

    @pytest.mark.parametrize("n", [3, 4, 50])
    @pytest.mark.parametrize("close", CLOSE.values(), ids=CLOSE.keys())
    @pytest.mark.parametrize("rule", [QUAD, RuleSpec.logarithmic()], ids=lambda r: r.label)
    def test_sums_and_end_state_are_the_loops(self, rule, close, n, one_at_a_time):
        a, b = _CloseGenerator(3, close), _CloseGenerator(3, close)
        got = _random_cycle_sums(a, n, rule, 20)
        cycles = [_distinct_points(b, n, rule, int(b.integers(2, 6))) for _ in range(20)]
        assert got.tobytes() == _cycle_sums(rule, cycles).tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random() == b.random()
        # a forced block keeps fewer points than its length and is topped up
        assert len(one_at_a_time) == (20 if close else 0)

    @pytest.mark.parametrize("n", [3, 4, 50])
    @pytest.mark.parametrize("close", CLOSE.values(), ids=CLOSE.keys())
    def test_suite_gap_is_the_per_check_reference(self, close, n, monkeypatch, one_at_a_time):
        rule = RuleSpec.logarithmic()
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _CloseGenerator(seed, close))
        got = axiom_suite(rule, n, 20, 11)
        assert len(one_at_a_time) == (20 if close else 0)
        assert _fields(got) == _fields(per_check_axiom_suite(rule, n, 20, 11))


class TestExposureProbe:
    def test_tsallis3_detects_canonical_failure(self):
        rep = exposure_probe(RuleSpec.tsallis(3.0), 3, 200, seed=0)
        assert rep.canonical_vertex_failure is True
        assert rep.failures > 0

    def test_spherical_never_fails(self):
        rep = exposure_probe(RuleSpec.spherical(2.0), 4, 500, seed=0)
        assert rep.failures == 0
        assert rep.solver_failures == 0
        assert rep.canonical_vertex_failure is False

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_two_outcomes_never_fail(self, rule):
        rep = exposure_probe(rule, 2, 300, seed=1)
        assert rep.failures == 0
        assert rep.failure_rate == 0.0

    @pytest.mark.parametrize(
        "failures, solver_failures, vertex, convex, ok",
        [
            (0, 0, False, True, True),
            (0, 1, False, True, False),  # a convex rule's solver failure fails
            (2, 0, None, True, False),
            (5, 0, True, False, True),
            (5, 0, False, False, False),  # probe failures without the vertex pair
        ],
    )
    def test_verdict(self, failures, solver_failures, vertex, convex, ok):
        rep = ExposureProbeReport("r", 3, 10, 0, failures, solver_failures, vertex)
        assert rep.verdict(convex)[0] is ok


@pytest.mark.parametrize("probe", [axiom_suite, exposure_probe, concavity_probe])
def test_zero_samples_rejected(probe):
    with pytest.raises(ValueError):
        probe(RuleSpec.quadratic(), 3, 0, 0)


@pytest.mark.parametrize("probe", [axiom_suite, exposure_probe, concavity_probe])
@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_outcomes_rejected(probe, n):
    # at n = 1 every draw is the one point mass: the report would be vacuous
    with pytest.raises(ValueError, match="^need at least two outcomes$"):
        probe(RuleSpec.quadratic(), n, 20, 0)


class TestConcavityProbe:
    def test_worst_gap_nonnegative_for_qa_pooling(self):
        rep = concavity_probe(RuleSpec.spherical(2.0), 3, 400, seed=6)
        assert rep.passed and rep.worst_gap >= -1e-9


class TestReverseBregmanDirection:
    """Minimizing divergences *from* the inputs picks the linear pool."""

    @pytest.mark.parametrize(
        "rule", [QUAD, RuleSpec.logarithmic()], ids=lambda r: r.label
    )
    def test_grid_minimizer_is_weighted_mean(self, rule, rng):
        ps = [random_probs(rng, 2, rule) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        mean = weighted_arithmetic_mean(ps, w)

        xs = np.arange(1e-4, 1.0, 1e-4)

        def total(x):
            q = np.array([x, 1.0 - x])
            return sum(wi * bregman(rule, p, q) for wi, p in zip(w, ps))

        vals = np.array([total(x) for x in xs])
        best = xs[int(np.argmin(vals))]
        assert abs(best - mean[0]) <= 1e-4 + 1e-9


# --------------------------------------------------------------------------
# batched suites against per-sample references
# --------------------------------------------------------------------------

def _pair(rule, a, b):
    """The binary operator on (Forecast, weight) pairs, one qa_pool call."""
    res = qa_pool(rule, [a, b])
    return res.pooled, res.total_weight


def reference_axiom_suite(rule, n, samples, seed):
    """{check name: (passed, worst_gap)}, one qa_pool call per pool, with
    the draws of axiom_suite in the same order."""
    rng = np.random.default_rng(seed)

    def draw():
        return sample_forecast(rng, n, rule), rng.uniform(0.1, 2.0)

    def probs(pair):
        return pair[0].probs

    out = {}
    gap = 0.0
    for _ in range(samples):
        a, b = draw(), draw()
        gap = max(gap, abs(_pair(rule, a, b)[1] - (a[1] + b[1])))
    out["weight_additivity"] = (gap == 0.0, gap)
    gap = 0.0
    for _ in range(samples):
        a, b = draw(), draw()
        gap = max(gap, np.abs(probs(_pair(rule, a, b)) - probs(_pair(rule, b, a))).max())
    out["commutativity"] = (gap <= 1e-12, gap)
    gap = 0.0
    for _ in range(samples):
        a, b, c = draw(), draw(), draw()
        left, right = _pair(rule, _pair(rule, a, b), c), _pair(rule, a, _pair(rule, b, c))
        gap = max(gap, np.abs(probs(left) - probs(right)).max(), abs(left[1] - right[1]))
    out["associativity"] = (gap <= 1e-9, gap)
    gap = 0.0
    for _ in range(samples):
        p = sample_forecast(rng, n, rule)
        a, b = (p, rng.uniform(0.1, 2.0)), (p, rng.uniform(0.1, 2.0))
        gap = max(gap, np.abs(probs(_pair(rule, a, b)) - p.probs).max())
    out["idempotence"] = (gap <= 1e-12, gap)
    gap = 0.0
    for _ in range(samples):
        a, b = draw(), draw()
        bumped = probs(_pair(rule, (a[0], a[1] + 1e-6), b))
        gap = max(gap, np.abs(bumped - probs(_pair(rule, a, b))).max())
    out["continuity"] = (gap <= 1e-3, gap)
    if n == 2:
        worst, ok = np.inf, True
        for _ in range(max(1, samples // 10)):
            while True:
                p1, p2 = sample_forecast(rng, 2, rule), sample_forecast(rng, 2, rule)
                if p1.probs[0] < p2.probs[0]:
                    p1, p2 = p2, p1
                if p1.probs[0] - p2.probs[0] >= 0.05:
                    break
            xs = np.linspace(0.01, 0.99, 101)
            prs = [probs(_pair(rule, (p1, x), (p2, 1.0 - x)))[0] for x in xs]
            worst, ok = min(worst, np.diff(prs).min()), ok and np.all(np.diff(prs) > 0.0)
        out["monotonicity_n2"] = (ok, worst)
    else:
        worst = np.inf
        for _ in range(samples):
            k = int(rng.integers(2, 6))
            pts = []
            while len(pts) < k:
                cand = sample_forecast(rng, n, rule)
                if all(np.linalg.norm(cand.probs - p.probs) >= 1e-3 for p in pts):
                    pts.append(cand)
            # products and terms added in order, as a left fold adds; each
            # point's exposure is taken of the Forecast itself, which a
            # second renormalization could move by an ulp
            worst = min(worst, reduce(add, [
                reduce(add, (exposure(rule, pts[i]).coords * (pts[i].probs - pts[i - 1].probs)).tolist())
                for i in range(k)
            ]))
        out["cyclical_monotonicity"] = (worst > 1e-12, worst)
    return out


def reference_exposure_probe(rule, n, samples, seed):
    """(failures, solver_failures), one invert_exposure call per sample."""
    rng = np.random.default_rng(seed)
    failures = solver_failures = 0
    for _ in range(samples):
        p, q = sample_forecast(rng, n, rule), sample_forecast(rng, n, rule)
        w = rng.uniform(0.05, 0.95)
        try:
            t = w * exposure(rule, p).coords + (1.0 - w) * exposure(rule, q).coords
            invert_exposure(rule, t)
        except ExposureRangeError:
            failures += 1
        except SolverError:
            solver_failures += 1
    return failures, solver_failures


def reference_concavity_gap(rule, n, samples, seed, experts=(2, 3)):
    """Worst concavity gap, three weight_score calls per sample."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        m = int(rng.choice(experts))
        fs = [sample_forecast(rng, n, rule) for _ in range(m)]
        v, w = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
        c, j = rng.uniform(), int(rng.integers(1, n + 1))
        gap = (
            weight_score(rule, fs, c * v + (1.0 - c) * w, j)
            - c * weight_score(rule, fs, v, j)
            - (1.0 - c) * weight_score(rule, fs, w, j)
        )
        worst = min(worst, gap)
    return worst


ALL_RULES = CONVEX_RULES + [RuleSpec.tsallis(3.0)]


class TestBatchedSuitesMatchPerSampleReference:
    @pytest.mark.parametrize("n", [2, 3, 50])
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label)
    def test_axiom_suite(self, rule, n):
        for seed in (1, 7):
            if not has_convex_exposure(rule, n):
                with pytest.raises(ConfigError):
                    axiom_suite(rule, n, 12, seed)
                continue
            rep = axiom_suite(rule, n, 12, seed)
            got = {c.name: (c.passed, c.worst_gap) for c in rep.checks}
            want = reference_axiom_suite(rule, n, 12, seed)
            assert got.keys() == want.keys()
            for name, (passed, gap) in want.items():
                assert got[name][0] == passed, name
                assert abs(got[name][1] - gap) <= 1e-12, name

    @pytest.mark.parametrize("n", [2, 3, 50])
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label)
    def test_exposure_probe(self, rule, n):
        for seed in (1, 7):
            rep = exposure_probe(rule, n, 30, seed)
            want = reference_exposure_probe(rule, n, 30, seed)
            assert (rep.failures, rep.solver_failures) == want

    @pytest.mark.parametrize("n", [2, 3, 50])
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label)
    def test_concavity_probe(self, rule, n):
        for seed in (1, 7):
            try:
                want = reference_concavity_gap(rule, n, 20, seed)
            except ExposureRangeError as e:
                # without convex exposure some pool may be unattainable
                assert not has_convex_exposure(rule, n)
                with pytest.raises(ExposureRangeError, match=str(e)):
                    concavity_probe(rule, n, 20, seed)
                continue
            assert abs(concavity_probe(rule, n, 20, seed).worst_gap - want) <= 1e-12

    def test_unattainable_rows_counted_one_by_one(self):
        # tsallis:3 at n = 3: some averages are unattainable, the rest not
        rep = exposure_probe(RuleSpec.tsallis(3.0), 3, 200, 0)
        assert 0 < rep.failures < 200 and rep.solver_failures == 0
        want = reference_exposure_probe(RuleSpec.tsallis(3.0), 3, 200, 0)
        assert (rep.failures, 0) == want

    @pytest.mark.parametrize(
        "rule", [RuleSpec.neglog(), RuleSpec.hs(), RuleSpec.tsallis(3.0)],
        ids=lambda r: r.label,
    )
    def test_unconverged_rows_counted_one_by_one(self, rule, monkeypatch):
        import qapool.pooling as pooling

        monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", 1)
        rep = exposure_probe(rule, 3, 60, 2)
        assert rep.solver_failures > 0
        assert rep.failures + rep.solver_failures <= 60
        want = reference_exposure_probe(rule, 3, 60, 2)
        assert (rep.failures, rep.solver_failures) == want


# the rule strings of the benchmark's audits and probes
SUITE_RULES = [
    parse_rule(s)
    for s in ("quadratic", "log", "neglog", "power:0.5", "spherical:2", "tsallis:1.5", "hs",
              "tsallis:3")
]


def _fields(report):
    return [(c.name, c.passed, c.worst_gap, c.tolerance) for c in report.checks]


class TestStackedBatchesMatchPerCheckReference:
    # the suites stack their checks' pools into few batches and transform
    # their draws in bulk; every verdict and gap must be bit for bit the
    # one-batch-per-check, one-call-per-draw value

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rule", SUITE_RULES, ids=lambda r: r.label)
    def test_axiom_suite(self, rule, n):
        for seed in (1, 7):
            if not has_convex_exposure(rule, n):
                with pytest.raises(ConfigError):
                    axiom_suite(rule, n, 12, seed)
                continue
            got, want = axiom_suite(rule, n, 12, seed), per_check_axiom_suite(rule, n, 12, seed)
            assert _fields(got) == _fields(want)

    # the benchmark's audit shapes: 20 samples at n = 3 and 4, and n = 50
    @pytest.mark.parametrize(
        "rule, n",
        [(rule, n) for n in (3, 4) for rule in CONVEX_RULES]
        + [(QUAD, 50), (RuleSpec.logarithmic(), 50)],
        ids=lambda x: x.label if isinstance(x, RuleSpec) else f"n{x}",
    )
    def test_axiom_suite_at_audit_shapes(self, rule, n):
        for seed in (1, 7):
            got, want = axiom_suite(rule, n, 20, seed), per_check_axiom_suite(rule, n, 20, seed)
            assert _fields(got) == _fields(want)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rule", SUITE_RULES, ids=lambda r: r.label)
    def test_concavity_probe(self, rule, n):
        for seed in (1, 7):
            try:
                want = per_check_concavity_gap(rule, n, 20, seed)
            except ExposureRangeError as e:
                assert not has_convex_exposure(rule, n)
                with pytest.raises(ExposureRangeError, match=str(e)):
                    concavity_probe(rule, n, 20, seed)
                continue
            assert concavity_probe(rule, n, 20, seed).worst_gap == want

    @pytest.mark.parametrize("marked, error", [
        (("commutativity", "continuity"), SolverError),
        (("continuity",), ExposureRangeError),
    ])
    @pytest.mark.parametrize("rule", [QUAD, RuleSpec.hs()], ids=lambda r: r.label)
    def test_first_failed_check_raises(self, rule, marked, error, monkeypatch):
        # a stubbed kernel fails one row of commutativity (as unconverged)
        # and one of continuity (as unattainable); the earlier check's
        # error is raised, as pooling check by check raises it
        import qapool.pooling as pooling

        real = pooling._inverse_rows
        targets = []
        monkeypatch.setattr(
            pooling, "_inverse_rows", lambda r, T: targets.append(T.copy()) or real(r, T)
        )
        per_check_axiom_suite(rule, 3, 12, 5)
        # the kernel calls of the reference: additivity, commutativity,
        # associativity's two levels, continuity (idempotence needs none)
        codes = {
            "commutativity": (targets[1][3], pooling._NOT_CONVERGED),
            "continuity": (targets[4][12 + 5], pooling._UNATTAINABLE),
        }

        def stub(r, T):
            X, fail = real(r, T)
            for name in marked:
                t, code = codes[name]
                fail[(T == t).all(axis=1)] = code
            return X, fail

        monkeypatch.setattr(pooling, "_inverse_rows", stub)
        raised = []
        for suite in (axiom_suite, per_check_axiom_suite):
            with pytest.raises(error) as info:
                suite(rule, 3, 12, 5)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] and raised[0][0] is error
