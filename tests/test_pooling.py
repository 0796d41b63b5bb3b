"""Pooling: defining identity, classical correspondences, inversion paths."""

import warnings
from functools import reduce
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qapool.pooling as pooling
from qapool import (
    DegenerateError,
    DomainError,
    ExposureRangeError,
    Forecast,
    RuleSpec,
    SolverError,
    bregman,
    exposure,
    generalized_pool,
    invert_exposure,
    qa_pool,
)
from qapool.pooling import (
    _NOT_CONVERGED,
    _ROOT_XTOL,
    _SCALAR_ROWS,
    _MIX_SLICES,
    _UNATTAINABLE,
    BREGMAN_MIN,
    CLOSED_FORM,
    ROOT_FIND,
    _certified_inverse,
    _inverse_rows,
    _invert_rows,
    _mix,
    _pool_rows,
    _solve_shift,
    _solve_shift_small,
)
from qapool.rules import OPEN_MIN, _gradient
from qapool.simplex import _ORDERED_MAX

from conftest import CONVEX_RULES, RULE_IDS, random_instance, random_probs
from oracles import (
    grid_argmin,
    spg_inverse,
    weighted_arithmetic_mean,
    weighted_geometric_mean,
    weighted_power_mean,
)


def identity_residual(rule, result, inputs):
    """|| g(pool) - weighted average of g(p_i) || in the sum-zero space."""
    w = np.array([wt for _, wt in inputs], dtype=float)
    w = w / w.sum()
    target = sum(
        wi * exposure(rule, p).coords for wi, (p, _) in zip(w, inputs)
    )
    return float(np.linalg.norm(exposure(rule, result.pooled).coords - target))


class TestCorrespondences:
    def test_quadratic_is_linear_pooling(self, rng):
        rule = RuleSpec.quadratic()
        for _ in range(200):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            inputs = random_instance(rng, rule, n, m)
            got = qa_pool(rule, inputs).pooled.probs
            want = weighted_arithmetic_mean(
                [p for p, _ in inputs], np.array([w for _, w in inputs])
            )
            assert np.abs(got - want).max() <= 1e-10

    def test_logarithmic_is_geometric_pooling(self, rng):
        rule = RuleSpec.logarithmic()
        for _ in range(200):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            inputs = random_instance(rng, rule, n, m)
            got = qa_pool(rule, inputs).pooled.probs
            want = weighted_geometric_mean(
                [p for p, _ in inputs], np.array([w for _, w in inputs])
            )
            assert np.abs(got - want).max() <= 1e-10

    def test_neglog_is_shifted_harmonic_pooling(self, rng):
        # the -1-power mean with the additive simplex shift (the same
        # shape as the tsallis constraint, at exponent -1)
        rule = RuleSpec.neglog()
        for _ in range(50):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            inputs = random_instance(rng, rule, n, m)
            got = qa_pool(rule, inputs).pooled.probs
            want = weighted_power_mean(
                [p for p, _ in inputs], np.array([w for _, w in inputs]), -1.0
            )
            assert np.abs(got - want).max() <= 1e-9

    def test_tsallis_examples(self):
        # two symmetric experts under a gamma=3 rule meet at the midpoint
        res = qa_pool(RuleSpec.tsallis(3.0), [([0.8, 0.2], 0.5), ([0.2, 0.8], 0.5)])
        assert np.allclose(res.pooled.probs, [0.5, 0.5], atol=1e-12)


class TestDefiningIdentity:
    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_residual_within_tolerance(self, rule, rng):
        for _ in range(40):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            inputs = random_instance(rng, rule, n, m)
            result = qa_pool(rule, inputs)
            assert identity_residual(rule, result, inputs) <= 1e-8
            assert result.residual <= 1e-8

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_idempotence_exact(self, rule, rng):
        p = random_probs(rng, 3, rule)
        res = qa_pool(rule, [(p, 0.3), (p, 1.1), (p, 0.6)])
        assert np.array_equal(res.pooled.probs, Forecast(p).probs)
        assert res.residual == 0.0

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_scale_invariance(self, rule, rng):
        inputs = random_instance(rng, rule, 3, 3)
        base = qa_pool(rule, inputs)
        scaled = qa_pool(rule, [(p, 17.0 * w) for p, w in inputs])
        assert np.allclose(base.pooled.probs, scaled.pooled.probs, atol=1e-12)
        assert scaled.total_weight == pytest.approx(17.0 * base.total_weight)

    def test_zero_weights_dropped(self, rng):
        rule = RuleSpec.quadratic()
        p, q = random_probs(rng, 3, rule), random_probs(rng, 3, rule)
        with_zero = qa_pool(rule, [(p, 0.7), (q, 0.0)])
        assert np.array_equal(with_zero.pooled.probs, Forecast(p).probs)
        assert with_zero.total_weight == pytest.approx(0.7)

    def test_all_zero_weights_degenerate(self):
        with pytest.raises(DegenerateError):
            qa_pool(RuleSpec.quadratic(), [([0.5, 0.5], 0.0), ([0.1, 0.9], 0.0)])
        with pytest.raises(DegenerateError):
            qa_pool(RuleSpec.quadratic(), [])

    def test_mismatched_outcome_counts(self):
        with pytest.raises(ValueError):
            qa_pool(RuleSpec.quadratic(), [([0.5, 0.5], 1.0), ([0.2, 0.3, 0.5], 1.0)])

    @pytest.mark.parametrize("pool", [qa_pool, generalized_pool])
    def test_overflowing_total_weight_rejected(self, pool):
        inputs = [([0.2, 0.3, 0.5], 1e308), ([0.6, 0.3, 0.1], 1e308)]
        with pytest.raises(ValueError, match="total weight"):
            pool(RuleSpec.quadratic(), inputs)

    def test_infinite_residual_fails_the_certificate(self):
        inputs = [([1e-300, 0.5, 0.5], 1.0), ([0.2, 0.3, 0.5], 1.0)]
        with pytest.raises(SolverError, match="residual"):
            qa_pool(RuleSpec.neglog(), inputs)

    def test_log_pooling_rejects_boundary_forecast(self):
        # mixing certainty in opposite outcomes has no finite log pool
        with pytest.raises(DomainError):
            qa_pool(RuleSpec.logarithmic(), [([1.0, 0.0], 0.5), ([0.0, 1.0], 0.5)])

    def test_method_tags(self, rng):
        inputs = random_instance(rng, RuleSpec.quadratic(), 3, 2)
        assert qa_pool(RuleSpec.quadratic(), inputs).method == CLOSED_FORM
        assert qa_pool(RuleSpec.logarithmic(), inputs).method == CLOSED_FORM
        for rule in (RuleSpec.neglog(), RuleSpec.power(0.5), RuleSpec.hs(),
                     RuleSpec.tsallis(1.5), RuleSpec.spherical(2.0)):
            assert qa_pool(rule, inputs).method == ROOT_FIND

    def test_nonconvex_average_raises(self):
        with pytest.raises(ExposureRangeError):
            qa_pool(
                RuleSpec.tsallis(3.0),
                [([1.0, 0.0, 0.0], 0.5), ([0.0, 1.0, 0.0], 0.5)],
            )


class TestInvertExposure:
    def test_quadratic_closed_form(self):
        f = invert_exposure(RuleSpec.quadratic(), [0.4, -0.4])
        assert np.allclose(f.probs, [0.7, 0.3], atol=1e-12)

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_zero_target_is_uniform(self, rule):
        for n in (2, 3, 5):
            f = invert_exposure(rule, np.zeros(n))
            assert np.allclose(f.probs, 1.0 / n, atol=1e-10)

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_round_trip(self, rule, rng):
        # g is injective: invert(exposure(p)) recovers p
        for n in (2, 3, 4):
            p = random_probs(rng, n, rule)
            f = invert_exposure(rule, exposure(rule, p).coords)
            assert np.allclose(f.probs, p, atol=1e-9)

    def test_tsallis_nonconvex_target_raises(self):
        rule = RuleSpec.tsallis(3.0)
        t = 0.5 * (
            exposure(rule, [1.0, 0.0, 0.0]).coords
            + exposure(rule, [0.0, 1.0, 0.0]).coords
        )
        with pytest.raises(ExposureRangeError):
            invert_exposure(rule, t)

    @pytest.mark.parametrize("rule", [RuleSpec.spherical(2.0), RuleSpec.tsallis(1.5)],
                             ids=["spherical:2", "tsallis:1.5"])
    def test_overflowing_offsets_raise_without_warning(self, rule):
        # (a**p).sum overflows to inf, which marks the target unattainable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExposureRangeError, match="not attainable"):
                invert_exposure(rule, [1e200, -1e200, 0.0])

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_generic_path_agrees_with_fast_path(self, rule, n, rng):
        p, q = random_probs(rng, n, rule), random_probs(rng, n, rule)
        t = 0.4 * exposure(rule, p).coords + 0.6 * exposure(rule, q).coords
        fast = invert_exposure(rule, t)
        generic = spg_inverse(rule, t)
        assert np.allclose(fast.probs, generic.probs, atol=1e-6)


class TestTsallisInvert:
    # v_j is a weighted average of the inputs' p_j^(gamma-1); gamma * v is
    # then the tsallis exposure average, up to the free shift
    def test_gamma_two_is_identity(self):
        f = invert_exposure(RuleSpec.tsallis(2.0), 2.0 * np.array([0.3, 0.7]))
        assert np.allclose(f.probs, [0.3, 0.7], atol=1e-12)

    def test_gamma_three_bisection(self):
        # solve 2 sqrt(0.34 + c) = 1: c = -0.09, x = (0.5, 0.5)
        f = invert_exposure(RuleSpec.tsallis(3.0), 3.0 * np.array([0.34, 0.34]))
        assert np.allclose(f.probs, [0.5, 0.5], atol=1e-10)

    def test_gamma_three_vertex_average_fails(self):
        with pytest.raises(ExposureRangeError):
            invert_exposure(RuleSpec.tsallis(3.0), 3.0 * np.array([0.5, 0.5, 0.0]))

    def test_exposure_alignment(self, rng):
        # canonical exposure of the result matches the canonical target
        gamma = 1.7
        for _ in range(20):
            p = random_probs(rng, 3, None)
            q = random_probs(rng, 3, None)
            w = rng.uniform()
            v = w * p ** (gamma - 1.0) + (1.0 - w) * q ** (gamma - 1.0)
            f = invert_exposure(RuleSpec.tsallis(gamma), gamma * v)
            got = gamma * f.probs ** (gamma - 1.0)
            diff = (got - gamma * v) - (got - gamma * v).mean()
            assert np.linalg.norm(diff) <= 1e-10

    def test_requires_gamma_above_one(self):
        from qapool import ConfigError

        with pytest.raises(ConfigError):
            invert_exposure(RuleSpec.tsallis(1.0), [0.5, 0.5])


class TestNonFiniteTargets:
    @pytest.mark.parametrize(
        "rule", [RuleSpec.quadratic(), RuleSpec.hs()], ids=["quadratic", "hs"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_rejected_as_input_errors(self, rule, bad):
        # an input error, not a solver that ran out of iterations
        with pytest.raises(ValueError, match="finite"):
            invert_exposure(rule, [bad, 0.5, -0.5])

    @pytest.mark.parametrize(
        "rule", CONVEX_RULES + [RuleSpec.tsallis(3.0)], ids=RULE_IDS + ["tsallis:3"]
    )
    def test_overflowing_offsets_raise_one_error(self, rule):
        # a finite target whose gaps overflow float64: one error and no
        # numpy warning, which the suite turns into a failure
        want = ExposureRangeError if rule.family == "quadratic" else ValueError
        with pytest.raises(want, match="outside|spread out"):
            invert_exposure(rule, [1e308, -1e308, 0.0])

    def test_hs_pool_below_open_min_is_a_domain_error(self, monkeypatch):
        # the true pool's small coordinates are about 1e-600
        t = [1e200, -1e200, 0.0]
        with pytest.raises(DomainError) as want:
            invert_exposure(RuleSpec.power(0.5), t)
        # decided before the kernel iterates, not by running out of iterations
        monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", 0)
        with pytest.raises(DomainError) as got:
            invert_exposure(RuleSpec.hs(), t)
        assert str(got.value) == str(want.value).replace("power:0.5", "hs")

    @pytest.mark.parametrize("k", [2, _SCALAR_ROWS + 1])
    def test_hs_far_row_leaves_the_others_alone(self, k):
        rule = RuleSpec.hs()
        T = np.tile([0.3, -0.1, -0.2], (k, 1))
        T[1] = [1e200, -1e200, 0.0]
        X, fail = _inverse_rows(rule, T)
        assert fail is None and X[1].min() < OPEN_MIN
        alone = _inverse_rows(rule, T[:1])[0][0]
        assert np.array_equal(np.delete(X, 1, axis=0), np.tile(alone, (k - 1, 1)))


class TestSphericalPool:
    def test_symmetry(self):
        res = qa_pool(RuleSpec.spherical(2.0), [([1.0, 0.0], 0.5), ([0.0, 1.0], 0.5)])
        assert np.allclose(res.pooled.probs, [0.5, 0.5], atol=1e-12)

    def test_single_input(self):
        res = qa_pool(RuleSpec.spherical(2.0), [([1.0, 0.0], 1.0)])
        assert np.array_equal(res.pooled.probs, [1.0, 0.0])

    def test_matches_generic_inversion(self):
        rule = RuleSpec.spherical(2.0)
        inputs = [([1.0, 0.0], 0.75), ([0.0, 1.0], 0.25)]
        res = qa_pool(rule, inputs)
        t = 0.75 * exposure(rule, [1.0, 0.0]).coords + 0.25 * exposure(
            rule, [0.0, 1.0]
        ).coords
        generic = spg_inverse(rule, t)
        assert np.allclose(res.pooled.probs, generic.probs, atol=1e-8)


class TestGeneralizedPool:
    def test_matches_qa_pool_quadratic_example(self):
        inputs = [([0.1, 0.9], 0.5), ([0.5, 0.5], 0.5)]
        res = generalized_pool(RuleSpec.quadratic(), inputs)
        assert res.method == BREGMAN_MIN
        assert np.allclose(res.pooled.probs, [0.3, 0.7], atol=1e-7)

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_agrees_with_qa_pool(self, rule, rng):
        floor = None
        if rule.family == "neglog" or (rule.family == "power" and rule.param < 0):
            floor = 1e-8
        for _ in range(5):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            inputs = random_instance(rng, rule, n, m)
            a = generalized_pool(rule, inputs, floor=floor).pooled.probs
            b = qa_pool(rule, inputs).pooled.probs
            assert np.abs(a - b).max() <= 1e-7

    def test_identical_inputs_short_circuit(self, rng):
        p = random_probs(rng, 3, None)
        res = generalized_pool(RuleSpec.tsallis(3.0), [(p, 0.5), (p, 0.5)])
        assert np.array_equal(res.pooled.probs, Forecast(p).probs)
        assert res.residual == 0.0

    def test_tsallis_vertices_match_grid_search(self):
        # the divergence-sum minimizer for the canonical failure pair,
        # against a dense simplex grid
        rule = RuleSpec.tsallis(3.0)
        inputs = [([1.0, 0.0, 0.0], 0.5), ([0.0, 1.0, 0.0], 0.5)]
        res = generalized_pool(rule, inputs)

        p1, p2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

        def objective(grid):
            return np.array(
                [
                    0.5 * bregman(rule, x, p1) + 0.5 * bregman(rule, x, p2)
                    for x in grid
                ]
            )

        best, _ = grid_argmin(objective, 3, 1e-2)
        assert np.abs(res.pooled.probs - best).max() <= 2e-2
        assert np.allclose(res.pooled.probs, [0.5, 0.5, 0.0], atol=1e-7)

    def test_unbounded_rules_need_floor(self):
        with pytest.raises(DomainError):
            generalized_pool(RuleSpec.neglog(), [([0.3, 0.7], 1.0), ([0.6, 0.4], 1.0)])
        with pytest.raises(DomainError):
            generalized_pool(
                RuleSpec.power(-1.0), [([0.3, 0.7], 1.0), ([0.6, 0.4], 1.0)]
            )

    def test_first_order_optimality_certificate(self, rng):
        from qapool.optim import kkt_residual
        from qapool.rules import _gradient

        rule = RuleSpec.tsallis(3.0)
        inputs = [([0.9, 0.05, 0.05], 0.5), ([0.05, 0.9, 0.05], 0.5)]
        res = generalized_pool(rule, inputs)
        w = np.array([0.5, 0.5])
        target = 0.5 * exposure(rule, inputs[0][0]).coords + 0.5 * exposure(
            rule, inputs[1][0]
        ).coords
        grad = _gradient(rule, res.pooled.probs) - target
        assert kkt_residual(grad, res.pooled.probs) <= 1e-7


# the five root-find families at their default parameters, plus the
# parameter ranges where the kernel's exponents change sign or convexity
KERNEL_RULES = [
    RuleSpec.neglog(),
    RuleSpec.power(0.5),
    RuleSpec.hs(),
    RuleSpec.tsallis(1.5),
    RuleSpec.spherical(2.0),
    RuleSpec.power(-1.0),
    RuleSpec.spherical(3.0),
    RuleSpec.tsallis(2.0),
]
KERNEL_IDS = [r.label for r in KERNEL_RULES]


def kernel_targets(rng, rule, n, k=6, smallest=1e-6):
    """k canonical targets from random forecasts; row 0 has a coordinate
    at ``smallest`` and row 1 one just above it."""
    X = rng.dirichlet(np.ones(n), size=k)
    X[0, 0], X[1, -1] = smallest, 10.0 * smallest
    X = np.maximum(X, smallest)
    X /= X.sum(axis=1, keepdims=True)
    T = _gradient(rule, X)
    return T - T.mean(axis=1, keepdims=True)


# the families of the float-path comparisons: the shift exponent p at
# -1, -2, -0.5, 0 (hs), 2 and 6 (spherical), 2 and 10 (tsallis)
SMALL_RULES = [
    RuleSpec.neglog(),
    RuleSpec.hs(),
    RuleSpec.power(0.5),
    RuleSpec.power(-1.0),
    RuleSpec.spherical(2.0),
    RuleSpec.spherical(1.2),
    RuleSpec.tsallis(1.5),
    RuleSpec.tsallis(1.1),
]
SMALL_IDS = [r.label for r in SMALL_RULES]


def numpy_shift(a, p, lo, hi):
    """The numpy kernel of _solve_shift, at any problem size."""
    with mock.patch.object(pooling, "_SCALAR_ROWS", -1):
        return _solve_shift(a, p, lo, hi)


def assert_same_shift(rule, T):
    """The float path solves the shift problem of T's rows to the numpy
    kernel's bits; returns the problem's bracket and the shifts."""
    a, p, _, lo, hi = rule._impl.shift(T, rule.param)
    c = _solve_shift_small(a, p, lo, hi)
    assert np.array_equal(c, numpy_shift(a, p, lo, hi), equal_nan=True)
    return np.broadcast_to(lo, c.shape), np.broadcast_to(hi, c.shape), c


@st.composite
def shift_targets(draw):
    """A rule and a (k, n) array of canonical targets of the float path's
    size, from forecasts whose coordinates span nine decades."""
    rule = draw(st.sampled_from(SMALL_RULES))
    n = draw(st.integers(2, _ORDERED_MAX))
    k = draw(st.integers(1, _SCALAR_ROWS))
    logs = draw(hnp.arrays(float, (k, n), elements=st.floats(-20.0, 0.0)))
    X = np.exp(logs)
    X /= X.sum(axis=1, keepdims=True)
    T = _gradient(rule, X)
    return rule, T - T.mean(axis=1, keepdims=True)


class TestRowKernel:
    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_batch_rows_match_single_row_calls(self, rule, rng):
        for n in (2, 3, 50):
            T = kernel_targets(rng, rule, n)
            batch = _invert_rows(rule, T)
            for i in range(T.shape[0]):
                single = _invert_rows(rule, T[i : i + 1])[0]
                assert np.abs(batch[i] - single).max() <= 1e-15

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=KERNEL_IDS)
    def test_exposure_of_inverse_is_target(self, rule, rng):
        for n in (2, 3, 50):
            T = kernel_targets(rng, rule, n)
            X = _invert_rows(rule, T)
            G = _gradient(rule, X)
            G -= G.mean(axis=1, keepdims=True)
            for g, t in zip(G, T):
                assert np.linalg.norm(g - t) <= 1e-8 * max(1.0, np.linalg.norm(t))

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=KERNEL_IDS)
    def test_shift_agrees_with_scipy_find_root(self, rule, rng):
        find_root = pytest.importorskip("scipy.optimize.elementwise").find_root
        eps = np.finfo(float).eps
        for n in (2, 3, 50):
            a, p, _, lo, hi = rule._impl.shift(kernel_targets(rng, rule, n), rule.param)
            c = _solve_shift(a, p, lo, hi)
            lo, hi = np.broadcast_to(lo, c.shape), np.broadcast_to(hi, c.shape)
            open_ = hi > lo

            def f(x, *cols):
                z = np.stack(cols, axis=-1) + x[..., None]
                return np.log(z).sum(axis=-1) if p == 0.0 else (z**p).sum(axis=-1) - 1.0

            with np.errstate(divide="ignore"):
                res = find_root(f, (lo[open_], hi[open_]), args=tuple(a[open_].T))
            assert np.all(res.success)
            # agreement to the root's float64 resolution: eps*|c| plus the
            # rounding error of the residual divided by its slope
            z = a[open_] + c[open_, None]
            if p == 0.0:
                size, slope = np.abs(np.log(z)).sum(axis=1), (1.0 / z).sum(axis=1)
            else:
                size, slope = (z**p).sum(axis=1), abs(p) * (z ** (p - 1.0)).sum(axis=1)
            resolution = eps * (np.abs(c[open_]) + size / slope)
            assert np.all(np.abs(res.x - c[open_]) <= 16.0 * resolution)

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=KERNEL_IDS)
    def test_iteration_cap_raises(self, rule, rng, monkeypatch):
        import qapool.pooling as pooling

        monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", 1)
        with pytest.raises(SolverError, match=rule.label):
            _invert_rows(rule, kernel_targets(rng, rule, 3))

    def test_public_inverters_use_the_kernel(self, rng, monkeypatch):
        import qapool.pooling as pooling

        monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", 1)
        inputs = random_instance(rng, RuleSpec.hs(), 3, 2)
        with pytest.raises(SolverError):
            qa_pool(RuleSpec.hs(), inputs)
        with pytest.raises(SolverError):
            qa_pool(RuleSpec.spherical(2.0), inputs)
        with pytest.raises(SolverError):
            invert_exposure(RuleSpec.tsallis(1.5), 1.5 * np.array([0.2, 0.3, 0.6]))

    @pytest.mark.parametrize("rule", SMALL_RULES, ids=SMALL_IDS)
    def test_float_path_matches_numpy_kernel(self, rule, rng):
        # rows 0 and 1 of kernel_targets sit near the simplex boundary
        for n in (2, 3, 7):
            for k in (1, 2, 10, _SCALAR_ROWS):
                for smallest in (1e-3, 1e-6, 1e-12):
                    assert_same_shift(rule, kernel_targets(rng, rule, n, max(k, 2), smallest)[:k])

    def test_float_path_matches_on_many_hs_rows(self, rng):
        # math.log is off by an ulp from np.log on 0.3-2% of inputs, which
        # moves about one hs shift in 400: 3000 rows catch a float log
        rule = RuleSpec.hs()
        for _ in range(250):
            X = np.maximum(rng.dirichlet(np.ones(3), size=_SCALAR_ROWS), 0.05)
            T = _gradient(rule, X / X.sum(axis=1, keepdims=True))
            assert_same_shift(rule, T - T.mean(axis=1, keepdims=True))

    @pytest.mark.parametrize("rule", SMALL_RULES, ids=SMALL_IDS)
    def test_float_path_matches_on_far_targets(self, rule):
        T = np.array([[1e8, -1e8, 0.0], [-1e8, 0.5e8, 0.5e8], [1e12, -1e12, 0.0],
                      [3.0, -1.5, -1.5], [0.0, 0.0, 0.0]])
        assert_same_shift(rule, T)

    def test_float_path_matches_where_hs_starts_at_a_zero(self, rng):
        # an hs row whose bracket starts at 0 has z_j = 0 at its start: log 0
        # is -inf and 1/0 raises on floats, so the step is taken on numpy
        # scalars, which give inf and a NaN step, then bisection
        lo, _, _ = assert_same_shift(RuleSpec.hs(), kernel_targets(rng, RuleSpec.hs(), 3))
        assert (lo == 0.0).any() and (lo > 0.0).any()

    def test_float_path_matches_on_unattainable_rows(self, rng):
        rule = RuleSpec.tsallis(3.0)  # p = 0.5, numpy's sqrt
        vertices = (
            exposure(rule, [1.0, 0.0, 0.0]).coords + exposure(rule, [0.0, 1.0, 0.0]).coords
        )
        inner = kernel_targets(rng, rule, 3, k=4)
        _, hi, c = assert_same_shift(rule, np.vstack([inner[:2], 0.5 * vertices, inner[2:]]))
        assert np.isnan(hi).tolist() == [False, False, True, False, False]
        assert np.isnan(c).tolist() == [False, False, True, False, False]

    @pytest.mark.parametrize("rule", [RuleSpec.tsallis(1.5), RuleSpec.spherical(2.0)],
                             ids=["tsallis:1.5", "spherical:2"])
    def test_float_path_matches_on_rows_that_start_converged(self, rule, rng):
        # a vertex's exposure puts the constraint exactly at zero shift, so
        # the bracket [0, 0] is within tolerance before any iteration
        T = np.vstack([exposure(rule, [0.0, 1.0, 0.0]).coords, kernel_targets(rng, rule, 3, k=3)])
        lo, hi, c = assert_same_shift(rule, T)
        assert hi[0] - lo[0] <= _ROOT_XTOL * abs(c[0]) and not np.isnan(c).any()

    @pytest.mark.parametrize("cap", [1, 3])
    def test_float_path_matches_when_rows_run_out_of_iterations(self, cap, rng, monkeypatch):
        monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", cap)
        unconverged = 0
        for rule in SMALL_RULES:
            _, _, c = assert_same_shift(rule, kernel_targets(rng, rule, 3, k=_SCALAR_ROWS))
            unconverged += np.isnan(c).sum()
        assert unconverged > 0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(problem=shift_targets())
    def test_float_path_matches_numpy_kernel_under_hypothesis(self, problem):
        assert_same_shift(*problem)

    def test_short_problems_take_the_float_path(self, rng, monkeypatch):
        shapes, small = [], _solve_shift_small

        def spy(a, *args):
            shapes.append(a.shape)
            return small(a, *args)

        monkeypatch.setattr(pooling, "_solve_shift_small", spy)
        rule = RuleSpec.neglog()
        sizes = [(_ORDERED_MAX, _SCALAR_ROWS), (2, 1), (_ORDERED_MAX + 1, 1), (3, _SCALAR_ROWS + 1)]
        for n, k in sizes:
            a, p, _, lo, hi = rule._impl.shift(kernel_targets(rng, rule, n, max(k, 2))[:k], None)
            _solve_shift(a, p, lo, hi)
        assert shapes == [(_SCALAR_ROWS, _ORDERED_MAX), (1, 2)]


class TestOrderedMix:
    """_mix's two forms add the same products in the same order, so a row
    mixed in a large batch has the bits it has alone, and those are the
    bits of the products added in expert order on Python floats."""

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 48, 96])
    @pytest.mark.parametrize("n", [2, 3, 8, 50])
    def test_batched_rows_match_single_rows(self, m, n):
        rng = np.random.default_rng([m, n])
        E = rng.standard_normal((_MIX_SLICES + 3, m, n)) * 10.0 ** rng.integers(-4, 4, (1, m, n))
        w = rng.dirichlet(np.ones(m))
        W = rng.dirichlet(np.ones(m), size=E.shape[0])
        many, rows = _mix(E, w), np.vstack([_mix(E[i : i + 1], w) for i in range(E.shape[0])])
        assert many.tobytes() == rows.tobytes()
        many, rows = _mix(E, W), np.vstack([_mix(E[i : i + 1], W[i : i + 1]) for i in range(E.shape[0])])
        assert many.tobytes() == rows.tobytes()
        t = [reduce(add, [float(w[i]) * E[0, i, j] for i in range(m)]) for j in range(n)]
        assert _mix(E[:1], w)[0].tobytes() == (np.array(t) - np.add.reduce(t) / n).tobytes()


class TestRowFailures:
    """A batch reports each row's failure; one failed row spoils no other."""

    TSALLIS3 = RuleSpec.tsallis(3.0)

    def test_unattainable_rows_are_counted_row_by_row(self, rng):
        rule = self.TSALLIS3
        vertices = (
            exposure(rule, [1.0, 0.0, 0.0]).coords + exposure(rule, [0.0, 1.0, 0.0]).coords
        )
        # the exposure of a forecast is attained by that forecast
        inner = [exposure(rule, random_probs(rng, 3, rule)).coords for _ in range(4)]
        T = np.array(
            [inner[0], 0.5 * vertices, inner[1], inner[2], 0.5 * vertices, inner[3]]
        )
        X, res, fail = _certified_inverse(rule, T)
        assert fail.tolist() == [0, _UNATTAINABLE, 0, 0, _UNATTAINABLE, 0]
        assert np.isnan(X[fail != 0]).all() and np.isnan(res[fail != 0]).all()
        for x, t in zip(X[fail == 0], T[fail == 0]):
            assert np.array_equal(x, invert_exposure(rule, t).probs)
        with pytest.raises(ExposureRangeError) as err:
            invert_exposure(rule, 0.5 * vertices)
        assert str(err.value) == (
            "target exposure is not attainable for rule tsallis:3: "
            "the simplex constraint overshoots at every admissible shift"
        )

    def test_quadratic_range_is_checked_per_row(self):
        rule = RuleSpec.quadratic()
        T = np.array([[0.4, -0.4], [3.0, -3.0], [-0.2, 0.2]])
        X, fail = _inverse_rows(rule, T)
        assert fail.tolist() == [0, _UNATTAINABLE, 0]
        assert np.allclose(X[[0, 2]], [[0.7, 0.3], [0.4, 0.6]], atol=1e-15)
        with pytest.raises(ExposureRangeError) as err:
            invert_exposure(rule, [3.0, -3.0])
        assert str(err.value) == "target exposure lies outside the quadratic rule's range"

    def test_unconverged_rows_are_reported_per_row(self, rng, monkeypatch):
        import qapool.pooling as pooling

        rule = RuleSpec.spherical(2.0)
        T = kernel_targets(rng, rule, 3)
        want, clean = _inverse_rows(rule, T)
        assert clean is None  # no failure codes when every row inverted
        monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", 1)
        X, fail = _inverse_rows(rule, T)
        assert set(fail.tolist()) <= {0, _NOT_CONVERGED} and _NOT_CONVERGED in fail
        assert np.isnan(X[fail != 0]).all()
        assert np.array_equal(X[fail == 0], want[fail == 0])

    def test_failing_residual_on_one_row_raises(self, rng):
        rule = RuleSpec.neglog()
        fs = [[Forecast(random_probs(rng, 3, rule)) for _ in range(2)] for _ in range(4)]
        P = np.array([[f.probs for f in row] for row in fs])
        W = rng.uniform(0.5, 2.0, size=(4, 2))
        X, total, res, same = _pool_rows(rule, P, W)  # every row certified
        assert np.all(res <= 1e-8) and not same.any()
        for i in range(4):
            single = qa_pool(rule, list(zip(fs[i], W[i])))
            assert np.array_equal(X[i], single.pooled.probs)
            assert total[i] == single.total_weight and res[i] == single.residual
        # the exposure -1/1e-300 drives row 2's residual to infinity
        P[2], W[2] = [[1e-300, 0.5, 0.5], [0.2, 0.3, 0.5]], 1.0
        with pytest.raises(SolverError, match="residual") as err:
            _pool_rows(rule, P, W)
        with pytest.raises(SolverError) as single:
            qa_pool(rule, list(zip(P[2], W[2])))
        assert str(err.value) == str(single.value)

    def test_rows_keep_qa_pool_checks(self):
        rule = RuleSpec.quadratic()
        p, q = [0.2, 0.3, 0.5], [0.6, 0.3, 0.1]
        P = np.array([[p, q], [q, p]])
        with pytest.raises(ValueError, match="total weight"):
            _pool_rows(rule, P, np.array([[1.0, 1.0], [1e308, 1e308]]))
        with pytest.raises(ValueError, match="finite nonnegative"):
            _pool_rows(rule, P, np.array([[1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(DegenerateError):
            _pool_rows(rule, P, np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            _pool_rows(RuleSpec.logarithmic(), np.array([[p, q], [[1.0, 0.0, 0.0], q]]),
                       np.ones((2, 2)))
        # a zero weight drops its forecast: the row pools to the other one
        X, total, res, same = _pool_rows(rule, P, np.array([[1.0, 1.0], [0.7, 0.0]]))
        assert same.tolist() == [False, True]
        assert np.array_equal(X[1], q) and total[1] == 0.7 and res[1] == 0.0


@st.composite
def weighted_inputs(draw, n, m):
    ps = []
    ws = []
    for _ in range(m):
        raw = draw(
            st.lists(
                st.floats(min_value=1e-2, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        p = np.asarray(raw)
        ps.append(p / p.sum())
        ws.append(draw(st.floats(min_value=0.05, max_value=3.0, allow_nan=False)))
    return [(p, w) for p, w in zip(ps, ws)]


class TestPoolingProperties:
    @settings(max_examples=100, deadline=None)
    @given(inputs=weighted_inputs(3, 3))
    def test_identity_holds_under_hypothesis(self, inputs):
        rule = RuleSpec.spherical(2.0)
        res = qa_pool(rule, inputs)
        assert identity_residual(rule, res, inputs) <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(inputs=weighted_inputs(3, 2))
    def test_pool_between_extremes(self, inputs):
        # every pooled coordinate stays within the inputs' coordinate range
        # for the quadratic rule (linear pooling)
        res = qa_pool(RuleSpec.quadratic(), inputs)
        stacked = np.stack([np.asarray(p) for p, _ in inputs])
        assert np.all(res.pooled.probs <= stacked.max(axis=0) + 1e-12)
        assert np.all(res.pooled.probs >= stacked.min(axis=0) - 1e-12)
