"""Pooling: defining identity, classical correspondences, inversion paths."""

import math
import os
import subprocess
import sys
import warnings
from functools import reduce
from operator import add
from pathlib import Path
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
    _SCALAR_COLS,
    _SCALAR_ROWS,
    _UNATTAINABLE,
    BREGMAN_MIN,
    CLOSED_FORM,
    ROOT_FIND,
    _certified_inverse,
    _float_shift_inverse,
    _inverse_rows,
    _invert_rows,
    _mix,
    _pool_rows,
    _solve_shift,
)
from qapool.rules import OPEN_MIN, _gradient

from conftest import (
    CONVEX_RULES, RULE_IDS, SMALL_IDS, SMALL_RULES, random_instance, random_probs,
)
from oracles import (
    grid_argmin,
    spg_inverse,
    spg_tilted_minimizer,
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
        assert not fail.any() and X[1].min() < OPEN_MIN
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
        from oracles import kkt_residual
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


def clamped_draw(seed: int, alpha: float, clamp: float, n: int = 50, m: int = 20):
    """m equally weighted Dirichlet(alpha) forecasts on n outcomes from
    default_rng(seed), each raised to at least ``clamp`` and renormalized."""
    P = np.random.default_rng(seed).dirichlet(np.full(n, alpha), size=m)
    P = np.maximum(P, clamp)
    P /= P.sum(axis=1, keepdims=True)
    return [(p, 1.0) for p in P]


def mixed_target(rule, inputs):
    """The weighted average of the inputs' canonical exposures."""
    w = np.array([wt for _, wt in inputs], dtype=float)
    w = w / w.sum()
    return sum(wi * exposure(rule, p).coords for wi, (p, _) in zip(w, inputs))


def scaled_gap(rule, inputs, x, floor):
    """The Frank-Wolfe gap at the pool x of the generalized pool's
    objective (G(x) - <t, x>) / max(1, max|t|), in the coordinates y of
    the unit simplex with x = floor + (1 - n floor) y."""
    t = mixed_target(rule, inputs)
    slack = 1.0 - x.size * floor
    grad = slack * (_gradient(rule, x) - t) / max(1.0, float(np.abs(t).max()))
    return float(np.dot(grad, (x - floor) / slack) - grad.min())


class TestGeneralizedNewton:
    """The generalized pool by projected Newton: certified at Frank-Wolfe
    gap 1e-12 on the scaled objective where SPG raised or crawled, and
    equal to the SPG oracle wherever that certifies."""

    # n = 50, m = 20: SPG stalled on neglog (KKT 5.0e-4) and on power:-1,
    # and took seconds on hs
    @pytest.mark.parametrize("rule", [RuleSpec.neglog(), RuleSpec.power(-1.0), RuleSpec.hs()],
                             ids=lambda r: r.label)
    def test_seed0_wide_draw_certifies(self, rule):
        inputs = clamped_draw(0, 1.0, 1e-4)
        x = generalized_pool(rule, inputs, floor=1e-4).pooled.probs
        assert x.min() >= 1e-4 * (1.0 - 1e-12)
        assert scaled_gap(rule, inputs, x, 1e-4) <= 1e-12

    # SPG stalled on 8 of these 20 neglog draws; without the Newton-scaled
    # active band, one hs draw stalls at gap 1.7e-6
    @pytest.mark.parametrize("rule", [RuleSpec.neglog(), RuleSpec.hs()], ids=lambda r: r.label)
    def test_sparse_draws_certify(self, rule):
        for seed in range(20):
            inputs = clamped_draw(seed, 0.3, 1e-3)
            x = generalized_pool(rule, inputs, floor=1e-4).pooled.probs
            assert scaled_gap(rule, inputs, x, 1e-4) <= 1e-12, seed

    # a Newton step can land on the floor, from where hs climbs back by a
    # factor 2.5 per step; solved from the barycenter at the floor alone,
    # 9 of these 30 hs pools stall at floor 1e-20 and 16 at 1e-60
    @pytest.mark.parametrize("rule", [RuleSpec.hs(), RuleSpec.power(0.5), RuleSpec.logarithmic()],
                             ids=lambda r: r.label)
    @pytest.mark.parametrize("floor", [1e-20, 1e-60])
    def test_tiny_floor_certifies(self, rule, floor):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, m = int(rng.choice([3, 5, 10])), int(rng.integers(2, 5))
            P = np.maximum(rng.dirichlet(np.ones(n), size=m), 1e-3)
            inputs = list(zip(P / P.sum(axis=1, keepdims=True), rng.uniform(0.2, 2.0, m)))
            x = generalized_pool(rule, inputs, floor=floor).pooled.probs
            assert scaled_gap(rule, inputs, x, floor) <= 1e-12

    @pytest.mark.parametrize("rule", CONVEX_RULES + [RuleSpec.tsallis(3.0)],
                             ids=RULE_IDS + ["tsallis:3"])
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_agrees_with_spg_where_spg_certifies(self, rule, n, rng):
        floor = 1e-9 if rule.domain_kind == "open" else 0.0
        cases = [random_instance(rng, rule, n, int(rng.integers(2, 4))) for _ in range(3)]
        # two vertices: under tsallis:3 the minimizer sits on their face
        vertices = np.eye(n)[:2]
        if rule.domain_kind == "closed":
            cases.append([(vertices[0], 0.5), (vertices[1], float(rng.uniform(0.2, 1.0)))])
        certified = 0
        for inputs in cases:
            reference, _, converged = spg_tilted_minimizer(rule, mixed_target(rule, inputs), floor)
            if not converged:
                continue
            certified += 1
            x = generalized_pool(rule, inputs, floor=floor).pooled.probs
            assert np.abs(x - reference).max() <= 1e-7
        # SPG's absolute KKT tolerance, 1e-8, is out of reach of power:-1's
        # exposures at n = 10 (up to 1e6): there it certifies no case
        assert certified == len(cases) or (rule.label, n) == ("power:-1", 10)


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


def numpy_shift(a, p, lo, hi):
    """The numpy kernel of _solve_shift, at any problem size."""
    with mock.patch.object(pooling, "_SCALAR_ROWS", -1):
        return _solve_shift(a, p, lo, hi)


def float_shift(a, p, lo, hi):
    """The float path of _solve_shift, at any problem size."""
    k, n = a.shape
    with mock.patch.multiple(pooling, _SCALAR_ROWS=max(k, _SCALAR_ROWS),
                             _SCALAR_COLS=max(n, _SCALAR_COLS)):
        return _solve_shift(a, p, lo, hi)


def float_shapes(monkeypatch):
    """The (rows, n) of each problem _solve_shift passes to its float path,
    in order, from now on."""
    shapes, floats = [], pooling._solve_shift_floats
    monkeypatch.setattr(pooling, "_solve_shift_floats",
                        lambda a, *args: shapes.append((len(a), len(a[0]))) or floats(a, *args))
    return shapes


def assert_same_shift(rule, T):
    """The float path solves the shift problem of T's rows to the numpy
    kernel's bits; returns the problem's bracket and the shifts."""
    a, p, _, lo, hi = rule._impl.shift(T, rule.param)
    c = float_shift(a, p, lo, hi)
    assert np.array_equal(c, numpy_shift(a, p, lo, hi), equal_nan=True)
    return np.broadcast_to(lo, c.shape), np.broadcast_to(hi, c.shape), c


@st.composite
def shift_targets(draw):
    """A rule and a (k, n) array of canonical targets of the float path's
    size, from forecasts whose coordinates span nine decades."""
    rule = draw(st.sampled_from(SMALL_RULES))
    n = draw(st.integers(2, _SCALAR_COLS))
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
        # rows 0 and 1 of kernel_targets sit near the simplex boundary; each
        # n is a kernel of its own (_shift_kernel)
        for n in range(2, _SCALAR_COLS + 1):
            for k in (1, 2, 10, _SCALAR_ROWS):
                for smallest in (1e-3, 1e-6, 1e-12):
                    assert_same_shift(rule, kernel_targets(rng, rule, n, max(k, 2), smallest)[:k])

    @pytest.mark.parametrize("n", [_SCALAR_COLS + 1, 50])
    @pytest.mark.parametrize("rule", SMALL_RULES, ids=SMALL_IDS)
    def test_float_path_above_the_cut_matches_numpy_kernel(self, rule, n, rng, monkeypatch):
        # the float kernel gives the numpy kernel's bits at any row length:
        # with the cut forced up, _solve_shift takes it at n = 8 and 50
        monkeypatch.setattr(pooling, "_SCALAR_COLS", 50)
        shapes = float_shapes(monkeypatch)
        for k in (1, 2, _SCALAR_ROWS):
            for smallest in (1e-3, 1e-6, 1e-12):
                T = kernel_targets(rng, rule, n, max(k, 2), smallest)[:k]
                a, p, _, lo, hi = rule._impl.shift(T, rule.param)
                assert np.array_equal(_solve_shift(a, p, lo, hi), numpy_shift(a, p, lo, hi),
                                      equal_nan=True)
        assert shapes == [(k, n) for k in (1, 2, _SCALAR_ROWS) for _ in range(3)]

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
        shapes = float_shapes(monkeypatch)
        rule = RuleSpec.neglog()
        sizes = [(_SCALAR_COLS, _SCALAR_ROWS), (2, 1), (_SCALAR_COLS + 1, 1), (3, _SCALAR_ROWS + 1)]
        for n, k in sizes:
            a, p, _, lo, hi = rule._impl.shift(kernel_targets(rng, rule, n, max(k, 2))[:k], None)
            _solve_shift(a, p, lo, hi)
        assert shapes == [(_SCALAR_ROWS, _SCALAR_COLS), (1, 2)]

    def test_no_shift_kernel_is_built_at_import(self):
        # the CLI's import and parser build no kernel, so setup time measures
        # the same work as before the solve was generated; a pool builds its own
        code = (
            "import qapool.cli, qapool.pooling as pooling\n"
            "from qapool import RuleSpec, qa_pool\n"
            "qapool.cli.build_parser()\n"
            "print(pooling._shift_kernel.cache_info().currsize)\n"
            "qa_pool(RuleSpec.neglog(), [([.2, .3, .5], 1.0), ([.5, .25, .25], 2.0)])\n"
            "print(pooling._shift_kernel.cache_info().currsize)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pooling.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "1"]


class TestFloatShift:
    """The float twin of each shift family's setup (rules._Family.float_shift)
    and the one-row float inverse of the online learner
    (pooling._float_shift_inverse), against the numpy setup and inversion
    of the same row, bit for bit."""

    TWIN_RULES = SMALL_RULES + [RuleSpec.tsallis(3.0), RuleSpec.spherical(3.0)]

    @staticmethod
    def rows(rng, rule, n):
        """Canonical targets: forecasts near the boundary, far targets at
        scales 1e-3 to 1e12, rows on either side of hs's guard, and for a
        closed-domain rule the averages of two vertices' exposures."""
        T = [kernel_targets(rng, rule, n, 6, smallest) for smallest in (1e-3, 1e-12)]
        T.append(rng.normal(size=(8, n)) * 10.0 ** rng.uniform(-3.0, 12.0, size=(8, 1)))
        # max a = n (max t - min t) of hs at 0.5 and at n times the guard
        guard = OPEN_MIN ** (-1.0 / n)
        T.append(np.outer([0.5 * guard / n, guard], np.eye(n)[0]))
        if rule.domain_kind == "closed":
            V = _gradient(rule, np.eye(n))
            T.append(0.5 * (V[:, None] + V[None]).reshape(-1, n))
        T = np.vstack(T)
        return T - T.mean(axis=1, keepdims=True)

    @pytest.mark.parametrize("rule", TWIN_RULES, ids=[r.label for r in TWIN_RULES])
    def test_float_setup_is_the_numpy_setup(self, rule, rng):
        # the same offsets, exponents and bracket, and None exactly where the
        # numpy setup marks the row unattainable, or the row is past hs's guard
        def bits(v):
            return np.asarray(v, dtype=float).reshape(-1).tobytes()

        refused = kept = 0
        for n in range(2, _SCALAR_COLS + 1):
            for t in self.rows(rng, rule, n):
                a, p, q, lo, hi = rule._impl.shift(t[None], rule.param)
                twin = rule._impl.float_shift(t.tolist(), rule.param)
                past_guard = rule.family == "hs" and a.max() > OPEN_MIN ** (-1.0 / n)
                if np.isnan(hi).any() or past_guard:
                    assert twin is None
                    refused += 1
                else:
                    assert [bits(v) for v in twin] == [bits(v) for v in (a, p, q, lo, hi)]
                    kept += 1
        assert kept and (refused or rule.family in ("neglog", "power"))

    @pytest.mark.parametrize("rule", SMALL_RULES, ids=SMALL_IDS)
    def test_float_inverse_is_the_numpy_inverse(self, rule, rng):
        for n in range(2, _SCALAR_COLS + 1):
            for t in kernel_targets(rng, rule, n, _SCALAR_ROWS):
                x = _float_shift_inverse(rule._impl.float_shift, t.tolist(), rule.param)
                X, fail = _inverse_rows(rule, t[None])
                total = reduce(add, x)  # in order, as the learner's kernel sums
                assert not fail.any() and np.array([v / total for v in x]).tobytes() == X.tobytes()

    def test_refused_rows(self, monkeypatch):
        tsallis = RuleSpec.tsallis(3.0)
        neglog = _gradient(RuleSpec.neglog(), np.array([0.2, 0.3, 0.5]))
        refused = [
            # no admissible shift: the average of two vertices' exposures
            (tsallis, 0.5 * (_gradient(tsallis, np.eye(3)[:2]).sum(axis=0))),
            (RuleSpec.hs(), [2e100, -1e100, -1e100]),  # past the guard
            (RuleSpec.power(-1.0), [1.5e308, -1.5e308, 0.0]),  # offsets overflow
            (RuleSpec.neglog(), [np.nan, 0.0, 0.0]),
        ]
        for rule, t in refused:
            t = np.asarray(t, dtype=float)
            assert _float_shift_inverse(rule._impl.float_shift, (t - t.mean()).tolist(),
                                        rule.param) is None
        # a shift that ends at 0 leaves z_j = 0 under q = -1
        zero = ([0.0, 1.0], 2.0, -1.0, 0.0, 0.0)
        assert _float_shift_inverse(lambda t, c: zero, [0.0, 0.0], None) is None
        for cap in (0, 1):  # unconverged
            monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", cap)
            t = neglog - neglog.mean()
            assert _float_shift_inverse(RuleSpec.neglog()._impl.float_shift, t.tolist(), None) is None


class TestClosedFormTemplate:
    """The closed-form families' float inverse, the source template
    (rules._Family.float_inverse) that the learner's kernel inlines,
    compiled for every n the kernel is built for, against _inverse_rows bit
    for bit: the same forecast once normalized as the kernel normalizes it,
    and NaN exactly where _inverse_rows fails the row, a row the kernel
    hands _invert_rows."""

    RULES = [RuleSpec.quadratic(), RuleSpec.logarithmic()]

    @staticmethod
    def compiled(rule, n):
        source, inverse = pooling._float_inverse(rule, n)
        assert inverse is None  # it calls no function of its own
        t, x = (", ".join(f"{a}{j}" for j in range(n)) for a in "tx")
        src = "\n".join([f"def kernel({t}, c):", *(f"    {line}" for line in source.splitlines()),
                         f"    return [{x}]"])
        # the kernel's scope: log exponentiates in place in its n-value buffer
        scope = {"nan": math.nan, "exp": np.exp, "buf": np.empty(n)}
        return pooling._compiled(src, f"{rule.label} inverse n={n}", scope)

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("rule", RULES, ids=[r.label for r in RULES])
    def test_template_is_the_numpy_inverse(self, rule, n, rng):
        # forecasts near and, for quadratic, on the boundary; targets far
        # out, which quadratic refuses and log takes to exp's underflow;
        # and a NaN coordinate at each position
        smallest = (1e-3, 1e-12, 0.0) if rule.domain_kind == "closed" else (1e-3, 1e-12)
        T = [kernel_targets(rng, rule, n, 20, s) for s in smallest]
        T.append(rng.normal(size=(40, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(40, 1)))
        T.append(np.where(np.eye(n, dtype=bool), np.nan, 0.0))
        T = np.vstack(T)
        T -= T.mean(axis=1, keepdims=True)
        inverse = self.compiled(rule, n)
        X, fail = _inverse_rows(rule, T)
        refused = 0
        for t, want, failed in zip(T, X, fail):
            x = inverse(*t.tolist(), rule.param)
            total = reduce(add, x)  # in order, as the learner's kernel sums
            if 0.0 < total < math.inf:
                assert not failed and np.array([v / total for v in x]).tobytes() == want.tobytes()
            else:
                assert failed
                refused += 1
        # the NaN rows, and for quadratic some far target
        assert refused >= n + (rule.family == "quadratic")


class TestOrderedMix:
    """_mix adds each row's products in expert order whether its batch is
    summed by slices or by rows (simplex._ordered_dot), so a row mixed in a
    large batch has the bits it has alone, and those are the bits of the
    products added in expert order on Python floats."""

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 48, 96])
    @pytest.mark.parametrize("n", [2, 3, 8, 50])
    def test_batched_rows_match_single_rows(self, m, n):
        rng = np.random.default_rng([m, n])
        # under simplex's cut, 67 rows fold by slices at 17 of these 28 (m, n); one row never
        E = rng.standard_normal((67, m, n)) * 10.0 ** rng.integers(-4, 4, (1, m, n))
        w = rng.dirichlet(np.ones(m))
        W = rng.dirichlet(np.ones(m), size=E.shape[0])
        many, rows = _mix(E, w), np.vstack([_mix(E[i : i + 1], w) for i in range(E.shape[0])])
        assert many.tobytes() == rows.tobytes()
        many, rows = _mix(E, W), np.vstack([_mix(E[i : i + 1], W[i : i + 1]) for i in range(E.shape[0])])
        assert many.tobytes() == rows.tobytes()
        t = [reduce(add, [float(w[i]) * E[0, i, j] for i in range(m)]) for j in range(n)]
        assert _mix(E[:1], w)[0].tobytes() == (np.array(t) - reduce(add, t) / n).tobytes()


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
        assert not clean.any()  # every row inverted
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
