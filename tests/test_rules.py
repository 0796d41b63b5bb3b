"""Scoring-rule functionals: values, gradients, properness, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapool import (
    ConfigError,
    DomainError,
    ExposureVector,
    Forecast,
    RuleSpec,
    bregman,
    expected_reward,
    exposure,
    exposure_norm_bound,
    has_convex_exposure,
    parse_rule,
    score,
)

from qapool.pooling import _invert_rows
from qapool.rules import _exposures, _hessian, _tangent_inverse

from conftest import CONVEX_RULES, RULE_IDS, random_probs, sampling_floor
from oracles import fd_canonical_gradient, kl_divergence


class TestForecast:
    def test_renormalizes_within_tolerance(self):
        f = Forecast(np.array([0.5, 0.5 + 5e-10]))
        assert f.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Forecast(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Forecast(np.array([-0.1, 1.1]))

    def test_rejects_scalar_and_single(self):
        with pytest.raises(ValueError):
            Forecast(np.array([1.0]))

    def test_one_hot_and_uniform(self):
        assert np.array_equal(Forecast.one_hot(3, 2).probs, [0.0, 1.0, 0.0])
        assert np.allclose(Forecast.uniform(4).probs, 0.25)
        with pytest.raises(IndexError):
            Forecast.one_hot(3, 4)
        for j in (True, 1.0, 2.7):
            with pytest.raises(ValueError, match="outcome must be an integer"):
                Forecast.one_hot(3, j)

    def test_immutable(self):
        f = Forecast(np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            f.probs[0] = 0.5


class TestRuleSpec:
    def test_parse_strings(self):
        assert parse_rule("quadratic") == RuleSpec.quadratic()
        assert parse_rule("log") == RuleSpec.logarithmic()
        assert parse_rule("neglog") == RuleSpec.neglog()
        assert parse_rule("power:0.5") == RuleSpec.power(0.5)
        assert parse_rule("spherical:2") == RuleSpec.spherical(2.0)
        assert parse_rule("tsallis:1.5") == RuleSpec.tsallis(1.5)
        assert parse_rule("hs") == RuleSpec.hs()

    @pytest.mark.parametrize(
        "bad", ["brier", "power", "power:1", "power:0", "power:2",
                "spherical:1", "tsallis:1", "quadratic:2", "tsallis:abc",
                "tsallis:inf", "spherical:inf", "power:-inf"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_rule(bad)

    def test_domain_kinds(self):
        assert RuleSpec.quadratic().domain_kind == "closed"
        assert RuleSpec.spherical(2).domain_kind == "closed"
        assert RuleSpec.tsallis(3).domain_kind == "closed"
        assert RuleSpec.logarithmic().domain_kind == "open"
        assert RuleSpec.neglog().domain_kind == "open"
        assert RuleSpec.power(0.5).domain_kind == "open"
        assert RuleSpec.hs().domain_kind == "open"

    def test_label_round_trip(self):
        # parameters that a rounded label would print as 1, 0.3 and 1.23457e+06
        more = [RuleSpec.tsallis(1.0000001), RuleSpec.power(0.30000000000000004),
                RuleSpec.spherical(1234567.0)]
        for rule in CONVEX_RULES + more:
            assert parse_rule(rule.label) == rule


class TestExpectedReward:
    def test_quadratic_symmetric(self):
        assert expected_reward(RuleSpec.quadratic(), [0.5, 0.5]) == pytest.approx(0.5)

    def test_log_symmetric(self):
        assert expected_reward(RuleSpec.logarithmic(), [0.5, 0.5]) == pytest.approx(
            -math.log(2.0)
        )

    def test_hs_symmetric(self):
        assert expected_reward(RuleSpec.hs(), [0.5, 0.5]) == pytest.approx(-0.5)

    @pytest.mark.parametrize(
        "rule",
        [RuleSpec.logarithmic(), RuleSpec.neglog(), RuleSpec.power(0.5), RuleSpec.hs()],
    )
    def test_open_domain_rejects_boundary(self, rule):
        with pytest.raises(DomainError):
            expected_reward(rule, [1.0, 0.0])

    def test_overflowing_reward_is_a_domain_error(self):
        # sum p^-3 overflows at 1e-200: one error, no numpy warning, no inf
        with pytest.raises(DomainError, match="expected reward to be finite"):
            expected_reward(RuleSpec.power(-3.0), [1e-200, 0.5, 0.5])

    def test_closed_domain_accepts_boundary(self):
        assert expected_reward(RuleSpec.quadratic(), [1.0, 0.0]) == pytest.approx(1.0)
        assert expected_reward(RuleSpec.spherical(2), [1.0, 0.0]) == pytest.approx(1.0)


class TestExposure:
    def test_quadratic_example(self):
        e = exposure(RuleSpec.quadratic(), [0.7, 0.3])
        assert np.allclose(e.coords, [0.4, -0.4])

    def test_log_symmetric_point_is_zero(self):
        e = exposure(RuleSpec.logarithmic(), [0.5, 0.5])
        assert np.allclose(e.coords, 0.0)

    def test_spherical_vertex(self):
        e = exposure(RuleSpec.spherical(2), [1.0, 0.0])
        assert np.allclose(e.coords, [0.5, -0.5])

    def test_overflowing_exposure_is_a_domain_error(self):
        # -1/p^2 overflows at 1e-200, as in _exposures: one error, no
        # numpy warning, no NaN coordinates
        with pytest.raises(DomainError, match="exposure to be finite"):
            exposure(RuleSpec.power(-1.0), [1e-200, 0.5, 0.5])

    def test_canonicalization_sums_to_zero(self, rng):
        for rule in CONVEX_RULES:
            p = random_probs(rng, 4, rule)
            assert exposure(rule, p).coords.sum() == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariance(self):
        raw = np.array([1.3, -0.2, 0.7])
        shifted = ExposureVector(raw + 5.0)
        assert np.allclose(ExposureVector(raw).coords, shifted.coords, atol=1e-14)


class TestScore:
    def test_quadratic_report_07(self):
        rule = RuleSpec.quadratic()
        assert score(rule, [0.7, 0.3], 1) == pytest.approx(0.82)
        assert score(rule, [0.7, 0.3], 2) == pytest.approx(0.02)

    def test_log_is_log_of_outcome_prob(self):
        assert score(RuleSpec.logarithmic(), [0.25, 0.75], 2) == pytest.approx(
            math.log(0.75)
        )

    def test_outcome_index_bounds(self):
        with pytest.raises(IndexError):
            score(RuleSpec.quadratic(), [0.7, 0.3], 0)
        with pytest.raises(IndexError):
            score(RuleSpec.quadratic(), [0.7, 0.3], 3)
        # a bool or a float does not name an outcome, not even True or 1.0
        for j in (True, 1.0, 2.7):
            with pytest.raises(ValueError, match=rf"outcome must be an integer, got {j!r}"):
                score(RuleSpec.quadratic(), [0.7, 0.3], j)
        assert score(RuleSpec.quadratic(), [0.7, 0.3], np.int64(1)) == score(
            RuleSpec.quadratic(), [0.7, 0.3], 1
        )

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_expected_score_identity(self, rule, rng):
        # sum_j p_j s(p; j) = G(p)
        for n in (2, 3, 5):
            p = random_probs(rng, n, rule)
            total = sum(p[j - 1] * score(rule, p, j) for j in range(1, n + 1))
            assert total == pytest.approx(expected_reward(rule, p), abs=1e-10)

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_properness_gap_equals_bregman(self, rule, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = random_probs(rng, n, rule)
            x = random_probs(rng, n, rule)
            if np.linalg.norm(p - x) < 1e-6:
                continue
            gap = sum(
                p[j - 1] * (score(rule, p, j) - score(rule, x, j))
                for j in range(1, n + 1)
            )
            assert gap > 0.0
            assert gap == pytest.approx(bregman(rule, p, x), abs=1e-9)

    def test_affine_invariance_of_argmax(self, rng):
        # replacing s by a*s + b keeps the truthful report optimal
        rule = RuleSpec.quadratic()
        belief = np.array([0.37, 0.63])
        grid = np.linspace(0.01, 0.99, 99)
        a, b = 3.7, -1.2

        def expected_under(x, transform):
            vals = [score(rule, [x, 1 - x], j) for j in (1, 2)]
            if transform:
                vals = [a * v + b for v in vals]
            return belief[0] * vals[0] + belief[1] * vals[1]

        plain = max(grid, key=lambda x: expected_under(x, False))
        scaled = max(grid, key=lambda x: expected_under(x, True))
        assert plain == scaled
        assert plain == pytest.approx(0.37, abs=0.011)


class TestBregman:
    def test_zero_iff_equal(self, rng):
        for rule in CONVEX_RULES:
            p = random_probs(rng, 3, rule)
            assert bregman(rule, p, p) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_is_squared_distance(self):
        d = bregman(RuleSpec.quadratic(), [0.7, 0.3], [0.4, 0.6])
        assert d == pytest.approx(0.18)

    def test_log_is_kl(self):
        d = bregman(RuleSpec.logarithmic(), [0.5, 0.5], [0.25, 0.75])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert d == pytest.approx(expected, abs=1e-12)
        assert d == pytest.approx(
            kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75])), abs=1e-12
        )

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_nonnegative(self, rule, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            p = random_probs(rng, n, rule)
            q = random_probs(rng, n, rule)
            assert bregman(rule, p, q) >= 0.0


class TestGradientCheck:
    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_exposure_matches_finite_differences(self, rule, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                p = random_probs(rng, n, None)
                # keep clear of the boundary so h=1e-6 steps stay in domain
                p = 0.9 * p + 0.1 / n
                fd = fd_canonical_gradient(
                    lambda x: expected_reward(rule, x / x.sum()), p
                )
                got = exposure(rule, p).coords
                scale = max(1.0, np.linalg.norm(fd))
                assert np.linalg.norm(got - fd) / scale < 1e-5

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_scalar_exposure_increasing_n2(self, rule):
        # the two-outcome reading g(p) = g_1 - g_2 must strictly increase
        floor = max(sampling_floor(rule), 1e-4)
        grid = np.linspace(floor, 1.0 - floor, 1000)
        vals = [exposure(rule, [x, 1.0 - x]).coords[0] * 2.0 for x in grid]
        assert np.all(np.diff(vals) > 0.0)


class TestConvexExposureClassification:
    def test_tsallis_above_two(self):
        assert has_convex_exposure(RuleSpec.tsallis(3.0), 2) is True
        assert has_convex_exposure(RuleSpec.tsallis(3.0), 3) is False
        assert has_convex_exposure(RuleSpec.tsallis(2.0), 7) is True

    def test_spherical_always(self):
        assert has_convex_exposure(RuleSpec.spherical(2.0), 5) is True

    @pytest.mark.parametrize("rule", CONVEX_RULES, ids=RULE_IDS)
    def test_roster_is_convex_everywhere(self, rule):
        for n in (2, 3, 4, 7):
            assert has_convex_exposure(rule, n) is True


class TestExposureNormBound:
    def test_quadratic(self):
        assert exposure_norm_bound(RuleSpec.quadratic(), 5) == 2.0

    def test_spherical_two_is_one(self):
        assert exposure_norm_bound(RuleSpec.spherical(2.0), 6) == pytest.approx(1.0)

    def test_open_rules_need_explicit_bound(self):
        with pytest.raises(ConfigError):
            exposure_norm_bound(RuleSpec.logarithmic(), 3)

    @pytest.mark.parametrize(
        "rule",
        [RuleSpec.quadratic(), RuleSpec.spherical(1.5), RuleSpec.spherical(3.0),
         RuleSpec.tsallis(1.2), RuleSpec.tsallis(1.5), RuleSpec.tsallis(2.0)],
        ids=lambda r: r.label,
    )
    def test_dominates_sampled_raw_gradients(self, rule, rng):
        from qapool.rules import _gradient

        for n in (2, 3, 4):
            bound = exposure_norm_bound(rule, n)
            seen = 0.0
            for _ in range(200):
                p = random_probs(rng, n, None)
                seen = max(seen, float(np.linalg.norm(_gradient(rule, p))))
            # vertices and barycenter are the analytic argmax candidates
            for cand in [Forecast.one_hot(n, 1).probs, Forecast.uniform(n).probs]:
                seen = max(seen, float(np.linalg.norm(_gradient(rule, cand))))
            assert seen <= bound + 1e-12
            assert seen >= 0.5 * bound  # the bound is not wildly loose


@st.composite
def simplex_points(draw, n):
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    p = np.asarray(raw)
    return p / p.sum()


class TestPropernessProperty:
    @settings(max_examples=200, deadline=None)
    @given(p=simplex_points(3), x=simplex_points(3))
    def test_truthful_report_never_worse(self, p, x):
        rule = RuleSpec.logarithmic()
        truthful = sum(p[j - 1] * score(rule, p, j) for j in (1, 2, 3))
        lying = sum(p[j - 1] * score(rule, x, j) for j in (1, 2, 3))
        assert truthful >= lying - 1e-12


# every family, plus tsallis:3 (no convex exposure) and spherical:3
HESS_RULES = CONVEX_RULES + [RuleSpec.tsallis(3.0)]


def hess_point(rule, n, where):
    """The barycenter, or a seeded interior point with one coordinate at
    1e-4, near the boundary."""
    if where == "barycenter":
        return np.full(n, 1.0 / n)
    p = np.random.default_rng([n, len(rule.label)]).dirichlet(np.ones(n))
    p[0] = 1e-4
    return p / p.sum()


def tangent_inverse_matrix(rule, p):
    """J = (I - pi 1^T) diag(d) (I - 1 pi^T) from rules._tangent_inverse."""
    d, pi = _tangent_inverse(rule, p[None])
    P = np.eye(p.size) - np.outer(pi[0], np.ones(p.size))
    return P @ np.diag(d[0]) @ P.T


class TestHessian:
    """G's Hessian (rules._hessian: the family record's diagonal, plus the
    rank-one term that H p = 0 fixes for the 1-homogeneous families) and
    the derivative J of the inverse exposure map built from it."""

    @pytest.mark.parametrize("where", ["barycenter", "boundary"])
    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    @pytest.mark.parametrize("rule", HESS_RULES, ids=lambda r: r.label)
    def test_hess_is_the_derivative_of_grad(self, rule, n, where):
        p = hess_point(rule, n, where)
        H = _hessian(rule, p)
        # central differences along each coordinate, steps relative to it;
        # each column within 1e-6 of its largest entry, or of the rounding
        # error of the differenced gradient
        steps = 1e-5 * p
        grad = rule._impl.grad
        D = np.diag(steps)
        fd = (grad(p + D, rule.param) - grad(p - D, rule.param)).T / (2.0 * steps)
        noise = 1e-15 * np.abs(grad(p, rule.param)).max() / steps
        assert np.all(np.abs(fd - H) <= 1e-6 * np.abs(H).max(axis=0) + noise)

    @pytest.mark.parametrize("where", ["barycenter", "boundary"])
    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    @pytest.mark.parametrize("rule", HESS_RULES, ids=lambda r: r.label)
    def test_tangent_inverse_is_the_derivative_of_the_inverse(self, rule, n, where):
        p = hess_point(rule, n, where)
        J = tangent_inverse_matrix(rule, p)
        assert np.allclose(J.sum(axis=0), 0.0, atol=1e-12 * np.abs(J).max())
        t = _exposures(rule, p[None])[0]
        # each canonical direction e_k - 1/n, with steps that move the pool
        # by a small fraction of its least coordinate: the best of three,
        # since truncation grows with the step and the rounding of large
        # exposures (power:-1 near the boundary) shrinks with it
        V = np.eye(n) - 1.0 / n
        errors = []
        for fraction in (1e-2, 1e-3, 1e-4):
            step = fraction * p.min() / np.abs(J).max()
            X = _invert_rows(rule, np.concatenate([t + step * V, t - step * V]))
            errors.append(np.abs((X[:n] - X[n:]).T / (2.0 * step) - J).max())
        assert min(errors) <= 1e-5 * np.abs(J).max()

    @pytest.mark.parametrize("rule", HESS_RULES, ids=lambda r: r.label)
    def test_tangent_inverse_matches_mpmath(self, rule):
        # J is the top-left block of the inverse of [[H, 1], [1^T, 0]]: it
        # solves H dx + mu 1 = dt with sum dx = 0, H by 40-digit differences
        # of G written out in mpmath
        import mpmath

        G = {
            "quadratic": lambda p, c: sum(x * x for x in p),
            "log": lambda p, c: sum(x * mpmath.log(x) for x in p),
            "neglog": lambda p, c: -sum(mpmath.log(x) for x in p),
            "power": lambda p, c: (-1 if 0 < c < 1 else 1) * sum(x**c for x in p),
            "spherical": lambda p, c: sum(x**c for x in p) ** (1 / c),
            "tsallis": lambda p, c: sum(x**c for x in p),
            "hs": lambda p, c: -mpmath.fprod(p) ** (mpmath.mpf(1) / len(p)),
        }[rule.family]
        c = None if rule.param is None else mpmath.mpf(rule.param)
        with mpmath.workdps(40):
            for p in (np.array([0.2, 0.3, 0.5]), np.array([1e-3, 0.25, 0.749])):
                q = [mpmath.mpf(float(x)) for x in p]
                K = mpmath.zeros(4, 4)
                for i in range(3):
                    for j in range(3):
                        order = [0, 0, 0]
                        order[i] += 1
                        order[j] += 1
                        K[i, j] = mpmath.diff(lambda *x: G(x, c), q, order)
                    K[i, 3] = K[3, i] = 1
                inverse = K**-1
                want = np.array([[float(inverse[i, j]) for j in range(3)] for i in range(3)])
                got = tangent_inverse_matrix(rule, p)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestSphericalScaling:
    """Spherical's G, gradient and h divide a row by its max p first where
    sum p^c is zero, subnormal or infinite (rules._spherical_sum): such a
    row gets the values of the homogeneous formulas, and every other row
    keeps the bits of the unscaled formulas."""

    @staticmethod
    def unscaled(p, c):
        s = np.sum(np.power(p, c), axis=-1, keepdims=True)  # two or three terms: in order
        return (s[..., 0] ** (1.0 / c), s ** (1.0 / c - 1.0) * np.power(p, c - 1.0),
                (c - 1.0) * s ** (1.0 / c - 1.0) * np.power(p, c - 2.0))

    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0, 50.0])
    def test_rows_with_a_normal_sum_keep_their_bits(self, c, rng):
        P = rng.dirichlet(np.ones(3), size=200)
        impl = RuleSpec.spherical(c)._impl
        for got, want in zip((impl.G(P, c), impl.grad(P, c), impl.hess(P, c)), self.unscaled(P, c)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", [1000.0, 2000.0, 1e6])
    def test_underflowing_rows_match_mpmath(self, c):
        import mpmath

        P = np.array([[0.4, 0.35, 0.25], [0.34, 0.33, 0.33], [0.45, 0.3, 0.25]])
        impl = RuleSpec.spherical(c)._impl
        assert not np.any(np.power(P, c).sum(axis=-1))  # sum p^c underflows in every row
        values = zip(impl.G(P, c)[:, None], impl.grad(P, c), impl.hess(P, c))
        with mpmath.workdps(50):
            for p, got in zip(P, values):
                q, C = [mpmath.mpf(float(x)) for x in p], mpmath.mpf(c)
                s = sum(x**C for x in q)
                exact = ([s ** (1 / C)], [s ** (1 / C - 1) * x ** (C - 1) for x in q],
                         [(C - 1) * s ** (1 / C - 1) * x ** (C - 2) for x in q])
                for value, want in zip(got, exact):
                    want = np.array([float(x) for x in want])
                    assert np.all(np.abs(value - want) <= 1e-12 * np.abs(want).max())

    def test_a_scaled_row_moves_no_other_row(self, rng):
        c = 1000.0
        P = rng.dirichlet(np.ones(3), size=50)
        P[::7] = [0.4, 0.35, 0.25]  # sum p^c underflows in these rows
        impl = RuleSpec.spherical(c)._impl
        for f in (impl.G, impl.grad, impl.hess):
            assert f(P, c).tobytes() == np.concatenate([f(p[None], c) for p in P]).tobytes()
        assert np.isfinite(_exposures(RuleSpec.spherical(c), P)).all()
