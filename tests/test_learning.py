"""Weight learning: gradients, projections, concavity, regret guarantees."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
import warnings
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from qapool import (
    ConfigError,
    LearningConfig,
    RuleSpec,
    WeightVector,
    loss_gradient,
    offline_best_weights,
    ogd_run,
    project_to_simplex,
    qa_pool,
    score,
    weight_score,
)
from qapool import learning, optim, pooling
from qapool.errors import SolverError
from qapool.files import StreamFile, load_stream_file
from qapool.learning import _KERNEL_MAX, _float_steps, _losses, _normalize_stream, _step
from qapool.optim import newton_simplex
from qapool.pooling import _invert_rows, _mix
from qapool.rules import Forecast, _exposures, _score_matrix, parse_rule
from qapool.simplex import project_simplex, uniform_point

from conftest import SMALL_RULES, random_probs
from oracles import (
    brute_weight_grid,
    float_solve_damped,
    full_gram,
    hindsight_loss_and_gap,
    reference_ogd,
    reference_step,
    weighted_arithmetic_mean,
    weighted_geometric_mean,
)

QUAD = RuleSpec.quadratic()


def make_iid_stream(T, seed=7, truth=(0.2, 0.8)):
    """Expert 1 reports the truth every step; expert 2 is noise."""
    rng = np.random.default_rng(seed)
    truth = np.asarray(truth)
    stream = []
    for _ in range(T):
        p2 = rng.dirichlet([1.0, 1.0])
        j = 1 + int(rng.uniform() < truth[1])
        stream.append(([truth, p2], j))
    return stream


def make_stream_file(T=40, m=4, n=3, seed=5):
    """A seeded StreamFile and the same stream as (Forecasts, outcome) pairs."""
    rng = np.random.default_rng(seed)
    # small Dirichlet concentration: many coordinates fall below a 0.05 clamp;
    # rows off the simplex by up to 5e-10, so renormalizing moves bits
    raw = rng.dirichlet(np.full(n, 0.3), size=(T, m))
    raw *= 1.0 + rng.uniform(-5e-10, 5e-10, size=(T, m, 1))
    J = rng.integers(1, n + 1, size=T)
    pairs = [([Forecast(p) for p in fs], int(j)) for fs, j in zip(raw, J)]
    return StreamFile(raw, J), pairs


def make_adversarial_stream(T, m=5, n=3, seed=11, M=2.0):
    """Outcomes picked adaptively against the learner's own pool."""
    from qapool.simplex import project_simplex, uniform_point

    rng = np.random.default_rng(seed)
    w = uniform_point(m)
    stream = []
    for t in range(T):
        fs = [rng.dirichlet(np.ones(n) * 0.5) for _ in range(m)]
        pool = sum(wi * f for wi, f in zip(w, fs))
        j = 1 + int(np.argmin(2.0 * pool - pool @ pool))
        stream.append(([f.copy() for f in fs], j))
        grad = loss_gradient(QUAD, fs, w, j)
        w = project_simplex(w - grad / (M * np.sqrt(m * (t + 1))))
    return stream


class TestWeightScore:
    def test_degenerate_weight_selects_expert(self):
        fs = [[0.1, 0.9], [0.5, 0.5]]
        got = weight_score(QUAD, fs, [1.0, 0.0], 1)
        assert got == pytest.approx(-0.62)
        assert got == pytest.approx(score(QUAD, [0.1, 0.9], 1))

    def test_unit_weight_on_each_expert(self, rng):
        fs = [random_probs(rng, 3, None) for _ in range(3)]
        for i in range(3):
            w = np.zeros(3)
            w[i] = 1.0
            assert weight_score(QUAD, fs, w, 2) == pytest.approx(
                score(QUAD, fs[i], 2), abs=1e-12
            )

    @pytest.mark.parametrize(
        "rule",
        [QUAD, RuleSpec.logarithmic(), RuleSpec.spherical(2.0), RuleSpec.tsallis(1.5)],
        ids=lambda r: r.label,
    )
    def test_concave_in_weights(self, rule, rng):
        for _ in range(100):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            fs = [random_probs(rng, n, rule) for _ in range(m)]
            v = rng.dirichlet(np.ones(m))
            w = rng.dirichlet(np.ones(m))
            c = rng.uniform()
            j = int(rng.integers(1, n + 1))
            gap = (
                weight_score(rule, fs, c * v + (1 - c) * w, j)
                - c * weight_score(rule, fs, v, j)
                - (1 - c) * weight_score(rule, fs, w, j)
            )
            assert gap >= -1e-9

    def test_randomization_never_helps(self, rng):
        # score at the mean weight vector dominates the mean score
        rule = RuleSpec.spherical(2.0)
        for _ in range(50):
            n, m = 3, 3
            fs = [random_probs(rng, n, rule) for _ in range(m)]
            j = int(rng.integers(1, n + 1))
            support = [rng.dirichlet(np.ones(m)) for _ in range(4)]
            probs = rng.dirichlet(np.ones(4))
            mean_w = sum(pi * wi for pi, wi in zip(probs, support))
            mean_score = sum(
                pi * weight_score(rule, fs, wi, j)
                for pi, wi in zip(probs, support)
            )
            assert weight_score(rule, fs, mean_w, j) >= mean_score - 1e-9


class TestConcavityCounterexamples:
    """Fixed pooling methods lose concavity under the wrong rule."""

    def test_log_pooling_under_quadratic_score(self):
        fs = [np.array([0.1, 0.9]), np.array([0.5, 0.5])]
        v, w, c, j = np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5, 1

        def ws(weights):
            kept = [(f, x) for f, x in zip(fs, weights) if x > 0.0]
            pooled = weighted_geometric_mean([f for f, _ in kept],
                                             np.array([x for _, x in kept]))
            return score(QUAD, pooled, j)

        gap = ws(c * v + (1 - c) * w) - c * ws(v) - (1 - c) * ws(w)
        assert gap <= -1e-4

    def test_linear_pooling_under_spherical_score(self):
        rule = RuleSpec.spherical(2.0)
        fs = [np.array([0.0, 1.0]), np.array([0.2, 0.8])]
        v, w, c, j = np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5, 1

        def ws(weights):
            pooled = weighted_arithmetic_mean(fs, weights)
            return score(rule, pooled, j)

        gap = ws(c * v + (1 - c) * w) - c * ws(v) - (1 - c) * ws(w)
        assert gap <= -1e-4


class TestLossGradient:
    def test_opposed_certain_experts(self):
        got = loss_gradient(QUAD, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1)
        assert np.allclose(got, [-1.0, 1.0], atol=1e-12)

    def test_identical_forecasts_zero_gradient(self, rng):
        p = random_probs(rng, 3, None)
        got = loss_gradient(QUAD, [p, p, p], [0.2, 0.3, 0.5], 2)
        assert np.allclose(got, 0.0, atol=1e-12)

    def test_sums_to_zero(self, rng):
        fs = [random_probs(rng, 3, None) for _ in range(4)]
        g = loss_gradient(QUAD, fs, rng.dirichlet(np.ones(4)), 1)
        assert g.sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "rule",
        [QUAD, RuleSpec.logarithmic(), RuleSpec.spherical(2.0), RuleSpec.tsallis(1.5)],
        ids=lambda r: r.label,
    )
    def test_matches_finite_differences(self, rule, rng):
        h = 1e-6
        for _ in range(25):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            fs = [random_probs(rng, n, rule) for _ in range(m)]
            w = rng.dirichlet(np.ones(m) * 3.0)
            w = 0.9 * w + 0.1 / m  # interior, so w +- h stays feasible
            j = int(rng.integers(1, n + 1))
            got = loss_gradient(rule, fs, w, j)
            fd = np.empty(m)
            for i in range(m):
                v = -np.ones(m) / m
                v[i] += 1.0
                up = -weight_score(rule, fs, w + h * v, j)
                dn = -weight_score(rule, fs, w - h * v, j)
                fd[i] = (up - dn) / (2.0 * h)
            scale = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(got - fd) / scale < 1e-5


class TestProjectToSimplex:
    def test_symmetric_and_fixed_points(self):
        assert np.allclose(project_to_simplex([0.6, 0.6]).weights, [0.5, 0.5])
        w = [0.1, 0.2, 0.7]
        assert np.allclose(project_to_simplex(w).weights, w, atol=1e-15)


def test_weight_sum_error_prints_a_plain_float():
    with pytest.raises(ValueError) as info:
        WeightVector([0.5, 0.6])
    assert str(info.value) == "weights sum to 1.1, not 1 within 1e-9"


class TestOgdRun:
    def test_single_expert_zero_regret(self):
        stream = make_iid_stream(50)
        stream = [([fs[0]], j) for fs, j in stream]
        rep = ogd_run(LearningConfig(rule=QUAD, m=1), stream)
        assert np.allclose(rep.final_weights.weights, [1.0])
        assert rep.cumulative_regret == pytest.approx(0.0, abs=1e-9)

    def test_truthful_expert_wins_weight(self):
        rep = ogd_run(LearningConfig(rule=QUAD, m=2, seed=7), make_iid_stream(10_000))
        assert rep.final_weights.weights[0] >= 0.9
        assert rep.cumulative_regret <= rep.bound

    def test_adversarial_stream_respects_bound(self):
        stream = make_adversarial_stream(2000)
        rep = ogd_run(LearningConfig(rule=QUAD, m=5), stream)
        assert rep.cumulative_regret <= rep.bound
        assert rep.exposure_bound == pytest.approx(2.0)
        assert not rep.exposure_bound_exceeded

    def test_undersized_bound_is_flagged_not_fatal(self):
        stream = make_iid_stream(50)
        rep = ogd_run(LearningConfig(rule=QUAD, m=2, M=0.05), stream)
        assert rep.exposure_bound_exceeded
        assert rep.observed_exposure_sup > 0.05
        assert rep.per_step_loss.size == 50

    def test_open_rule_requires_bound_and_clamp(self):
        stream = make_iid_stream(20)
        with pytest.raises(ConfigError):
            ogd_run(LearningConfig(rule=RuleSpec.logarithmic(), m=2), stream)
        rep = ogd_run(
            LearningConfig(
                rule=RuleSpec.logarithmic(), m=2, M=10.0, forecast_floor=1e-3
            ),
            stream,
        )
        assert rep.per_step_loss.size == 20

    def test_horizon_cannot_exceed_stream(self):
        with pytest.raises(ConfigError):
            ogd_run(LearningConfig(rule=QUAD, m=2, T=100), make_iid_stream(10))

    def test_regret_curve_ends_at_cumulative_regret(self):
        rep = ogd_run(LearningConfig(rule=QUAD, m=2), make_iid_stream(200))
        curve = rep.regret_curve()
        assert curve.size == 200
        assert curve[-1] == pytest.approx(rep.cumulative_regret, abs=1e-9)

    def test_bound_curve_ends_at_bound(self):
        rep = ogd_run(LearningConfig(rule=QUAD, m=2), make_iid_stream(200))
        bounds = rep.bound_curve()
        assert bounds.size == 200
        assert bounds[-1] == rep.bound  # bit for bit
        assert bounds[0] == 3.0 * np.sqrt(2) * rep.exposure_bound
        assert np.all(np.diff(bounds) > 0.0)


def total_losses(rule, stream, grid):
    """The stream's total loss under each weight vector of the grid."""
    P, J = _normalize_stream(stream)
    E = _exposures(rule, P)
    return [float(_losses(rule, _invert_rows(rule, _mix(E, g)), J - 1).sum()) for g in grid]


class TestOfflineBestWeights:
    def test_perfect_expert_takes_all(self):
        # expert 1 always right, expert 2 always wrong
        stream = []
        for k in range(40):
            j = 1 + (k % 2)
            right = np.array([0.95, 0.05]) if j == 1 else np.array([0.05, 0.95])
            wrong = right[::-1].copy()
            stream.append(([right, wrong], j))
        w, loss = offline_best_weights(QUAD, stream)
        grid = brute_weight_grid(2, 1e-3)
        grid_losses = total_losses(QUAD, stream, grid)
        k = int(np.argmin(grid_losses))
        assert np.allclose(w.weights, grid[k], atol=2e-3)
        assert w.weights[0] >= 0.99
        assert loss <= grid_losses[k] + 1e-9

    def test_identical_experts_cost_matches_single(self):
        stream = make_iid_stream(30)
        stream = [([fs[0], fs[0]], j) for fs, j in stream]
        _, loss = offline_best_weights(QUAD, stream)
        single = sum(-score(QUAD, fs[0], j) for fs, j in stream)
        assert loss == pytest.approx(single, abs=1e-9)

    def test_small_instance_matches_grid(self, rng):
        stream = []
        for _ in range(5):
            fs = [random_probs(rng, 3, None) for _ in range(2)]
            stream.append((fs, int(rng.integers(1, 4))))
        w, loss = offline_best_weights(QUAD, stream)
        grid = brute_weight_grid(2, 1e-4)
        vals = np.array(total_losses(QUAD, stream, grid))
        assert loss <= vals.min() + 1e-8
        assert np.allclose(w.weights, grid[int(np.argmin(vals))], atol=1e-3)

    # T = 10 takes the scalar shift kernel, T = 40 the numpy one
    @pytest.mark.parametrize("T", [10, 40])
    @pytest.mark.parametrize(
        "rule", [QUAD, RuleSpec.spherical(2.0), RuleSpec.tsallis(1.5)], ids=str
    )
    def test_matches_ogd_run_bit_for_bit(self, rule, T):
        sf, _ = make_stream_file(T=T)
        w, loss = offline_best_weights(rule, sf)
        report = ogd_run(LearningConfig(rule=rule, m=sf.m), sf)
        assert np.array_equal(w.weights, report.best_weights.weights)
        assert loss == report.best_fixed_loss


class TestPoolConsistency:
    def test_weight_score_uses_qa_pool(self, rng):
        rule = RuleSpec.tsallis(1.5)
        fs = [random_probs(rng, 3, rule) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        pooled = qa_pool(rule, list(zip(fs, w))).pooled
        for j in (1, 2, 3):
            assert weight_score(rule, fs, w, j) == pytest.approx(
                score(rule, pooled, j), abs=1e-10
            )


class TestStreamTransport:
    @pytest.mark.parametrize("n", [3, 50])
    @pytest.mark.parametrize("floor", [0.05, 1e-3])
    def test_bulk_clamp_is_the_per_forecast_clamp(self, n, floor):
        sf, pairs = make_stream_file(n=n)
        P, J = _normalize_stream(sf, floor)
        for t, (fs, _) in enumerate(pairs):
            for i, f in enumerate(fs):
                # the clamp as it ran on one Forecast at a time
                p = np.maximum(f.probs, floor)
                assert np.array_equal(P[t, i], Forecast(p / reduce(add, p.tolist())).probs)
        assert np.array_equal(J, sf.outcomes)
        P2, J2 = _normalize_stream(pairs, floor)
        assert np.array_equal(P2, P) and np.array_equal(J2, J)

    def test_pairs_keep_forecast_bits_and_renormalize_raw_rows_once(self):
        sf, pairs = make_stream_file(n=50)
        raw = np.asarray(sf.forecasts) * (1.0 + 4e-10)  # off the simplex, within 1e-9
        # every other entry a Forecast, the rest raw rows
        mixed = [([f if i % 2 else list(raw[t, i]) for i, f in enumerate(fs)], j)
                 for t, (fs, j) in enumerate(pairs)]
        P, J = _normalize_stream(mixed)
        for t, (fs, _) in enumerate(pairs):
            for i, f in enumerate(fs):
                want = f.probs if i % 2 else Forecast(raw[t, i]).probs
                assert P[t, i].tobytes() == want.tobytes()
        assert np.array_equal(J, sf.outcomes)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[0.5, np.nan], [0.5, 0.5]], "step 2: forecast probabilities must be finite"),
            ([[0.5, 0.6], [0.5, 0.5]], "step 2: probabilities sum to 1.1"),
            ([[0.5, 0.5]], "step 2: expert/outcome counts changed"),
            ([[0.5, 0.5], [0.2, 0.3, 0.5]], "step 2: forecasts must be a list"),
        ],
        ids=["nan", "sum", "experts", "ragged"],
    )
    def test_pair_errors_name_the_step(self, bad, message):
        stream = [([[0.5, 0.5], [0.1, 0.9]], 1)] * 2 + [(bad, 1)]
        with pytest.raises(ValueError, match=re.escape(message)):
            _normalize_stream(stream)

    @pytest.mark.parametrize("j", [0, 3, 1.0, 2.5, None, True])
    def test_pair_outcomes_are_checked_as_in_a_stream_file(self, j):
        with pytest.raises(ValueError, match="step 1: outcome"):
            _normalize_stream([([[0.5, 0.5], [0.1, 0.9]], 1), ([[0.5, 0.5], [0.1, 0.9]], j)])
        # ogd_run refuses it as the first outcome too (a bool once read as 1)
        with pytest.raises(ValueError, match="step 0: outcome"):
            ogd_run(LearningConfig(QUAD, 2), [([[0.5, 0.5], [0.1, 0.9]], j)] * 2)

    def test_overflowing_floor_is_rejected(self):
        sf, _ = make_stream_file()
        config = LearningConfig(
            rule=RuleSpec.logarithmic(), m=sf.m, M=10.0, forecast_floor=1e308
        )
        with pytest.raises(ValueError, match="forecast_floor"):
            ogd_run(config, sf)

    @pytest.mark.parametrize(
        "rule, M, floor",
        [(QUAD, None, None), (RuleSpec.logarithmic(), 6.0, 0.05),
         (RuleSpec.spherical(2.0), None, None), (RuleSpec.hs(), 30.0, 0.05)],
        ids=["quadratic", "log", "spherical", "hs"],
    )
    def test_stream_file_and_pairs_give_identical_reports(self, rule, M, floor):
        sf, pairs = make_stream_file()
        config = LearningConfig(rule=rule, m=sf.m, M=M, forecast_floor=floor)
        want = ogd_run(config, sf)
        # the file's rows as Forecast views, which keep their bits
        views = [
            ([Forecast._trusted(p) for p in fs], j) for fs, j in zip(sf.forecasts, sf.outcomes)
        ]
        for stream in (pairs, views):
            got = ogd_run(config, stream)
            for f in dataclasses.fields(want):
                a, b = getattr(want, f.name), getattr(got, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name

    def test_hindsight_solve_inverts_each_point_once(self, monkeypatch):
        asked, inverted = [], []
        solve, mix = learning.newton_simplex, learning._mix
        T = 10

        def ask(f):
            def asked_at(w):
                asked.append(w.tobytes())
                return f(w)
            return asked_at

        def count_asked(value_grad, hess, x0):
            w, f, gap = solve(ask(value_grad), ask(hess), x0)
            asked.append(w.tobytes())  # the comparator losses are taken at the answer
            return w, f, gap

        def count_inverted(E, w):
            # every inversion of the whole stream mixes all T steps' exposures
            if E.shape[0] == T:
                inverted.append(w.tobytes())
            return mix(E, w)

        monkeypatch.setattr(learning, "newton_simplex", count_asked)
        monkeypatch.setattr(learning, "_mix", count_inverted)
        sf, _ = make_stream_file(T=T)
        ogd_run(LearningConfig(rule=RuleSpec.spherical(2.0), m=sf.m), sf)
        # the loss and gradient, the Hessian and the comparator losses share
        # their points
        assert len(asked) > len(inverted)
        assert sorted(inverted) == sorted(set(asked))


class TestHindsightNewton:
    """The hindsight comparator's projected-Newton solve: certified by the
    Frank-Wolfe gap of the per-step mean loss, in few stream inversions,
    or a SolverError that names the gap."""

    def test_benchmark_streams_certify_in_few_inversions(self, tmp_path, monkeypatch):
        # the 40 learn_rootfind streams of seeds 1 and 23: four 10-step
        # streams of m = 5, n = 3 under each of five root-find families
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
        from perfbench.inputs import make_learn_rootfind

        mix, counts = learning._mix, []

        def count_inverted(E, w):
            counts[-1] += E.shape[0] == 10  # an inversion of the whole stream
            return mix(E, w)

        monkeypatch.setattr(learning, "_mix", count_inverted)
        for seed in (1, 23):
            (tmp_path / str(seed)).mkdir()
            for op in make_learn_rootfind(tmp_path / str(seed), seed, 0):
                _, family, path, *options = op.argv
                options = dict(zip(options[::2], map(float, options[1::2])))
                sf = load_stream_file(path)
                config = LearningConfig(
                    rule=parse_rule(family), m=sf.m, M=options.get("--M"),
                    forecast_floor=options.get("--floor"),
                )
                counts.append(0)
                assert ogd_run(config, sf).hindsight_gap <= 1e-12, op.key
        assert len(counts) == 40
        assert max(counts) <= 8

    def test_a_solve_that_cannot_certify_names_its_gap(self):
        # a flat f whose gradient claims descent: no trial point meets
        # Armijo's condition, so the gap stays at its start, 1/3
        def value_grad(x):
            return 0.0, np.array([1.0, 0.0, 0.0])

        with pytest.raises(SolverError, match=r"Frank-Wolfe gap 3\.333e-01, above 1e-12$"):
            newton_simplex(value_grad, lambda x: np.eye(3), uniform_point(3))

    def test_learn_raises_when_its_solve_cannot_certify(self, monkeypatch):
        # one Newton step from the barycenter does not certify this stream
        monkeypatch.setattr(optim, "NEWTON_MAX_ITER", 1)
        sf, _ = make_stream_file(T=10)
        with pytest.raises(SolverError, match=r"stalled at Frank-Wolfe gap [0-9.e+-]+, above"):
            ogd_run(LearningConfig(rule=RuleSpec.spherical(2.0), m=sf.m), sf)

    @pytest.mark.parametrize("c", [[0.5, 0.3, 0.2, 0.0], [2.0, -1.0, 0.3, 0.1], [0.0, 0.0, 5.0, 5.0]])
    def test_quadratic_objective_gives_the_projection(self, c):
        # f = |x - c|^2 / 2 is minimized over the simplex by c's projection
        c = np.array(c)
        x, f, gap = newton_simplex(
            lambda x: (0.5 * float((x - c) @ (x - c)), x - c), lambda x: np.eye(4), uniform_point(4)
        )
        assert gap <= 1e-12
        assert np.abs(x - project_simplex(c)).max() <= 1e-12

    def test_singular_hessian_of_identical_experts(self):
        # f = (a . x - b)^2 / 2 with two equal entries of a: the Hessian
        # a a^T is singular, and damping still finds a certified minimizer
        a, b = np.array([1.0, 1.0, 3.0, -2.0]), 2.5
        x, f, gap = newton_simplex(
            lambda x: (0.5 * (a @ x - b) ** 2, (a @ x - b) * a), lambda x: np.outer(a, a),
            uniform_point(4),
        )
        assert gap <= 1e-12 and f <= 1e-24

    @staticmethod
    def exp_value_grad(x, t=np.array([4.0, -1.0, 2.5, 0.0])):
        # f = sum exp(3 x_i) - <t, x>: convex, minimized in several Newton steps
        e = np.exp(3.0 * x)
        return float(e.sum() - t @ x), 3.0 * e - t

    # the exp problem, and a flat f whose gradient claims descent, on which
    # every arc fails
    PROBLEMS = {
        "exp": (exp_value_grad, lambda x: np.diag(9.0 * np.exp(3.0 * x))),
        "flat": (lambda x: (0.0, np.array([1.0, 0.0, 0.0, 0.0])), lambda x: np.eye(4)),
    }

    @pytest.mark.parametrize("problem, cap", [("exp", None), ("exp", 2), ("flat", None)],
                             ids=["converges", "runs-out", "stalls"])
    def test_hessian_is_asked_only_at_the_last_evaluated_point(self, problem, cap, monkeypatch):
        # the hindsight solve keeps no pools of its own: its Hessian reads the
        # pools of value_grad's last point, and its losses are that point's
        value_grad, hess = self.PROBLEMS[problem]
        if cap is not None:
            monkeypatch.setattr(optim, "NEWTON_MAX_ITER", cap)
        asked = []  # (which, x, what value_grad returned)

        def counted_value_grad(x):
            got = value_grad(x)
            asked.append(("value_grad", x.tobytes(), got))
            return got

        def counted_hess(x):
            asked.append(("hess", x.tobytes(), None))
            return hess(x)

        try:
            x, f, _ = newton_simplex(counted_value_grad, counted_hess, uniform_point(4))
        except SolverError:
            x = None
        assert (x is None) == (problem != "exp" or cap is not None)
        hessians = [i for i, (which, _, _) in enumerate(asked) if which == "hess"]
        assert len(hessians) >= (3 if problem == "exp" and cap is None else 1)
        for i in hessians:
            last = [a for a in asked[:i] if a[0] == "value_grad"][-1]
            assert asked[i][1] == last[1]
        assert asked[-1][0] == "value_grad"  # no Hessian after the last evaluation
        if x is not None:
            assert x.tobytes() == asked[-1][1] and f == asked[-1][2][0]


    @pytest.mark.parametrize("size", [1, 2, 5, optim._OUTER_ROWS, optim._OUTER_ROWS + 1,
                                      optim._OUTER_ROWS + 2, 30, 49])
    def test_elimination_is_the_float_loop_bit_for_bit(self, size):
        # rank-one updates on numpy for a large trailing block, the float
        # loop for a small one: either way the float loop's bits, on a
        # well-conditioned, a singular (rank 2) and a zero matrix
        rng = np.random.default_rng(size)
        X, Y = rng.normal(size=(size, size)), rng.normal(size=(size, 2))
        b = rng.normal(size=size)
        for A in (X @ X.T + np.eye(size), Y @ Y.T, np.zeros((size, size))):
            A = (A + A.T) / 2.0
            expected = float_solve_damped(A.tolist(), b.tolist(), optim._DAMPING)
            assert optim._solve_damped(A.copy(), b.copy()) == expected


class TestHindsightSums:
    """The hindsight solve sums only the upper triangle of its Hessian, and
    ogd_run's comparator losses are the ones the solve kept."""

    @staticmethod
    def stream(T: int) -> StreamFile:
        rng = np.random.default_rng(T)
        F = np.maximum(rng.dirichlet(np.ones(3), size=(T, 5)), 0.05)
        return StreamFile(F / F.sum(axis=-1, keepdims=True), rng.integers(1, 4, size=T))

    @pytest.mark.parametrize("T", [10, 2000])
    @pytest.mark.parametrize("spec", ["quadratic", "neglog"])
    def test_triangle_is_the_full_square_fold(self, T, spec, monkeypatch):
        grams, gram = [], learning._gram
        monkeypatch.setattr(learning, "_gram", lambda B: grams.append((B, gram(B))) or grams[-1][1])
        offline_best_weights(parse_rule(spec), self.stream(T))
        assert grams
        cols = learning._HESS_BLOCK // 25  # two blocks at T = 2000
        for B, H in grams:
            assert B.shape == (5, 3 * T)
            assert H.tobytes() == np.ascontiguousarray(H.T).tobytes()  # exactly symmetric
            assert H.tobytes() == full_gram(B, cols).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 5, 7])
    def test_gram_is_the_full_square_fold_at_every_width(self, m):
        # narrow blocks gather the triangle's pairs, wide ones form expert
        # a's products against rows a..; a wide B's last block may be narrow
        cols = learning._HESS_BLOCK // (m * m)
        assert cols >= learning._GRAM_ROWS
        rng = np.random.default_rng(m)
        for width in (30, cols, 2 * cols - 1, 3 * cols + 17):
            B = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-3, 3, (m, 1))
            B[:, ::5] = -0.0
            H = learning._gram(B)
            assert H.tobytes() == full_gram(B, cols).tobytes(), width

    @pytest.mark.parametrize("spec, floor", [("quadratic", None), ("log", 0.05)])
    def test_a_hessian_is_built_once_per_tangent(self, spec, floor, monkeypatch):
        # quadratic's tangent is the same at every point, so its solve builds
        # one Hessian and reuses it, read-only; log's moves at each Newton
        # step, so it builds one a step
        grams, arcs, gram, arc = [], [], learning._gram, optim._newton_arc
        monkeypatch.setattr(learning, "_gram", lambda B: grams.append(gram(B)) or grams[-1])
        monkeypatch.setattr(optim, "_newton_arc", lambda x, g, H: arcs.append(H) or arc(x, g, H))
        # learn_bulk's kind of stream: expert 1 tells the truth, the others
        # are Dirichlet(1) noise, so the best weights lie on a face
        rng = np.random.default_rng(20)
        truth = rng.dirichlet(np.full(3, 5.0))
        F = np.concatenate([np.broadcast_to(truth, (20_000, 1, 3)),
                            rng.dirichlet(np.ones(3), size=(20_000, 4))], axis=1)
        rule = parse_rule(spec)
        P, J = _normalize_stream(StreamFile(F, 1 + rng.choice(3, size=20_000, p=truth)), floor)
        _, _, gap = learning._solve_offline(rule, _exposures(rule, P), J - 1)
        assert gap <= optim.GAP_TOL and len(arcs) >= 2
        if spec == "quadratic":
            assert len(grams) == 1 and all(H is arcs[0] for H in arcs)
            assert not arcs[0].flags.writeable
        else:
            assert len(grams) == len(arcs) and len({id(H) for H in arcs}) == len(arcs)

    @pytest.mark.parametrize("spec", ["quadratic", "neglog"])
    def test_comparator_losses_are_those_of_the_best_weights(self, spec):
        rule, sf = parse_rule(spec), self.stream(10)
        report = ogd_run(LearningConfig(rule=rule, m=5, M=100.0, forecast_floor=0.01), sf)
        P, J = _normalize_stream(sf, floor=0.01)
        X = _invert_rows(rule, _mix(_exposures(rule, P), report.best_weights.weights))
        assert report.comparator_loss.tobytes() == _losses(rule, X, J - 1).tobytes()


class TestOutcomeRange:
    # the outcome must name one of the n forecast coordinates; j = 0 would
    # otherwise index the last outcome and j = n + 1 fail inside numpy
    @pytest.mark.parametrize("j", [0, 3])
    @pytest.mark.parametrize("fn", [weight_score, loss_gradient])
    def test_out_of_range_outcome_rejected(self, fn, j):
        with pytest.raises(IndexError, match=rf"outcome {j} out of range 1\.\.2"):
            fn(QUAD, [[0.5, 0.5], [0.1, 0.9]], [0.5, 0.5], j)

    # neither truncated (2.7 as 2) nor read as 1 (True, 1.0)
    @pytest.mark.parametrize("j", [True, 1.0, 2.7], ids=repr)
    @pytest.mark.parametrize("fn", [weight_score, loss_gradient])
    def test_non_integer_outcome_rejected(self, fn, j):
        with pytest.raises(ValueError, match=rf"outcome must be an integer, got {j!r}"):
            fn(QUAD, [[0.5, 0.5], [0.1, 0.9]], [0.5, 0.5], j)


class TestBitForBitReference:
    """ogd_run, weight_score and loss_gradient against the per-step loop
    and numpy projection of oracles.reference_ogd, bit for bit: the
    float projection, the trimmed one-row path and the float loop keep
    every operation.  The hindsight weights are checked against the
    oracle's SPG answer by certificate, not by bits.  The sizes sit on both
    sides of the float loop's cut, m and n <= _KERNEL_MAX, and reach m = 96;
    with the cut forced up, the float loop is the numpy loop at m, n up to
    50."""

    # (rule, M, forecast floor): open-domain rules need both M and a floor
    CONFIGS = [
        (QUAD, None, None), (QUAD, None, 0.01), (RuleSpec.logarithmic(), 10.0, 0.01),
        (RuleSpec.neglog(), 10.0, 0.01), (RuleSpec.power(0.5), 10.0, 0.01),
        (RuleSpec.spherical(2.0), None, None), (RuleSpec.spherical(2.0), None, 0.01),
        (RuleSpec.tsallis(1.5), None, None), (RuleSpec.tsallis(1.5), None, 0.01),
        (RuleSpec.hs(), 10.0, 0.01),
    ]

    @pytest.mark.parametrize("m", [1, 5, _KERNEL_MAX, _KERNEL_MAX + 1, 48, 49, 96])
    @pytest.mark.parametrize("n", [2, 3, _KERNEL_MAX, _KERNEL_MAX + 1, 50])
    @pytest.mark.parametrize(
        "rule, M, floor", CONFIGS, ids=[f"{r.label}-floor={f}" for r, _, f in CONFIGS]
    )
    def test_ogd_run_matches_reference_loop(self, rule, M, floor, n, m):
        rng = np.random.default_rng([n, m])
        sf = StreamFile(rng.dirichlet(np.ones(n), size=(6, m)), rng.integers(1, n + 1, size=6))
        rep = ogd_run(LearningConfig(rule=rule, m=m, M=M, forecast_floor=floor), sf)
        P, J = _normalize_stream(sf, floor)
        X, G, Wt, losses, final, best = reference_ogd(rule, P, J, rep.exposure_bound)
        assert rep.per_step_loss.tobytes() == losses.tobytes()
        # both reports renormalize their weights as WeightVector does
        assert rep.final_weights.weights.tobytes() == WeightVector(final).weights.tobytes()
        E = _exposures(rule, P)
        # no faster solver can give SPG's bits: the hindsight weights are
        # certified by their Frank-Wolfe gap, and are the SPG oracle's
        # within its tolerance (ROADMAP item 2, "Pins")
        w = rep.best_weights.weights
        loss, gap = hindsight_loss_and_gap(rule, E, J - 1, w)
        spg_loss, _ = hindsight_loss_and_gap(rule, E, J - 1, best)
        assert gap <= 1e-12
        assert rep.best_fixed_loss <= spg_loss + 1e-12 * max(1.0, abs(spg_loss))
        assert np.abs(w - WeightVector(best).weights).max() <= 1e-6
        for t in (0, J.size - 1):
            # both functions renormalize the weights they are given
            w, j = WeightVector(Wt[t]).weights, int(J[t])
            x, g = reference_step(rule, E[t], j - 1, w)
            fs = [Forecast._trusted(p) for p in P[t]]
            assert weight_score(rule, fs, Wt[t], j) == _score_matrix(rule, x[None])[0, j - 1]
            assert loss_gradient(rule, fs, Wt[t], j).tobytes() == g.tobytes()

    @pytest.mark.parametrize("m", [8, 20, 50])
    @pytest.mark.parametrize("n", [8, 20, 50])
    @pytest.mark.parametrize(
        "rule, M, floor", CONFIGS, ids=[f"{r.label}-floor={f}" for r, _, f in CONFIGS]
    )
    def test_float_loop_above_its_cut_is_the_numpy_loop(self, rule, M, floor, n, m,
                                                         monkeypatch):
        rng = np.random.default_rng([n, m, 8])
        sf = StreamFile(rng.dirichlet(np.ones(n), size=(6, m)), rng.integers(1, n + 1, size=6))
        config = LearningConfig(rule=rule, m=m, M=M, forecast_floor=floor)
        runs, kernel_loop = [], learning._float_steps
        monkeypatch.setattr(learning, "_float_steps", lambda *a: runs.append(a) or kernel_loop(*a))
        reports = []
        for cut in (50, 0):  # the float loop, then the numpy loop of _step
            monkeypatch.setattr(learning, "_KERNEL_MAX", cut)
            reports.append(ogd_run(config, sf))
        assert len(runs) == 1
        P, J = _normalize_stream(sf, floor)
        _, _, _, losses, final, _ = reference_ogd(rule, P, J, reports[0].exposure_bound, spg=False)
        for rep in reports:
            assert rep.per_step_loss.tobytes() == losses.tobytes()
            assert rep.final_weights.weights.tobytes() == WeightVector(final).weights.tobytes()

    def check_long_stream(self, rule, M, floor, m, n, T, seed):
        rng = np.random.default_rng(seed)
        sf = StreamFile(rng.dirichlet(np.ones(n), size=(T, m)), rng.integers(1, n + 1, size=T))
        rep = ogd_run(LearningConfig(rule=rule, m=m, M=M, forecast_floor=floor), sf)
        P, J = _normalize_stream(sf, floor)
        X, _, Wt, losses, final, _ = reference_ogd(rule, P, J, rep.exposure_bound)
        assert rep.per_step_loss.tobytes() == losses.tobytes()
        assert rep.final_weights.weights.tobytes() == WeightVector(final).weights.tobytes()
        return Wt, _exposures(rule, P)

    def test_long_quadratic_stream(self):
        # the float loop's largest m, over many steps
        self.check_long_stream(QUAD, None, None, _KERNEL_MAX, 3, 500, 16)

    def test_log_stream_whose_projection_zeroes_a_weight(self):
        # a small M takes long steps, which push weights onto the boundary
        Wt, _ = self.check_long_stream(RuleSpec.logarithmic(), 0.5, 0.01, 5, 3, 200, 17)
        assert np.count_nonzero(Wt[1:] == 0.0)

    @pytest.mark.parametrize(
        "rule, M, floor",
        [(RuleSpec.neglog(), 10.0, 0.01), (RuleSpec.hs(), 10.0, 0.01),
         (RuleSpec.tsallis(1.5), None, None)],
        ids=["neglog", "hs", "tsallis:1.5"],
    )
    def test_long_shift_family_stream(self, rule, M, floor, monkeypatch):
        # the float loop inverts every step's one row on floats, the hs rows
        # whose solve starts at z_j = 0 among them: _step is never called
        def no_step(*args):
            raise AssertionError("the float loop called _step")

        monkeypatch.setattr(learning, "_step", no_step)
        Wt, E = self.check_long_stream(rule, M, floor, 5, 3, 500, 18)
        if rule.family == "hs":
            # the shift solve starts at z_j = 0 on some rows, which the
            # float kernel redoes on numpy scalars, and elsewhere on others
            _, _, _, lo, _ = rule._impl.shift(_mix(E, Wt), rule.param)
            assert (lo == 0.0).any() and (lo > 0.0).any()

    # one step of two experts' exposures, _ROOT_MAX_ITER, whether the float
    # inverse refuses the row, and what the numpy step prints.  Refused:
    # exposure averages outside the quadratic rule's range and, for
    # tsallis:3, the average of two vertices, where no shift is admissible;
    # an hs row past the guard of _hs_shift; offsets that overflow; shifts
    # left unconverged.  Taken on floats: an hs row whose solve starts at
    # z_j = 0, which the shift kernel redoes on numpy scalars.
    STEPS = {
        "quadratic": (QUAD, [[-3.0, 1.5, 1.5], [1.0, -0.5, -0.5]], None, True,
                      "outside the quadratic rule's range"),
        "tsallis:3": (RuleSpec.tsallis(3.0), _exposures(RuleSpec.tsallis(3.0), np.eye(3)[:2]),
                      None, True, "not attainable for rule tsallis:3"),
        "hs-starts-at-zero": (RuleSpec.hs(), _exposures(RuleSpec.hs(), np.array(
            [[0.05, 0.05, 0.9], [0.9, 0.05, 0.05]])), None, False, None),
        "hs-past-the-guard": (RuleSpec.hs(), [[-2e100, 1e100, 1e100]] * 2, None, True, None),
        "power:-1-overflowing-offsets": (RuleSpec.power(-1.0), [[1.5e308, -1.5e308, 0.0]] * 2,
                                         None, True, "overflow encountered in subtract"),
        **{f"max-iter-{cap}": (RuleSpec.neglog(), _exposures(RuleSpec.neglog(), np.array(
            [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])), cap, True, f"converge in {cap} iterations")
           for cap in (0, 1)},
    }

    @staticmethod
    def printed(run):
        """The error run raises (its type and message) or the bits of the
        pool it returns, and the messages of the warnings it issues."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = run().tobytes()
            except Exception as error:
                result = f"{type(error).__name__}: {error}"
        return result, [str(w.message) for w in caught]

    @pytest.mark.parametrize("rule, E, cap, refused, message", STEPS.values(), ids=STEPS)
    def test_float_loop_raises_the_numpy_steps_error(self, rule, E, cap, refused, message,
                                                     monkeypatch):
        # the float loop prints what the numpy step prints, and no warning
        # of its own; a refused row is the one call of its fallback
        if cap is not None:
            monkeypatch.setattr(pooling, "_ROOT_MAX_ITER", cap)
        E, w = np.array([E], dtype=float), np.array([0.5, 0.5])
        fallbacks = []
        kernel = learning._kernel(2, 3, pooling._float_inverse(rule, 3)[0])
        monkeypatch.setitem(kernel.__globals__, "_invert_rows",
                            lambda *a: fallbacks.append(a) or _invert_rows(*a))
        numpy_step = self.printed(lambda: _step(rule, E[0], 0, w)[0])
        float_loop = self.printed(
            lambda: _float_steps(rule, E, np.array([0]), np.array([1e-3]), w.tolist())[0][0]
        )
        assert float_loop == numpy_step
        assert len(fallbacks) == refused
        assert message is None or message in str(numpy_step)

    @pytest.mark.parametrize("n", range(2, _KERNEL_MAX + 1))
    def test_quadratic_target_out_of_range_reaches_the_fallback(self, n, monkeypatch):
        # the inlined closed form refuses the row, and _invert_rows raises
        # the numpy step's error
        E, w = np.full((1, 1, n), 3.0 / (n - 1)), np.array([1.0])
        E[0, 0, 0] = -3.0
        fallbacks = []
        kernel = learning._kernel(1, n, pooling._float_inverse(QUAD, n)[0])
        monkeypatch.setitem(kernel.__globals__, "_invert_rows",
                            lambda *a: fallbacks.append(a) or _invert_rows(*a))
        numpy_step = self.printed(lambda: _step(QUAD, E[0], 0, w)[0])
        float_loop = self.printed(
            lambda: _float_steps(QUAD, E, np.array([0]), np.array([1e-3]), w.tolist())[0][0]
        )
        assert float_loop == numpy_step and len(fallbacks) == 1
        assert "outside the quadratic rule's range" in str(numpy_step)


def step_loop(src: str) -> list[ast.stmt]:
    """The statements of a generated kernel's step loop."""
    loop, = [node for node in ast.walk(ast.parse(src)) if isinstance(node, ast.For)]
    return loop.body


def step_calls(statements: list[ast.stmt]) -> list[str]:
    """The functions that statements call, by name.  The .tolist() that
    turns a call's array into floats is part of that call, and the calls
    that build _invert_rows' argument are part of that fallback."""
    names = []

    def visit(node):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "tolist":
                inner = func.value.value if isinstance(func.value, ast.Subscript) else func.value
                if isinstance(inner, ast.Call):
                    return visit(inner)
            names.append(ast.unparse(func))
            if names[-1] == "_invert_rows":
                return
        for child in ast.iter_child_nodes(node):
            visit(child)

    for statement in statements:
        visit(statement)
    return names


class TestKernel:
    """The float loop's generated kernel (learning._kernel) at every shape it
    is built for, m in 1.._KERNEL_MAX and n in 2.._KERNEL_MAX, and with the
    cut forced up at m, n in {8, 20, 50}, against oracles.reference_ogd bit
    for bit: each of its sums must add from the first term, as the oracle's
    left folds add.  Every family inverts each step of an in-range stream
    on floats, never by _invert_rows."""

    # (rule, M, forecast floor): a closed-form family on each side of the
    # domain, and a shift family
    FAMILIES = [(QUAD, None, None), (RuleSpec.logarithmic(), 10.0, 0.05),
                (RuleSpec.neglog(), 10.0, 0.05)]
    # the other shift families, at the corner shapes
    SHIFT_FAMILIES = [
        (rule, 10.0, 0.05) if rule.domain_kind == "open" else (rule, None, None)
        for rule in SMALL_RULES if rule.family != "neglog"
    ]

    @pytest.mark.parametrize("m", range(1, _KERNEL_MAX + 1))
    @pytest.mark.parametrize("n", range(2, _KERNEL_MAX + 1))
    @pytest.mark.parametrize("rule, M, floor", FAMILIES, ids=[r.label for r, _, _ in FAMILIES])
    def test_every_shape_matches_the_reference(self, rule, M, floor, n, m, monkeypatch):
        self.check(rule, M, floor, n, m, monkeypatch)

    @pytest.mark.parametrize("m", [1, 5, _KERNEL_MAX])
    @pytest.mark.parametrize("n", [2, 3, _KERNEL_MAX])
    @pytest.mark.parametrize(
        "rule, M, floor", SHIFT_FAMILIES, ids=[r.label for r, _, _ in SHIFT_FAMILIES]
    )
    def test_shift_families_match_the_reference(self, rule, M, floor, n, m, monkeypatch):
        self.check(rule, M, floor, n, m, monkeypatch)

    @pytest.mark.parametrize("m", [8, 20, 50])
    @pytest.mark.parametrize("n", [8, 20, 50])
    @pytest.mark.parametrize(
        "rule, M, floor", FAMILIES + SHIFT_FAMILIES,
        ids=[r.label for r, _, _ in FAMILIES + SHIFT_FAMILIES],
    )
    def test_shapes_above_the_cut_match_the_reference(self, rule, M, floor, n, m, monkeypatch):
        monkeypatch.setattr(learning, "_KERNEL_MAX", 50)
        self.check(rule, M, floor, n, m, monkeypatch)

    def check(self, rule, M, floor, n, m, monkeypatch):
        def no_step(*args):
            raise AssertionError("ogd_run called _step at m, n <= _KERNEL_MAX")

        runs, kernel_loop, fallbacks = [], learning._float_steps, []
        monkeypatch.setattr(learning, "_step", no_step)
        monkeypatch.setattr(learning, "_float_steps", lambda *a: runs.append(kernel_loop(*a)) or runs[-1])
        # the kernel's own fallback, not the hindsight solve's inversion
        kernel = learning._kernel(m, n, pooling._float_inverse(rule, n)[0])
        monkeypatch.setitem(kernel.__globals__, "_invert_rows",
                            lambda *a: fallbacks.append(a) or _invert_rows(*a))
        rng = np.random.default_rng([m, n, 40])
        # a small Dirichlet concentration puts quadratic pools on the boundary
        sf = StreamFile(rng.dirichlet(np.full(n, 0.5), size=(40, m)), rng.integers(1, n + 1, size=40))
        rep = ogd_run(LearningConfig(rule=rule, m=m, M=M, forecast_floor=floor), sf)
        P, J = _normalize_stream(sf, floor)
        X, _, _, losses, final, _ = reference_ogd(rule, P, J, rep.exposure_bound, spg=False)
        (pools, weights), = runs
        assert pools.tobytes() == X.tobytes()
        assert np.array(weights).tobytes() == final.tobytes()
        assert rep.per_step_loss.tobytes() == losses.tobytes()
        assert fallbacks == []

    @pytest.mark.parametrize("m, n", [(1, 2), (5, 3), (_KERNEL_MAX, _KERNEL_MAX)])
    @pytest.mark.parametrize(
        "rule", [QUAD, RuleSpec.logarithmic(), RuleSpec.neglog()], ids=["quadratic", "log", "neglog"]
    )
    def test_a_closed_form_step_calls_no_helper(self, rule, m, n, monkeypatch):
        # quadratic and log run the step inline: builtins, log's np.exp and
        # the two fallbacks, each only in a branch; a shift family's step
        # calls its float inverse
        sources, compiled = [], learning._compiled
        monkeypatch.setattr(learning, "_compiled",
                            lambda src, *a: sources.append(src) or compiled(src, *a))
        learning._kernel.__wrapped__(m, n, pooling._float_inverse(rule, n)[0])
        body = step_loop(sources[0])
        fallbacks = {"_invert_rows", "_project_floats"}
        assert set(step_calls(body)) == fallbacks | {"sorted"} | {
            "quadratic": {"min"}, "log": {"max", "exp"}, "neglog": {"inverse"}
        }[rule.family]
        assert not fallbacks & set(step_calls([s for s in body if not isinstance(s, ast.If)]))

    def test_no_kernel_is_built_at_import(self):
        # the CLI's import and parser build no kernel, so setup time measures
        # the same work as before the loop was generated; a run builds its
        # own.  A root-find family's float inverse is one function with no
        # per-family state: one hs run at m = 2, n = 3 builds the loop's
        # kernel and the one shift kernel (n = 3, log) that its steps and its
        # hindsight solve share, and nothing else
        kernels = (
            "print(learning._kernel.cache_info().currsize, "
            "pooling._shift_kernel.cache_info().currsize)\n"
        )
        code = (
            "import qapool.cli, qapool.learning as learning, qapool.pooling as pooling\n"
            "from qapool import LearningConfig, RuleSpec, ogd_run\n"
            "qapool.cli.build_parser()\n"
            + kernels
            + "ogd_run(LearningConfig(rule=RuleSpec.quadratic(), m=2), [([[.5, .5], [.2, .8]], 1)])\n"
            + kernels
            + "config = LearningConfig(rule=RuleSpec.hs(), m=2, M=10.0, forecast_floor=0.05)\n"
            "ogd_run(config, [([[.2, .3, .5], [.6, .3, .1]], 1), ([[.1, .1, .8], [.3, .3, .4]], 3)])\n"
            + kernels
        )
        env = {**os.environ, "PYTHONPATH": str(Path(learning.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["0 0", "1 0", "2 1"]
