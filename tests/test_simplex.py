"""Euclidean simplex projection against an exhaustive face-enumeration oracle."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapool import project_to_simplex
from qapool.learning import _KERNEL_MAX
from qapool.pooling import _compiled
from qapool.simplex import (
    _project_floats, _projection_lines, _shell_points, project_simplex, random_simplex_point,
)

from oracles import numpy_project_simplex, project_simplex_faces, project_simplex_floor


class TestProjectSimplex:
    def test_symmetric_excess(self):
        assert np.allclose(project_to_simplex([0.6, 0.6]).weights, [0.5, 0.5])

    def test_identity_on_simplex(self):
        w = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(project_simplex(w), w)

    def test_mixed_sign_point_matches_face_oracle(self):
        y = np.array([1.2, -0.3, 0.1])
        got = project_simplex(y)
        want = project_simplex_faces(y)
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(got, [1.0, 0.0, 0.0])

    def test_idempotent(self, rng):
        for _ in range(50):
            y = rng.normal(size=5) * 3.0
            x = project_simplex(y)
            assert np.allclose(project_simplex(x), x, atol=1e-12)

    def test_order_preserving(self, rng):
        for _ in range(50):
            y = np.sort(rng.normal(size=6))
            x = project_simplex(y)
            assert np.all(np.diff(x) >= -1e-15)

    @pytest.mark.parametrize(
        "y", [[-3.3e299, 1.7e299, 1.7e299], [np.nan, 0.5, 0.5]], ids=["huge", "nan"]
    )
    def test_no_passing_support_size_raises(self, y):
        # 1 - u_1 rounds to -u_1, so no support size passes the threshold test
        with pytest.raises(ValueError, match="every support size"):
            project_simplex(np.array(y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("m", [3, 48, 50, 100, 1000])
    def test_non_finite_input_raises_without_warning(self, m, bad):
        # at every position, up to sizes no command projects
        for i in range(m):
            y = np.full(m, 1.0 / m)
            y[i] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="every support size"):
                    project_simplex(y)

    @pytest.mark.parametrize("kind", ["random", "tied", "signed_zero", "subnormal", "huge"])
    def test_matches_numpy_reference_bit_for_bit(self, kind, rng):
        # every size to 56, and sizes no command projects
        for m in [*range(1, 57), 100, 1000]:
            for _ in range(20):
                if kind == "random":
                    y = rng.normal(size=m) * rng.uniform(0.01, 10.0) + 1.0 / m
                elif kind == "tied":
                    y = rng.choice(rng.normal(size=2) / m, size=m)
                elif kind == "signed_zero":
                    y = rng.choice([0.0, -0.0, 1.0 / m, -1.0 / m, 1.0], size=m)
                elif kind == "subnormal":
                    y = rng.choice([5e-324, -5e-324, 1e-310, 0.0, -0.0, 1.0], size=m)
                else:
                    y = rng.choice([1e300, -1e300, 0.5, -0.5], size=m)
                try:
                    want = numpy_project_simplex(y)
                except ValueError as e:
                    with pytest.raises(ValueError, match=re.escape(str(e))):
                        project_simplex(y)
                    continue
                assert project_simplex(y).tobytes() == want.tobytes(), y

    def test_matches_oracle_random(self, rng):
        for m in (2, 3, 4, 5):
            for _ in range(100):
                y = rng.normal(size=m) * rng.uniform(0.1, 10.0)
                assert np.allclose(
                    project_simplex(y), project_simplex_faces(y), atol=1e-10
                )

    def test_single_coordinate(self):
        assert np.array_equal(project_simplex(np.array([7.3])), [1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        y=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_feasible_and_optimal(self, y):
        y = np.asarray(y, dtype=float)
        x = project_simplex(y)
        assert x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(x - y) <= np.linalg.norm(project_simplex_faces(y) - y) + 1e-9


class TestProjectionTemplate:
    """simplex._projection_lines, the unrolled projection the learner's kernel
    inlines, compiled for every m the kernel is built for, against the loop
    _project_floats bit for bit: its answer, or its error and no warning."""

    @staticmethod
    def compiled(m):
        """The template as a function of m values, and the list of the
        values it handed the loop."""
        Y, W = [f"y{i}" for i in range(m)], [f"w{i}" for i in range(m)]
        src = "\n".join([f"def kernel({', '.join(Y)}):",
                         *(f"    {line}" for line in _projection_lines(Y, W)),
                         f"    return [{', '.join(W)}]"])
        handed = []
        loop = lambda v: handed.append(v) or _project_floats(v)
        return _compiled(src, f"projection m={m}", {"inf": math.inf, "_project_floats": loop}), handed

    def check(self, compiled, y):
        """Whether the loop projects y; the template agrees, and hands the
        loop y only where no tau passes or the running sum is not finite."""
        project, handed = compiled
        handed.clear()
        css = -0.0  # the loop's running sum
        for u in sorted(y, reverse=True):
            css += u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = _project_floats(y)
            except ValueError as e:
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    project(*y)
                assert handed == [y]
                return False
            assert np.array(project(*y)).tobytes() == np.array(want).tobytes(), y
        assert handed == ([] if math.isfinite(css) else [y])
        return True

    @pytest.mark.parametrize("kind", ["random", "tied", "signed_zero", "subnormal", "huge"])
    @pytest.mark.parametrize("m", range(1, _KERNEL_MAX + 1))
    def test_matches_the_loop_bit_for_bit(self, m, kind, rng):
        project = self.compiled(m)
        for _ in range(200):
            if kind == "random":
                y = rng.normal(size=m) * rng.uniform(0.01, 10.0) + 1.0 / m
            elif kind == "tied":
                y = rng.choice(rng.normal(size=2) / m, size=m)
            elif kind == "signed_zero":
                y = rng.choice([0.0, -0.0, 1.0 / m, -1.0 / m, 1.0], size=m)
            elif kind == "subnormal":
                y = rng.choice([5e-324, -5e-324, 1e-310, 0.0, -0.0, 1.0], size=m)
            else:
                y = rng.choice([1e300, -1e300, 0.5, -0.5, 1.7e308], size=m)
            self.check(project, y.tolist())

    @pytest.mark.parametrize("m", range(2, _KERNEL_MAX + 1))
    def test_no_passing_support_size_calls_the_loop(self, m):
        # 1 - u_1 rounds to -u_1, so no tau passes, and the loop raises
        y = [-3.3e299] + [3.4e299 / (m - 1)] * (m - 1)
        assert not self.check(self.compiled(m), y)

    @pytest.mark.parametrize("m", range(3, _KERNEL_MAX + 1))
    def test_overflowing_running_sum_takes_the_loops_answer(self, m):
        # finite values whose running sum overflows to -inf: the last k
        # passes with tau = inf, which would make every weight inf, so the
        # loop raises its error, as the template does by handing it the values
        assert not self.check(self.compiled(m), [0.5] + [-1.7e308] * (m - 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("m", range(1, _KERNEL_MAX + 1))
    def test_non_finite_input_raises_the_loops_error(self, m, bad):
        project = self.compiled(m)
        for i in range(m):
            y = [1.0 / m] * m
            y[i] = bad
            assert not self.check(project, y)


class TestProjectSimplexFloor:
    def test_respects_floor(self, rng):
        for _ in range(50):
            y = rng.normal(size=4)
            x = project_simplex_floor(y, 0.05)
            assert x.min() >= 0.05 - 1e-12
            assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_floor_is_plain_projection(self, rng):
        y = rng.normal(size=4)
        assert np.array_equal(project_simplex_floor(y, 0.0), project_simplex(y))

    def test_rejects_infeasible_floor(self):
        with pytest.raises(ValueError):
            project_simplex_floor(np.ones(4), 0.3)

    def test_nearest_among_random_feasible(self, rng):
        # no sampled feasible point may beat the claimed projection
        y = rng.normal(size=3) * 2.0
        x = project_simplex_floor(y, 0.1)
        d = np.linalg.norm(x - y)
        for _ in range(2000):
            z = rng.dirichlet(np.ones(3)) * 0.7 + 0.1
            assert np.linalg.norm(z - y) >= d - 1e-9


class TestRandomSimplexPoint:
    def test_stays_in_shell_at_large_n(self, rng):
        for n, floor in ((3, 0.2), (200, 1e-3), (1000, 9e-4)):
            p = random_simplex_point(rng, n, floor)
            assert p.min() >= floor
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_floor_is_plain_dirichlet(self):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        assert np.array_equal(random_simplex_point(a, 4), b.dirichlet(np.ones(4)))

    def test_marginal_matches_shrunken_uniform(self, rng):
        # under the uniform law on {p >= f}, (p_1 - f)/(1 - n f) is Beta(1, n-1)
        n, floor = 3, 0.1
        draws = np.array([random_simplex_point(rng, n, floor)[0] for _ in range(4000)])
        z = (draws - floor) / (1.0 - n * floor)
        assert z.mean() == pytest.approx(1.0 / n, abs=0.02)
        assert np.mean(z <= 0.5) == pytest.approx(1.0 - 0.5 ** (n - 1), abs=0.03)

    def test_rejects_infeasible_floor(self, rng):
        with pytest.raises(ValueError):
            random_simplex_point(rng, 4, 0.25)

    @pytest.mark.parametrize("size", [None, 1, 7])
    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [2, 3, 50, 200])
    def test_block_is_dirichlet_bit_for_bit(self, n, floor, size):
        # a block equals one-point calls and Generator.dirichlet row by row,
        # and leaves the generator where they leave it
        block, single, ref = (np.random.default_rng(11) for _ in range(3))
        got = random_simplex_point(block, n, floor, size)
        k = 1 if size is None else size
        ones = [random_simplex_point(single, n, floor) for _ in range(k)]
        slack = 1.0 - n * floor
        want = [floor + slack * ref.dirichlet(np.ones(n)) for _ in range(k)]
        assert got.shape == ((n,) if size is None else (size, n))
        rows = got.reshape(k, n)
        assert np.array_equal(rows, ones) and np.array_equal(rows, want)
        assert block.random() == single.random() == ref.random()

    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_interleaved_draws_transformed_in_bulk(self, n, floor):
        # bare exponential calls between uniform draws, mapped to the shell
        # in one bulk call, equal one-point calls in the same order, and
        # leave the generator where they leave it
        bulk, single = np.random.default_rng(13), np.random.default_rng(13)
        E, U = np.empty((5, 3, n)), np.empty((5, 3))
        want, V = np.empty((5, 3, n)), np.empty((5, 3))
        for i in range(5):
            E[i, :2] = bulk.standard_exponential((2, n))
            want[i, :2] = random_simplex_point(single, n, floor, size=2)
            U[i, :2] = bulk.uniform(size=2)
            V[i, :2] = single.uniform(size=2)
            E[i, 2] = bulk.standard_exponential(n)
            want[i, 2] = random_simplex_point(single, n, floor)
            U[i, 2] = bulk.uniform(0.1, 2.0)
            V[i, 2] = single.uniform(0.1, 2.0)
        assert np.array_equal(_shell_points(E, floor), want)
        assert np.array_equal(U, V)
        assert bulk.random() == single.random()
