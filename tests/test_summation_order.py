"""One summation order: every sum that reaches the output adds from the
first term in index order (simplex._ordered_sum), at every length, and
the generated float kernels are built only up to their size cuts."""

import ast
from pathlib import Path

import numpy as np
import pytest

import qapool
from qapool import LearningConfig, RuleSpec, learning, ogd_run, pooling, qa_pool, simplex
from qapool.files import StreamFile
from qapool.simplex import _ordered_dot, _ordered_sum

from oracles import left_fold

SRC = Path(qapool.__file__).parent

# (module, function) -> why the sum there may add in numpy's own order;
# every other reduction outside simplex goes through its ordered helpers
UNORDERED = {
    ("learning", "_solve_offline.value_grad"):
        "the hindsight gradient's einsum: every ordered form costs about twice as much "
        "(1.0 -> 2.1 ms per evaluation at T = 20,000, m = 5, n = 3)",
}
# attributes that reduce in an order numpy or BLAS picks: x.sum(), np.sum,
# x.mean(), np.einsum, np.dot, np.linalg.norm and their kin
REDUCING = {"sum", "mean", "nansum", "nanmean", "average", "einsum", "dot", "vdot", "inner",
            "matmul", "tensordot", "norm"}


def unordered_sites(path: Path) -> list[tuple[str, int, str]]:
    """(enclosing function's dotted name, line, source) of every reduction
    in the module at path whose summation order the program does not fix."""
    source = path.read_text()
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        add_reduce = (isinstance(node, ast.Attribute) and node.attr == "reduce"
                      and isinstance(node.value, ast.Attribute) and node.value.attr == "add")
        matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        if add_reduce or matmul or isinstance(node, ast.Attribute) and node.attr in REDUCING:
            sites.append((".".join(scope), node.lineno, ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_every_sum_outside_simplex_is_ordered():
    found, allowed = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "simplex":  # the ordered helpers themselves
            continue
        for function, line, text in unordered_sites(path):
            if (path.stem, function) in UNORDERED:
                allowed.append((path.stem, function))
            else:
                found.append(f"{path.relative_to(SRC.parent)}:{line}: {text} (in {function})")
    assert not found, "sum in numpy's order; use simplex._ordered_sum or _ordered_dot:\n" + "\n".join(found)
    # each allowed site exists, once
    assert sorted(allowed) == sorted(UNORDERED)


def fold_rows(n: int) -> np.ndarray:
    """Rows of n terms: spread magnitudes, signed zeros, an infinity, both
    infinities, a NaN, and a sum that overflows."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-12, 12, (7, n))
    rows[1] = -0.0
    rows[2, ::2] = -0.0
    rows[2, 1::2] = 0.0
    rows[3, -1] = np.inf
    rows[4, 0], rows[4, -1] = -np.inf, np.inf
    rows[5, n // 2] = np.nan
    rows[6] = 1e308
    return rows


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 50, 1000])
@pytest.mark.parametrize("axis", [-1, -2])
def test_ordered_sum_is_the_left_fold(n, axis):
    rows = fold_rows(n)
    a = rows if axis == -1 else rows.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _ordered_sum(a, axis), left_fold(a, axis)
    assert got.tobytes() == want.tobytes()  # sign of zero and NaN included
    assert np.signbit(got[1]) and (n == 1 or not np.signbit(got[2]))
    assert got[6] == np.inf or n == 1
    # a leading axis is a batch of independent rows
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _ordered_sum(np.stack([a, a[::-1] if axis == -1 else a[:, ::-1]]), axis)
    assert batch[0].tobytes() == want.tobytes()


def slice_cut(n: int) -> int:
    """The fewest rows of n terms that simplex folds by slices."""
    return max(simplex._SLICE_RATIO * n, -(-simplex._SLICE_SIZE // n))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("axis", [-1, -2])
def test_slice_fold_is_the_left_fold(n, axis, monkeypatch):
    # batches of fold_rows around the cut: one row short of it, at it, and
    # four times it; the last two fold by slices, the first accumulates
    folded = []
    fold = simplex._slice_fold
    monkeypatch.setattr(simplex, "_slice_fold", lambda *args: folded.append(1) or fold(*args))
    rng = np.random.default_rng(n)
    for rows, by_slices in ((slice_cut(n) - 1, False), (slice_cut(n), True), (4 * slice_cut(n), True)):
        a = np.resize(fold_rows(n), (rows, n))
        b = 1.0 + rng.random((rows, n))  # keeps each zero's sign, and the overflow
        if axis == -2:
            a, b = a.T.copy(), b.T.copy()
        for got, want in ((lambda: _ordered_sum(a, axis), lambda: left_fold(a, axis)),
                          (lambda: _ordered_dot(a, b, axis), lambda: left_fold(a * b, axis))):
            folded.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                assert got().tobytes() == want().tobytes()  # sign of zero and NaN included
            assert folded == [1] * by_slices
            if n > 1:  # the 1e308 rows overflow on either path
                with np.errstate(over="raise", invalid="ignore"), pytest.raises(FloatingPointError):
                    got()


@pytest.mark.parametrize("shapes", [((400, 1), (400, 3)), ((3,), (400, 3)), ((400, 3), (1, 400, 3))])
@pytest.mark.parametrize("axis", [-1, 0])
def test_slice_fold_of_broadcast_operands(shapes, axis):
    # an operand may broadcast along the summed axis or lack it
    rng = np.random.default_rng(len(shapes[0]))
    a, b = (rng.standard_normal(shape) for shape in shapes)
    want = left_fold(a * b, axis)
    assert _ordered_dot(a, b, axis).tobytes() == want.tobytes()
    assert simplex._slice_fold(a, b, axis).tobytes() == want.tobytes()


def test_no_kernel_is_built_above_its_cut(monkeypatch):
    # without the cuts, a shift kernel for n = 5000 raises RecursionError in
    # the compiler, and a 200 x 3 learning kernel costs far more to compile
    # than its steps save
    built = []
    for module, name in ((pooling, "_shift_kernel"), (learning, "_kernel")):
        kernel = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *shape, k=kernel, name=name: built.append((name, shape)) or k(*shape))
    rng = np.random.default_rng(5000)
    P = rng.dirichlet(np.full(5000, 5.0), size=2)
    for rule in (RuleSpec.neglog(), RuleSpec.tsallis(1.5)):
        assert qa_pool(rule, [(P[0], 1.0), (P[1], 2.0)]).residual <= 1e-8
    sf = StreamFile(rng.dirichlet(np.ones(3), size=(5, 200)), rng.integers(1, 4, size=5))
    ogd_run(LearningConfig(rule=RuleSpec.neglog(), m=200, M=10.0, forecast_floor=0.01), sf)
    shift_cut = max(pooling._SCALAR_COLS, learning._KERNEL_MAX)  # the learner's kernel calls it too
    assert all(n <= shift_cut for name, (n, _) in built if name == "_shift_kernel")
    assert all(max(shape[:2]) <= learning._KERNEL_MAX for name, shape in built if name == "_kernel")
    assert ("_shift_kernel", (3, "reciprocal")) in built  # the hindsight solve's 5 rows
