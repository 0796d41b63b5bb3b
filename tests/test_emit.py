"""The stdout renderer: cli._emit hands each finite float64 array of at
least _ORJSON_MIN values to orjson and respells it as json spells it, so
every document it writes is byte for byte json.dumps's."""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest

from qapool import cli

NAN, INF = float("nan"), float("inf")


def json_emit(doc: dict) -> None:
    """The renderer before orjson: json alone."""
    out = json.dumps(doc, sort_keys=True, allow_nan=False, default=lambda o: o.tolist())
    sys.stdout.write(out + "\n")


def written(emit, doc: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(doc)
    return out.getvalue()


def assert_same(new: str, old: str) -> None:
    """new == old, failing with the first difference rather than a diff of
    two long documents."""
    if new != old:
        at = len(os.path.commonprefix([new, old]))
        pytest.fail(f"first difference at {at}: {new[at - 30:at + 30]!r} "
                    f"!= {old[at - 30:at + 30]!r}")


def assert_json_bytes(doc: dict) -> None:
    assert_same(written(cli._emit, doc), written(json_emit, doc))


def assert_runs_as_on_json(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main(argv), asserted the same
    with json_emit as _emit."""
    code, out, err = run(argv)
    json_code, json_out, json_err = run(argv, json_emit)
    assert (code, err) == (json_code, json_err)
    assert_same(out, json_out)
    return code, out, err


def run(argv, emit=cli._emit) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main(argv) with emit as _emit."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit", emit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def rendered(monkeypatch):
    """Every array that cli hands to orjson, in order."""
    calls = []

    def dumps(a, option):
        calls.append(a)
        return orjson.dumps(a, option=option)

    monkeypatch.setattr(cli, "orjson", SimpleNamespace(
        dumps=dumps, OPT_SERIALIZE_NUMPY=orjson.OPT_SERIALIZE_NUMPY))
    return calls


def ulps(values):
    """Each value, and its neighbours one ulp below and above."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -INF), np.nextafter(values, INF)])


def signed(values):
    return np.concatenate([values, -values])


RNG = np.random.default_rng(20211021)
BITS = RNG.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
# the values emitted as a JSON number: float64 bit patterns that are finite
VALUES = {
    "bit-patterns": BITS[np.isfinite(BITS)],
    "subnormals": signed(RNG.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)),
    "zeros-and-least-subnormal": np.tile([0.0, -0.0, 5e-324, -5e-324], 4),
    # 1e-5 <= |x| < 1e-4 orjson writes in decimal, repr with an exponent
    "decimal-edges": signed(ulps([1e16, 1e-16, 1e-4, 1e-5])),
    "decade-of-1e-5": signed(RNG.uniform(1e-5, 1e-4, 20_000)),
    "exponent-widths": signed(ulps([2.5e-7, 1e-9, 3e-42, 1e-99, 7e-100, 1e-300,
                                    1e17, 4.5e22, 1e99, 1e100, 6e250, 1.7e308])),
    "log-uniform": signed(10.0 ** RNG.uniform(-12, 25, 50_000)),
    # a value whose digits hold "0.0000" not at its start
    "interior-zeros": np.array([100000000000.00002, 0.10000000000000002, 1.00001,
                                200.00004, 3.00000001, 1e-4 + 1e-5] * 3),
    "powers-of-ten": signed(ulps(10.0 ** np.arange(-323, 309))),
    "unit-interval": RNG.random(20_000),
}


@pytest.mark.parametrize("name", VALUES)
def test_float64_values_render_as_json_does(name, rendered):
    values = VALUES[name]
    doc = {"a": values, "b": [values[:17], {"c": values[::-1]}]}
    assert_json_bytes(doc)
    assert len(rendered) == 3  # every array went through orjson


SHAPES = {
    "empty": np.zeros(0),
    "no-columns": np.zeros((20, 0)),
    "matrix": RNG.random((20, 50)),
    "one-column": RNG.random((20, 1)),
    "three-axes": RNG.random((4, 3, 5)) * 1e-5,
    # score's rows of S[:, idx], and other views that are not C-contiguous
    "fancy-indexed-rows": RNG.random((20, 50))[:, np.arange(50)][3],
    "strided": RNG.random(64)[::3],
    "transposed": RNG.random((16, 20)).T,
    "fortran-order": np.asfortranarray(RNG.random((20, 16))),
}


@pytest.mark.parametrize("name", SHAPES)
def test_shapes_and_views_render_as_json_does(name, rendered):
    doc = {"v": SHAPES[name]}
    assert_json_bytes(doc)
    assert len(rendered) == (SHAPES[name].size >= cli._ORJSON_MIN)


def test_what_never_reaches_orjson(rendered):
    # the cut is 16 values, a measured constant (cli module docstring)
    doc = {
        "short": RNG.random(15),
        "int": np.arange(100),
        "bool": np.arange(100) % 3 == 0,
        "float32": RNG.random(100).astype(np.float32),
        "zero-d": np.array(0.1),
        "scalar": np.float64(1e-5),
        "list": RNG.random(100).tolist(),
    }
    assert_json_bytes(doc)
    assert rendered == []
    doc["cut"] = RNG.random(16)
    assert_json_bytes(doc)
    assert len(rendered) == 1


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_a_non_finite_array_fails_as_json_does(bad):
    values = RNG.random(40)
    values[17] = bad
    for doc in ({"v": values}, {"a": RNG.random(40), "v": values.reshape(8, 5)}):
        with pytest.raises(ValueError) as new:
            written(cli._emit, doc)
        with pytest.raises(ValueError) as old:
            written(json_emit, doc)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("text", ["\x000\x00", "\x001\x00", "\x0099\x00", '"\x000\x00'])
def test_a_string_that_spells_a_sentinel_renders_as_json_does(text):
    for doc in ({"id": text, "v": RNG.random(20)}, {text: RNG.random(20)},
                {"a": RNG.random(20), "b": [text, RNG.random(30)]}):
        assert_json_bytes(doc)


# --------------------------------------------------------------------------
# whole documents, through the CLI
# --------------------------------------------------------------------------

def write_forecasts(path: Path, m: int, n: int, seed: int, ids=None, labels=None) -> str:
    rng = np.random.default_rng(seed)
    probs = 1e-3 + (1 - n * 1e-3) * rng.dirichlet(np.ones(n), size=m)
    experts = [{"id": ids[i] if ids else f"e{i}", "probs": p.tolist(),
                "weight": float(rng.uniform(0.5, 2))} for i, p in enumerate(probs)]
    doc = {"experts": experts, **({"labels": labels} if labels else {})}
    path.write_text(json.dumps(doc))
    return str(path)


def write_stream(path: Path, T: int, m: int, n: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    steps = [{"forecasts": rng.dirichlet(np.ones(n), size=m).tolist(),
              "outcome": int(rng.integers(1, n + 1))} for _ in range(T)]
    path.write_text(json.dumps({"steps": steps}))
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    return {
        "F": write_forecasts(tmp_path / "large.json", 20, 50, 1),
        "S": write_stream(tmp_path / "stream.json", 40, 3, 4, 2),
    }


COMMANDS = {
    "pool": (["pool", "quadratic", "F"], True),
    "pool-log": (["pool", "log", "F"], True),
    "pool-generalized": (["pool", "spherical:2", "F", "--generalized"], True),
    "score": (["score", "log", "F"], True),
    "score-one-outcome": (["score", "quadratic", "F", "--outcome", "7"], False),
    "bregman": (["bregman", "hs", "F"], True),
    "learn": (["learn", "quadratic", "S", "--seed", "3"], True),
    "audit": (["audit", "quadratic", "--samples", "20"], False),
    "probe-exposure": (["probe-exposure", "tsallis:1.5", "--samples", "50"], False),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_writes_json_bytes(name, inputs, rendered):
    words, reaches_orjson = COMMANDS[name]
    argv = [inputs.get(word, word) for word in words]
    code, out, err = assert_runs_as_on_json(argv)
    assert code == 0 and out.count("\n") == 1
    assert bool(rendered) == reaches_orjson


def test_all_outcome_scores_reach_orjson_as_views_of_one_matrix(inputs, rendered):
    # without --outcome the score matrix is neither fancy-indexed nor its
    # rows copied to C order: each row handed to orjson is a view
    assert_runs_as_on_json(["score", "log", inputs["F"]])
    assert len(rendered) == 20
    assert all(a.base is not None and a.base is rendered[0].base for a in rendered)


def test_ids_and_labels_that_spell_sentinels_write_json_bytes(tmp_path):
    sentinels = [f"\x00{k}\x00" for k in range(20)]
    path = write_forecasts(tmp_path / "f.json", 20, 20, 4, ids=sentinels, labels=sentinels)
    for argv in (["score", "quadratic", path], ["pool", "quadratic", path],
                 ["bregman", "quadratic", path]):
        code, out, err = assert_runs_as_on_json(argv)
        assert code == 0 and '"\\u00000\\u0000"' in out


def test_a_non_finite_result_exits_1_as_on_json(inputs, monkeypatch):
    def nan_matrix(rule, probs):
        D = np.ones((len(probs), len(probs)))
        D[1, 2] = NAN
        return D

    monkeypatch.setattr(cli, "_bregman_matrix", nan_matrix)
    argv = ["bregman", "quadratic", inputs["F"]]
    code, out, err = assert_runs_as_on_json(argv)
    assert code == 1 and out == "" and err.startswith("qapool: input error: Out of range")


def test_a_learn_rootfind_document_never_reaches_orjson(tmp_path, monkeypatch, rendered):
    # ten steps of five experts: every array is under the cut
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    from perfbench.inputs import make_learn_rootfind

    for op in make_learn_rootfind(tmp_path, 1, 0):
        assert assert_runs_as_on_json(op.argv)[0] == 0
    assert rendered == []
