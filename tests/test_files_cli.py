"""File formats, CLI commands, exit codes, and output determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qapool
from qapool.cli import _emit, main
from qapool.files import (
    ForecastFile,
    StreamFile,
    load_forecast_file,
    load_stream_file,
    write_forecast_file,
)
from qapool.rules import Forecast
from qapool.simplex import random_simplex_point

from conftest import CONVEX_RULES


@pytest.fixture
def forecasts_json(tmp_path):
    path = tmp_path / "forecasts.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "labels": ["hit", "miss"],
                "experts": [
                    {"id": "a", "probs": [0.1, 0.9], "weight": 0.5},
                    {"id": "b", "probs": [0.5, 0.5], "weight": 0.5},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def vertices_json(tmp_path):
    path = tmp_path / "vertices.json"
    path.write_text(
        json.dumps(
            {
                "experts": [
                    {"id": "a", "probs": [1.0, 0.0, 0.0], "weight": 0.5},
                    {"id": "b", "probs": [0.0, 1.0, 0.0], "weight": 0.5},
                ]
            }
        )
    )
    return str(path)


def write_experts(tmp_path, probs, weights=None):
    experts = [{"probs": p} for p in probs]
    for e, w in zip(experts, weights or []):
        e["weight"] = w
    path = tmp_path / "experts.json"
    path.write_text(json.dumps({"experts": experts}))
    return str(path)


@pytest.fixture
def stream_json(tmp_path):
    rng = np.random.default_rng(3)
    steps = []
    for _ in range(40):
        fs = [list(rng.dirichlet([1, 1])) for _ in range(2)]
        steps.append({"forecasts": fs, "outcome": int(rng.integers(1, 3))})
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"steps": steps}))
    return str(path)


NAN, INF = float("nan"), float("inf")
ONE_EXPERT = [{"probs": [0.5, 0.5]}]
MALFORMED_FORECAST_FILES = {
    "experts-not-objects": {"experts": [1, 0]},
    "experts-not-a-list": {"experts": {"a": 1}},
    "n-not-a-number": {"n": [float("nan")], "experts": ONE_EXPERT},
    "n-not-an-integer": {"n": 2.7, "experts": ONE_EXPERT},
    "labels-not-a-list": {"labels": 5, "experts": ONE_EXPERT},
    "weight-not-a-number": {"experts": [{"probs": [0.5, 0.5], "weight": [1]}]},
    "probs-not-a-list": {"experts": [{"probs": {"a": 1}}]},
    "probs-huge-integer": {"experts": [{"probs": [10**400, 0.5]}]},
    "probs-string": {"experts": ONE_EXPERT + [{"probs": ["0.5", 0.5]}]},
    "probs-bool": {"experts": ONE_EXPERT + [{"probs": [True, False]}]},
}

GOOD_ROW = [0.25, 0.25, 0.5]


def _bad_expert_2(probs=GOOD_ROW, weight=1.0):
    """Four experts of GOOD_ROW at weight 1, expert 2 replaced by the bad one."""
    return [(GOOD_ROW, 1.0)] * 2 + [(probs, weight), (GOOD_ROW, 1.0)]


# name -> (experts as (probs, weight) pairs, the expert the error must name)
MALFORMED_EXPERTS = {
    "nan": (_bad_expert_2([NAN, 0.5, 0.5]), 2),
    "negative": (_bad_expert_2([-0.1, 0.6, 0.5]), 2),
    "sum-off-1e-6": (_bad_expert_2([0.25, 0.25, 0.500001]), 2),
    "ragged-row": (_bad_expert_2([0.5, 0.5]), 2),
    "negative-weight": (_bad_expert_2(weight=-1.0), 2),
    "nan-weight": (_bad_expert_2(weight=NAN), 2),
    "n-is-1": ([([1.0], 1.0)] * 3, 0),
}


def write_forecast_table(tmp_path, experts, fmt):
    """Write (probs, weight) pairs as a JSON or a weighted CSV forecast file."""
    if fmt == "json":
        path = tmp_path / "f.json"
        rows = [{"probs": p, "weight": w} for p, w in experts]
        path.write_text(json.dumps({"experts": rows}))
    else:
        path = tmp_path / "f.csv"
        header = [f"o{j + 1}" for j in range(len(experts[0][0]))] + ["weight"]
        lines = [",".join(header)]
        lines += [",".join(repr(float(x)) for x in [*p, w]) for p, w in experts]
        path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestForecastFiles:
    def test_json_load(self, forecasts_json):
        ff = load_forecast_file(forecasts_json)
        assert ff.n == 2 and ff.probs.shape == (2, 2) and ff.ids == ("a", "b")
        assert ff.labels == ("hit", "miss")
        assert ff.weights[0] == 0.5

    def test_missing_weights_default_uniformly(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps({"experts": [{"probs": [0.3, 0.7]}, {"probs": [0.6, 0.4]}]})
        )
        ff = load_forecast_file(path)
        assert ff.weights.tolist() == [1.0, 1.0]

    def test_csv_with_header_and_weight(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("rain,dry,weight\n0.1,0.9,0.5\n0.5,0.5,0.5\n")
        ff = load_forecast_file(path)
        assert ff.labels == ("rain", "dry")
        assert ff.weights.tolist() == [0.5, 0.5]
        assert np.allclose(ff.probs[0], [0.1, 0.9])

    def test_csv_headerless_is_all_probabilities(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0.2,0.3,0.5\n0.25,0.25,0.5\n")
        ff = load_forecast_file(path)
        assert ff.n == 3
        # no weight column: every expert gets the default weight
        assert ff.weights.tolist() == [1.0, 1.0]

    def test_mismatched_outcome_counts_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps(
                {"experts": [{"probs": [0.3, 0.7]}, {"probs": [0.2, 0.3, 0.5]}]}
            )
        )
        with pytest.raises(ValueError):
            load_forecast_file(path)

    @pytest.mark.parametrize("command", ["pool", "score", "bregman"])
    @pytest.mark.parametrize(
        "content", ['{"experts": []}', "a,b,weight\n"], ids=["json", "csv"]
    )
    def test_no_experts_exits_1(self, tmp_path, command, content, capsys):
        path = tmp_path / ("f.json" if content.startswith("{") else "f.csv")
        path.write_text(content)
        assert main([command, "quadratic", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qapool:") and "lists no experts" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_FORECAST_FILES))
    def test_malformed_json_exits_1(self, tmp_path, name, capsys):
        # each of these once escaped as a Python traceback
        path = tmp_path / "f.json"
        path.write_text(json.dumps(MALFORMED_FORECAST_FILES[name]))
        assert main(["pool", "quadratic", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qapool: input error:") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_EXPERTS))
    def test_malformed_expert_is_named(self, tmp_path, name, fmt, capsys):
        experts, k = MALFORMED_EXPERTS[name]
        path = write_forecast_table(tmp_path, experts, fmt)
        with pytest.raises(ValueError, match=rf"^expert {k}\b"):
            load_forecast_file(path)
        assert main(["pool", "quadratic", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"qapool: input error: expert {k}") and err.count("\n") == 1

    def test_sum_error_prints_a_plain_float(self, tmp_path, capsys):
        path = write_experts(tmp_path, [[0.5, 0.4]])
        assert main(["pool", "quadratic", path]) == 1
        assert capsys.readouterr().err == (
            "qapool: input error: expert 0: probabilities sum to 0.9, not 1 within 1e-9\n"
        )

    def test_null_weight_loads_as_one(self, tmp_path):
        path = tmp_path / "f.json"
        experts = [{"probs": [0.3, 0.7], "weight": None}, {"probs": [0.6, 0.4], "weight": 2}]
        path.write_text(json.dumps({"experts": experts}))
        assert load_forecast_file(path).weights.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n", [3, 50])
    def test_rows_are_the_forecasts_bit_for_bit(self, tmp_path, n, fmt):
        rng = np.random.default_rng(n)
        # rows off the simplex by up to 5e-10, so renormalizing moves bits
        raw = rng.dirichlet(np.ones(n), size=12)
        raw *= 1.0 + rng.uniform(-5e-10, 5e-10, size=(12, 1))
        weights = rng.uniform(0.1, 2.0, size=12)
        ff = load_forecast_file(
            write_forecast_table(tmp_path, list(zip(raw.tolist(), weights.tolist())), fmt)
        )
        assert not ff.probs.flags.writeable and not ff.weights.flags.writeable
        assert ff.weights.tolist() == weights.tolist()
        want = np.array([Forecast(p).probs for p in raw.tolist()])
        assert np.array_equal(ff.probs, want)
        assert all(np.array_equal(f.probs, p) for f, p in zip(ff.forecasts, want))

    def test_round_trip_preserves_probabilities(self, tmp_path, forecasts_json):
        ff = load_forecast_file(forecasts_json)
        out = tmp_path / "copy.json"
        write_forecast_file(ff, out)
        back = load_forecast_file(out)
        assert isinstance(back, ForecastFile)
        assert np.array_equal(ff.probs, back.probs)


@pytest.mark.parametrize("command, doc", [
    ("score", {"experts": [{"id": "café", "probs": [0.2, 0.8]}]}),
    # an unread key sends the stream to the json.loads path
    ("learn", {"steps": [{"forecasts": [[0.2, 0.8]], "outcome": 1, "note": "café"}]}),
])
def test_json_reads_as_utf8_in_an_ascii_locale(tmp_path, command, doc):
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    done = run_in_ascii_locale(command, "quadratic", str(path))
    assert done.returncode == 0 and done.stderr == ""
    if command == "score":
        assert json.loads(done.stdout)["experts"][0]["id"] == "café"


@pytest.mark.parametrize("command", ["score", "pool"])
def test_csv_reads_as_utf8_in_an_ascii_locale(tmp_path, command):
    path = tmp_path / "utf8.csv"
    path.write_bytes("café,dry\n0.2,0.8\n".encode("utf-8"))
    done = run_in_ascii_locale(command, "quadratic", str(path))
    assert done.returncode == 0 and done.stderr == ""
    if command == "pool":
        assert '"labels": ["caf\\u00e9", "dry"]' in done.stdout


def run_in_ascii_locale(*argv):
    """The finished `python -m qapool.cli *argv` run in a child process whose
    locale encoding is ASCII: the C locale, with Python neither coercing it
    nor entering UTF-8 mode (set in the child's environment only)."""
    env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1]),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    return subprocess.run([sys.executable, "-m", "qapool.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


GOOD = [[0.5, 0.5], [0.1, 0.9]]


def _bad_step_2(forecasts=GOOD, outcome=1):
    """Four steps of GOOD forecasts, step 2 replaced by the bad one."""
    good = {"forecasts": GOOD, "outcome": 1}
    return [good, good, {"forecasts": forecasts, "outcome": outcome}, good]


# name -> (steps, the step the error must name)
MALFORMED_STREAMS = {
    "ragged-rows": (_bad_step_2([[0.5, 0.5], [0.2, 0.3, 0.5]]), 2),
    "ragged-same-count": (_bad_step_2([[0.2, 0.3, 0.5], [1.0]]), 2),
    "string-step": (_bad_step_2("ab"), 2),
    "object-step": (_bad_step_2({"a": [0.5, 0.5], "b": [0.1, 0.9]}), 2),
    "number-row": (_bad_step_2([[0.5, 0.5], 1.0]), 2),
    "m-changes": (_bad_step_2([[0.5, 0.5]]), 2),
    "n-is-1": ([{"forecasts": [[1.0], [1.0]], "outcome": 1}] * 3, 0),
    "nan": (_bad_step_2([[NAN, 0.5], [0.1, 0.9]]), 2),
    "inf": (_bad_step_2([[INF, 0.5], [0.1, 0.9]]), 2),
    "negative": (_bad_step_2([[-0.1, 1.1], [0.1, 0.9]]), 2),
    "sum-off-1e-6": (_bad_step_2([[0.5, 0.5], [0.1, 0.900001]]), 2),
    "no-forecasts": ([{"forecasts": GOOD, "outcome": 1}] * 2 + [{"outcome": 1}], 2),
    "bool-outcome": (_bad_step_2(outcome=True), 2),
    "float-outcome": (_bad_step_2(outcome=2.0), 2),
    "outcome-above-n": (_bad_step_2(outcome=3), 2),
    "outcome-zero": (_bad_step_2(outcome=0), 2),
    "huge-outcome": (_bad_step_2(outcome=10**400), 2),
    "null-outcome": (_bad_step_2(outcome=None), 2),
    "huge-integer": (_bad_step_2([[10**400, 0.5], [0.1, 0.9]]), 2),
    "string": (_bad_step_2([["0.5", 0.5], [0.1, 0.9]]), 2),
    "bool": (_bad_step_2([[0.5, 0.5], [True, 0]]), 2),
    "bool-only-row": (_bad_step_2([[0.5, 0.5], [True, False]]), 2),
}


class TestStreamFiles:
    def test_load(self, stream_json):
        sf = load_stream_file(stream_json)
        assert sf.m == 2 and sf.n == 2 and sf.outcomes.shape == (40,)

    def test_outcome_out_of_range(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps({"steps": [{"forecasts": [[0.5, 0.5]], "outcome": 3}]})
        )
        with pytest.raises(ValueError):
            load_stream_file(path)

    @pytest.mark.parametrize("outcome", [True, 2.7, 1.0, "1", None])
    def test_outcome_must_be_a_json_integer(self, tmp_path, outcome):
        path = tmp_path / "s.json"
        steps = [{"forecasts": [[0.5, 0.5]], "outcome": 1}] * 2
        steps.append({"forecasts": [[0.5, 0.5]], "outcome": outcome})
        path.write_text(json.dumps({"steps": steps}))
        with pytest.raises(ValueError, match="step 2"):
            load_stream_file(path)
        assert main(["learn", "quadratic", str(path)]) == 1
        # the record itself checks the type before the range
        with pytest.raises(ValueError, match="step 2: outcome must be an integer"):
            StreamFile(np.full((3, 1, 2), 0.5), np.array([1, 1, outcome], dtype=object))

    @pytest.mark.parametrize("name", sorted(MALFORMED_STREAMS))
    def test_malformed_stream_names_its_step(self, tmp_path, name, capsys):
        steps, k = MALFORMED_STREAMS[name]
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"steps": steps}))
        with pytest.raises(ValueError, match=rf"^step {k}\b"):
            load_stream_file(path)
        assert main(["learn", "quadratic", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("qapool:")

    @pytest.mark.parametrize("n", [3, 50])
    def test_rows_are_the_forecasts_bit_for_bit(self, tmp_path, n):
        rng = np.random.default_rng(n)
        # rows off the simplex by up to 5e-10, so renormalizing moves bits
        raw = rng.dirichlet(np.ones(n), size=(30, 4))
        raw *= 1.0 + rng.uniform(-5e-10, 5e-10, size=(30, 4, 1))
        steps = [
            {"forecasts": fs, "outcome": int(j)}
            for fs, j in zip(raw.tolist(), rng.integers(1, n + 1, size=30))
        ]
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"steps": steps}))
        sf = load_stream_file(path)
        assert not sf.forecasts.flags.writeable and not sf.outcomes.flags.writeable
        assert sf.outcomes.tolist() == [st["outcome"] for st in steps]
        for t, st in enumerate(steps):
            for i, row in enumerate(st["forecasts"]):
                assert np.array_equal(sf.forecasts[t, i], Forecast(row).probs)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_restores_the_callers_gc_state(self, tmp_path, stream_json, enabled):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"steps": MALFORMED_STREAMS["string"][0]}))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            load_stream_file(stream_json)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="step 2"):
                load_stream_file(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_no_collection_runs_while_a_stream_loads(self, tmp_path):
        # 2000 steps decode to 8000 lists and dicts, far past the
        # collector's first threshold of 700 allocations
        steps = [{"forecasts": GOOD, "outcome": 1 + t % 2} for t in range(2000)]
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"steps": steps}))
        phases = []
        gc.callbacks.append(record := lambda phase, info: phases.append(phase))
        try:
            sf = load_stream_file(path)
        finally:
            gc.callbacks.remove(record)
        assert sf.forecasts.shape == (2000, 2, 2) and phases == []

    def test_varying_expert_count(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "steps": [
                        {"forecasts": [[0.5, 0.5]], "outcome": 1},
                        {"forecasts": [[0.5, 0.5], [0.1, 0.9]], "outcome": 1},
                    ]
                }
            )
        )
        with pytest.raises(ValueError):
            load_stream_file(path)


class TestCmdPool:
    def test_quadratic_pool(self, forecasts_json, capsys):
        assert main(["pool", "quadratic", forecasts_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["pooled"], [0.3, 0.7])
        assert doc["method"] == "closed_form"
        assert doc["total_weight"] == 1.0
        assert doc["surplus_report"]["equalization_gap"] <= 1e-10

    def test_infeasible_rule_exits_2(self, vertices_json, capsys):
        assert main(["pool", "tsallis:3", vertices_json]) == 2
        err = capsys.readouterr().err
        assert "tsallis:3" in err and "--generalized" in err

    def test_generalized_rescues_infeasible(self, vertices_json, capsys):
        assert main(["pool", "tsallis:3", "--generalized", vertices_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "bregman_min"
        assert np.allclose(doc["pooled"], [0.5, 0.5, 0.0], atol=1e-6)

    def test_weight_override(self, forecasts_json, capsys):
        assert main(["pool", "quadratic", "--weights", "1,0", forecasts_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["pooled"], [0.1, 0.9])

    def test_wrong_weight_count_exits_1(self, forecasts_json, capsys):
        assert main(["pool", "quadratic", "--weights", "1,2,3", forecasts_json]) == 1

    def test_floor_without_generalized_exits_1(self, forecasts_json, capsys):
        assert main(["pool", "log", forecasts_json, "--floor", "0.01"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qapool: error: --floor applies only with --generalized\n"

    def test_unknown_rule_exits_1(self, forecasts_json):
        assert main(["pool", "nosuchrule", forecasts_json]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["pool", "quadratic", str(tmp_path / "nope.json")]) == 1

    def test_round_trip_out_file(self, forecasts_json, tmp_path, capsys):
        out = tmp_path / "pooled.json"
        assert main(["pool", "log", forecasts_json, "--out", str(out)]) == 0
        back = load_forecast_file(out)
        assert back.n == 2
        assert back.ids == ("pool",)
        # serialized at round-trip precision: still a valid simplex point
        assert abs(back.probs[0].sum() - 1.0) <= 1e-9

    def test_unprojectable_gradient_step_is_a_solver_failure(self, tmp_path, capsys):
        # the exposure average spans some 1e300, so at the barycenter the
        # scaled objective is all but linear and the Newton step leaves the
        # simplex by a factor near 1e298, which no halving of the arc
        # undoes; a valid file ends as a stalled solve that names its
        # Frank-Wolfe gap, not as an input error
        path = write_experts(tmp_path, [[1e-300, 0.5, 0.5], [0.2, 0.3, 0.5]])
        argv = ["pool", "neglog", path, "--generalized", "--floor", "1e-320"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "qapool: solver failure: generalized pooling under neglog: projected Newton "
            "stalled at Frank-Wolfe gap 5.000e-01, above 1e-12\n"
        )

    @pytest.mark.parametrize("rule", [r.label for r in CONVEX_RULES] + ["tsallis:3"])
    def test_overflowing_exposure_prints_one_error_line(self, rule, tmp_path, capsys):
        # a valid open-domain file; power:-1's exposure -1/p^2 overflows at
        # 1e-200, which must be one input error, not a numpy warning and a
        # kernel spun to its iteration cap
        path = write_experts(tmp_path, [[1e-200, 0.5, 0.5], [0.2, 0.3, 0.5]])
        code = main(["pool", rule, path])
        out, err = capsys.readouterr()
        # every other family pools the file or reports one error line
        assert (code == 0) == (err == "") and (code == 0) == (out != "")
        assert code == 0 or err.startswith("qapool:") and len(err.splitlines()) == 1
        if rule == "power:-1":
            assert code == 1 and "exposure to be finite" in err

    def test_overflow_from_the_parameter_names_it(self, tmp_path, capsys):
        # every probability is at least 0.1, but c p^(c-1) is about 1e1000
        path = write_experts(tmp_path, [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
        code = main(["pool", "power:-1000", path])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err == (
            "qapool: error: rule power:-1000: a forecast whose least probability is 0.1 lies "
            "too close to the simplex boundary, or the parameter -1000 is too extreme, for "
            "its exposure to be finite\n"
        )

    def test_overflowing_kkt_residual_prints_one_stderr_line(self, tmp_path):
        # in a subprocess, since pytest would capture numpy's RuntimeWarning
        path = write_experts(tmp_path, [[1e-300, 0.5, 0.5], [0.2, 0.3, 0.5]])
        env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "qapool.cli", "pool", "neglog", path,
             "--generalized", "--floor", "1e-320"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 3 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("qapool:")

    def test_deterministic_output(self, forecasts_json, capsys):
        main(["pool", "spherical:2", forecasts_json])
        first = capsys.readouterr().out
        main(["pool", "spherical:2", forecasts_json])
        second = capsys.readouterr().out
        assert first == second

    def test_overflowing_total_weight_exits_1(self, tmp_path, capsys):
        # each weight is finite, their sum is not: normalizing by it would
        # zero both weights and return the uniform forecast
        path = write_experts(
            tmp_path, [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]], [1e308, 1e308]
        )
        assert main(["pool", "quadratic", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "total weight" in err

    def test_infinite_residual_exits_3(self, tmp_path, capsys):
        # the exposure -1/1e-300 drives the residual norm to infinity; the
        # certificate must reject it rather than compare inf with inf
        path = write_experts(tmp_path, [[1e-300, 0.5, 0.5], [0.2, 0.3, 0.5]])
        assert main(["pool", "neglog", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "residual" in err

    def test_surplus_report_is_the_aggregator_utility(self, tmp_path, capsys):
        # an unattainable tsallis:3 average, pooled by the generalized pool
        probs = [[0.8, 0.15, 0.05], [0.1, 0.85, 0.05]]
        weights = [0.3, 0.9]
        path = write_experts(tmp_path, probs, weights)
        assert main(["pool", "tsallis:3", path]) == 2
        capsys.readouterr()
        assert main(["pool", "tsallis:3", "--generalized", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        rule, pool = qapool.parse_rule("tsallis:3"), doc["pooled"]
        w = np.asarray(weights) / sum(weights)
        u = doc["surplus_report"]["per_outcome_utility"]
        for j in (1, 2, 3):
            paid = sum(wi * qapool.score(rule, p, j) for wi, p in zip(w, probs))
            expected = qapool.score(rule, pool, j) - paid
            assert u[j - 1] == pytest.approx(expected, abs=1e-12)
        assert doc["surplus_report"]["surplus"] == min(u)
        assert doc["surplus_report"]["equalization_gap"] == max(u) - min(u)

    def test_non_finite_output_is_refused(self, capsys):
        with pytest.raises(ValueError):
            _emit({"residual": float("inf")})
        assert capsys.readouterr().out == ""


class TestCmdScoreAndBregman:
    def test_score_all_outcomes(self, forecasts_json, capsys):
        assert main(["score", "quadratic", forecasts_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        a = doc["experts"][0]
        assert a["id"] == "a"
        assert a["scores"] == pytest.approx([0.2 - 0.82, 1.8 - 0.82])

    def test_score_single_outcome(self, forecasts_json, capsys):
        assert main(["score", "quadratic", forecasts_json, "--outcome", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcomes"] == [1]
        assert len(doc["experts"][0]["scores"]) == 1

    @pytest.mark.parametrize("outcome", ["0", "3", "-1"])
    def test_score_outcome_out_of_range_exits_1(self, forecasts_json, outcome, capsys):
        argv = ["score", "quadratic", forecasts_json, "--outcome", outcome]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""

    def test_bregman_matrix(self, forecasts_json, capsys):
        assert main(["bregman", "quadratic", forecasts_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        m = np.asarray(doc["divergence"])
        assert m.shape == (2, 2)
        assert np.allclose(np.diag(m), 0.0)
        assert m[0, 1] == pytest.approx(2 * 0.4**2)


    @pytest.mark.parametrize(
        "rule", CONVEX_RULES + [qapool.RuleSpec.tsallis(3.0)], ids=lambda r: r.label
    )
    def test_bregman_matrix_matches_pairwise_bregman(self, rule, tmp_path, capsys):
        rng = np.random.default_rng(8)
        P = [random_simplex_point(rng, 50, 1e-3).tolist() for _ in range(20)]
        assert main(["bregman", rule.label, write_experts(tmp_path, P)]) == 0
        D = np.asarray(json.loads(capsys.readouterr().out)["divergence"])
        want = np.array([[qapool.bregman(rule, p, q) for q in P] for p in P])
        assert np.all(np.diag(D) == 0.0)
        off = ~np.eye(20, dtype=bool)
        assert np.all(np.abs(D[off] - want[off]) <= 1e-12 * np.abs(want[off]))


def simd_targets():
    """numpy's SIMD dispatch targets, and whether each is enabled here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {t: __cpu_features__[t] for t in __cpu_dispatch__}


# the targets every sha256 pin of TestCmdLearn and TestOutputPins was
# recorded under (numpy 2.4 on x86-64 with AVX-512): ten of the 27 pins move
# when numpy's dispatch is limited to AVX2, so a failing pin names both
PIN_SIMD_TARGETS = {"X86_V3": True, "X86_V4": True, "AVX512_ICL": True, "AVX512_SPR": True}
PIN_NOTE = f"numpy SIMD targets here: {simd_targets()}; pins recorded under: {PIN_SIMD_TARGETS}"


def test_limited_simd_dispatch_reports_other_targets():
    if not simd_targets().get("X86_V3"):
        pytest.skip("needs a CPU where numpy dispatches to X86_V3 (AVX2 and more)")
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": "AVX2",
           "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
    code = "import json, test_files_cli as t; print(json.dumps(t.simd_targets()))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=Path(__file__).parent, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) != PIN_SIMD_TARGETS
    assert json.loads(done.stdout) != simd_targets()


class TestCmdLearn:
    def test_report_and_curve(self, stream_json, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        assert main(
            ["learn", "quadratic", stream_json, "--emit-curve", str(curve)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["T"] == 40
        assert len(doc["per_step_loss"]) == 40
        assert doc["cumulative_regret"] <= doc["bound"]
        rows = [r for r in curve.read_text().splitlines() if r]
        assert len(rows) == 40
        last = rows[-1].split(",")
        assert float(last[0]) == 40
        assert float(last[1]) == pytest.approx(doc["cumulative_regret"], abs=1e-9)

    def test_open_rule_without_bound_exits_1(self, stream_json):
        assert main(["learn", "log", stream_json]) == 1

    def test_open_rule_with_bound_and_floor(self, stream_json, capsys):
        code = main(
            ["learn", "log", stream_json, "--M", "10", "--floor", "0.001"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exposure_bound"] == 10.0

    def test_overflowing_floor_prints_one_stderr_line(self, stream_json):
        # in a subprocess, since pytest would capture numpy's RuntimeWarning
        env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "qapool.cli", "learn", "log", stream_json,
             "--M", "10", "--floor", "1e308"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("qapool: input error:")
        assert "forecast_floor" in done.stderr

    def test_overflowing_exposure_norm_prints_one_stderr_line(self, tmp_path):
        # in a subprocess, since pytest would capture numpy's RuntimeWarning:
        # the norm of the exposure -1/1e-170 overflows to inf without one.
        # The hindsight solve's Hessian overflows, so no Newton step can be
        # taken, and the solve stalls at the gap of its starting point
        path = tmp_path / "stream.json"
        forecasts = [[1e-170, 0.5, 0.5], [0.2, 0.3, 0.5]]
        path.write_text(json.dumps({"steps": [{"forecasts": forecasts, "outcome": 1}]}))
        env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "qapool.cli", "learn", "neglog", str(path),
             "--M", "1e200", "--floor", "1e-171"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == (
            "qapool: solver failure: projected Newton stalled at Frank-Wolfe gap 5.000e+169, "
            "above 1e-12\n"
        )

    @pytest.mark.parametrize("M, exceeded", [("1e200", False), ("1e100", True)])
    def test_one_expert_whose_exposure_norm_overflows(self, tmp_path, capsys, M, exceeded):
        # the squares of the exposure -1/1e-170 overflow, the norm does not:
        # it is measured on the exposures scaled by their largest magnitude
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({"steps": [{"forecasts": [[1e-170, 0.5, 0.5]], "outcome": 1}]}))
        assert main(["learn", "neglog", str(path), "--M", M, "--floor", "1e-171"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["observed_exposure_sup"] == 8.16496580927726e+169
        assert doc["exposure_bound_exceeded"] is exceeded

    @pytest.mark.parametrize(
        "args",
        [("quadratic", "--M", "1e308"), ("quadratic", "--M", "inf"),
         ("quadratic", "--M", "1e-320"), ("log", "--M", "4", "--floor", "inf")],
        ids=["M_overflows_bound", "M_inf", "M_overflows_steps", "floor_inf"],
    )
    def test_bad_bound_or_floor_prints_one_error_line(self, stream_json, args):
        # rejected before the loop, with no numpy warning on stderr
        env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "qapool.cli", "learn", args[0], stream_json, *args[1:]],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("qapool: error:")
        assert ("floor" if "--floor" in args else " M ") in done.stderr

    def test_unprojectable_step_prints_one_error_line(self, tmp_path):
        # with M = 1e-300 the first step's weights reach 2.55e299, where
        # 1 - u_1 rounds to -u_1: the kernel's inlined projection hands them
        # to the loop, which raises
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({"steps": [
            {"forecasts": [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]], "outcome": 1},
            {"forecasts": [[0.1, 0.1, 0.8], [0.3, 0.3, 0.4]], "outcome": 3},
        ]}))
        env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "qapool.cli", "learn", "quadratic", str(path), "--M", "1e-300"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            "qapool: input error: cannot project onto the simplex: the threshold test fails "
            "at every support size (largest |y_i| is 2.55e+299)\n"
        )

    def test_deterministic_with_env_seed(self, stream_json, capsys, monkeypatch):
        monkeypatch.setenv("QAPOOL_SEED", "123")
        main(["learn", "quadratic", stream_json])
        first = capsys.readouterr().out
        main(["learn", "quadratic", stream_json])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["seed"] == 123

    # sha256 of stdout, recorded before the stream moved to array transport,
    # re-recorded once when every sum of products left BLAS (so that no pin
    # depends on the CPU's OpenBLAS kernel), and once when projected Newton
    # replaced SPG in the hindsight solve (best_weights, best_fixed_loss and
    # cumulative_regret moved; the Frank-Wolfe gap fell on every pinned
    # stream), and once when every sum became an in-order left fold
    # (simplex._ordered_sum: the T = 200 loss sums moved); a speed-up of
    # `learn` must leave these bytes alone
    PINNED = {
        ("quadratic",): "4b8484dc83fe0829aeddb18adcdade66107faf8d1b32881738d2a9b335184988",
        ("log", "--M", "4", "--floor", "0.05"):
            "f4b778700165c8ba4736ebaee60acd06e9fdded56afbc72ea98d11ffb5ef306f",
    }

    # sha256 of the --emit-curve CSV of the same commands, recorded before
    # the curve was written from regret_curve() and bound_curve(),
    # re-recorded once when the sums left BLAS, once when projected Newton
    # replaced SPG (the comparator losses moved), and once when every sum
    # became an in-order left fold
    PINNED_CURVE = {
        ("quadratic",): "6d39593a38c70ce6be9972f8acffd4b6735b58c90d438e6004d391a11d47d8c2",
        ("log", "--M", "4", "--floor", "0.05"):
            "2b304402b6ca605f46c696311cd1a7c00babe3cadbae624c26d8c3d1771361a6",
    }

    @staticmethod
    def pinned_stream(tmp_path):
        rng = np.random.default_rng(20260417)
        F = rng.dirichlet(np.ones(3), size=(200, 5))
        J = rng.integers(1, 4, size=200)
        steps = [{"forecasts": f, "outcome": j} for f, j in zip(F.tolist(), J.tolist())]
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({"steps": steps}))
        return str(path)

    @pytest.mark.parametrize("args", sorted(PINNED), ids=lambda a: a[0])
    def test_output_bytes_are_pinned(self, tmp_path, args, capsys, monkeypatch):
        monkeypatch.delenv("QAPOOL_SEED", raising=False)
        assert main(["learn", args[0], self.pinned_stream(tmp_path), *args[1:]]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[args], PIN_NOTE

    # sha256 of stdout under the five root-find families, recorded before
    # the shift solve got its Python-float path, re-recorded once when the
    # sums left BLAS, once when projected Newton replaced SPG, and once when
    # every sum became an in-order left fold; each
    # open family's --M is perfbench's exposure_bound(family, 3, 0.05)
    PINNED_ROOT_FIND = {
        ("spherical:2",): "333580b69f0865c3ddefa0449db7f6c29acd0785bc2f846713928d42cd9f9de4",
        ("tsallis:1.5",): "4463b3e92b755b1a76357885d1f321733d52a50a6aaad7724b7c15f53295d9f4",
        ("power:0.5", "--M", "4.1533119314590365", "--floor", "0.05"):
            "15b2cc01bffa8c4a10f88b042bae1df401d95e4ab2e0a2ae4882b80c9978b86a",
        ("neglog", "--M", "39.83716857408417", "--floor", "0.05"):
            "37f07f62881f262022ee21a326dd0a1d0fd1657fd9072661597028468a9bb6d7",
        ("hs", "--M", "4.42635206378713", "--floor", "0.05"):
            "0b8733be052b52e18798ad20fcd9698cdc54ec8a95a0bac3cfa52ba51a583888",
    }

    @pytest.mark.parametrize("args", sorted(PINNED_ROOT_FIND), ids=lambda a: a[0])
    def test_root_find_output_bytes_are_pinned(self, tmp_path, args, capsys, monkeypatch):
        monkeypatch.delenv("QAPOOL_SEED", raising=False)
        assert main(["learn", args[0], self.pinned_stream(tmp_path), *args[1:]]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_ROOT_FIND[args], PIN_NOTE

    @pytest.mark.parametrize("args", sorted(PINNED_CURVE), ids=lambda a: a[0])
    def test_curve_bytes_are_pinned(self, tmp_path, args, capsys):
        curve = tmp_path / "curve.csv"
        argv = ["learn", args[0], self.pinned_stream(tmp_path), *args[1:]]
        assert main([*argv, "--emit-curve", str(curve)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == self.PINNED_CURVE[args], PIN_NOTE


class TestOutputPins:
    # sha256 of stdout (the moved ones re-recorded once when every sum of
    # products left BLAS, and once when every sum became an in-order left
    # fold: the nine-expert weight totals, bregman's former einsum and the
    # n = 50 audit moved), recorded before pooling's input path and exposure
    # average were merged; a refactor of pool, score, bregman, audit or
    # probe-exposure must leave these bytes alone
    PINNED = {
        ("pool", "quadratic"):
            "3b81aa02a00807c3ac178ccbe74e39dd2187448062cfae53e09f1b832b622de0",
        ("pool", "hs"):
            "8577319bb9b25fe620bcb0b205146e7ec080fd29e1ac57936d739640c5aaa5ff",
        # re-recorded when projected Newton replaced SPG in the generalized
        # pool: its residual went 3.4e-9 -> 1.0e-13
        ("pool", "neglog", "--generalized", "--floor", "1e-4"):
            "20d7226e9731be4d27d51094440f6f646848ba89742ffb498a9638b818eced31",
        ("pool", "power:0.5", "--weights", "0,1.25,0,0.5,2,0,0.75,1,3"):
            "a951855f166ceba2e1f691fea173ac6318a3795323582189930d625804f21cfb",
        ("score", "spherical:2"):
            "684059e3088c16030004c82d5fb30ae4d2725ab00403e8976808ccb0e7fd9b73",
        ("bregman", "tsallis:1.5"):
            "f909249968df02c50e48a2edbb97fda63e47424db788a31f218dc67913697a0c",
        ("audit", "hs", "--n", "3", "--samples", "40"):
            "5f0bce55cb54061460dc22f209f0f4f4aadfb5d86b1bf3b8ee50508d6a044867",
        ("probe-exposure", "tsallis:3", "--n", "3", "--samples", "200"):
            "1634a058df3b10bd39d42bc9b61db2178bf88168257139bc180174e31272e121",
        # recorded before the samplers drew in blocks: cycles at n=50 on the
        # open-domain shell, monotonicity pairs at n=2, and an hs probe
        ("audit", "log", "--n", "50", "--samples", "20"):
            "431cba4ee4db698812f10c5a820647e4083273f28fa26f25fa273012e031a054",
        ("audit", "quadratic", "--n", "2", "--samples", "20"):
            "39b246957c8f12e8c6a7df5ddcbd63b23dcf7692af1516b0782739ece91b9a56",
        ("probe-exposure", "hs", "--n", "3", "--samples", "200"):
            "f7ddce0996744e09958705166bb4f2a2f0a03faf8b1ba413b6b3f6bc1551f3c0",
        # recorded before the axiom suite's checks were pooled in two
        # batches and the draws transformed in bulk: the root-find families
        ("audit", "neglog", "--n", "3", "--samples", "20"):
            "949568c7555d4cc1f5211053db681c910ac0e65961ca08f4ab12392f5aef9857",
        ("audit", "power:0.5", "--n", "3", "--samples", "20"):
            "0d77bbbfbc735a8719606bc359a2f3a27b0bc38edafd735231e85d69ff7dd311",
        ("audit", "spherical:2", "--n", "3", "--samples", "20"):
            "525c850ccf65f7b1cd2b6059035b490e7110572da98b441d9d034bdf92a1acfe",
        ("audit", "tsallis:1.5", "--n", "3", "--samples", "20"):
            "cca6708818721393a18d939e5d0bf4cbaf88036a998fe7ffbdb40cb0be4ececc",
        ("probe-exposure", "spherical:2", "--n", "3", "--samples", "50"):
            "c8285d8bab85cf4d435f835f188aaee6ff29e5ffc0513d3af2318e430771ad42",
    }

    # sha256 of the `pool RULE FILE --out OUT` file, recorded before forecast
    # files were loaded as arrays and re-recorded once when the sums left
    # BLAS and once when they became in-order left folds (the nine-expert
    # weight total moved); the written pool is result.pooled bit for bit
    PINNED_OUT = {
        "quadratic": "7efa8bda715f81e1bd15612e34ffcd80509b532b13c91ce393966937680fe346",
        "hs": "8facf21955eb7573b922407ea58660e15da97a3fe4ca2acb2c3798ba42a937a1",
    }

    @staticmethod
    def pinned_experts(tmp_path):
        rng = np.random.default_rng(20261018)
        experts = [
            {"id": f"x{i}", "probs": p, "weight": w}
            for i, (p, w) in enumerate(
                zip(
                    rng.dirichlet(np.ones(4), size=9).tolist(),
                    rng.uniform(0.2, 2.0, size=9).tolist(),
                )
            )
        ]
        path = tmp_path / "experts.json"
        path.write_text(json.dumps({"n": 4, "experts": experts}))
        return str(path)

    @staticmethod
    def pinned_argv(args, path):
        argv = list(args)
        if args[0] in ("pool", "score", "bregman"):
            argv.insert(2, path)
        return argv

    @pytest.mark.parametrize("args", sorted(PINNED), ids=" ".join)
    def test_output_bytes_are_pinned(self, tmp_path, args, capsys, monkeypatch):
        monkeypatch.delenv("QAPOOL_SEED", raising=False)
        assert main(self.pinned_argv(args, self.pinned_experts(tmp_path))) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[args], PIN_NOTE

    @pytest.mark.parametrize("rule", sorted(PINNED_OUT))
    def test_out_file_bytes_are_pinned(self, tmp_path, rule, capsys):
        # the input of test_output_bytes_are_pinned
        path = self.pinned_experts(tmp_path)
        out = tmp_path / "pooled.json"
        assert main(["pool", rule, path, "--out", str(out)]) == 0
        pooled = json.loads(capsys.readouterr().out)["pooled"]
        assert json.loads(out.read_text())["experts"][0]["probs"] == pooled
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_OUT[rule], PIN_NOTE


# runs (argv, written file or None) pairs read as JSON from stdin through
# the CLI in-process; prints each exit code and the sha256 of the file or
# of stdout
PIN_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from qapool.cli import main
for argv, written in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    data = Path(written).read_bytes() if written else out.getvalue().encode()
    print(code, hashlib.sha256(data).hexdigest())
"""


class TestPinsAcrossOpenBlasCores:
    def test_every_core_prints_the_pinned_bytes(self, tmp_path):
        # every pin of TestCmdLearn and TestOutputPins, in one child process
        # per OpenBLAS kernel choice: no pinned byte may depend on the order
        # in which the CPU's BLAS kernel sums
        stream = TestCmdLearn.pinned_stream(tmp_path)
        experts = TestOutputPins.pinned_experts(tmp_path)
        jobs, pins = [], []
        for table in (TestCmdLearn.PINNED, TestCmdLearn.PINNED_ROOT_FIND):
            for args, sha in table.items():
                jobs.append((["learn", args[0], stream, *args[1:]], None))
                pins.append(sha)
        for args, sha in TestCmdLearn.PINNED_CURVE.items():
            jobs.append((["learn", args[0], stream, *args[1:], "--emit-curve", "curve.csv"], "curve.csv"))
            pins.append(sha)
        for args, sha in TestOutputPins.PINNED.items():
            jobs.append((TestOutputPins.pinned_argv(args, experts), None))
            pins.append(sha)
        for rule, sha in TestOutputPins.PINNED_OUT.items():
            jobs.append((["pool", rule, experts, "--out", "pooled.json"], "pooled.json"))
            pins.append(sha)
        try:
            from numpy._core._multiarray_umath import __cpu_features__ as cpu
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_features__ as cpu

        # Haswell's kernels need AVX2 and FMA; forcing them elsewhere would crash
        haswell = cpu.get("AVX2") and cpu.get("FMA3")
        cores = [None, "Prescott"] + (["Haswell"] if haswell else [])
        children = []
        for core in cores:
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "QAPOOL_SEED")}
            env["PYTHONPATH"] = str(Path(qapool.__file__).parents[1])
            if core is not None:
                env["OPENBLAS_CORETYPE"] = core
            workdir = tmp_path / str(core)
            workdir.mkdir()
            child = subprocess.Popen(
                [sys.executable, "-c", PIN_CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, env=env, cwd=workdir,
            )
            children.append((core, child))
        done = [(core, child, *child.communicate(json.dumps(jobs), timeout=120)) for core, child in children]
        for core, child, out, err in done:
            assert child.returncode == 0, err
            assert out.splitlines() == [f"0 {sha}" for sha in pins], core


class TestParserReuse:
    def test_consecutive_commands_share_one_parser(
        self, forecasts_json, capsys, monkeypatch
    ):
        import qapool.cli as cli

        built, build = [], cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        monkeypatch.delenv("QAPOOL_SEED", raising=False)
        probe = ["probe-exposure", "tsallis:3", "--samples", "20"]
        assert main(["score", "quadratic", forecasts_json]) == 0
        score = capsys.readouterr().out
        assert main(["pool", "quadratic", forecasts_json]) == 0
        assert json.loads(capsys.readouterr().out)["pooled"] == pytest.approx([0.3, 0.7])
        assert main(["pool", "quadratic"]) == 1  # a usage error in between
        assert main(probe) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0
        # QAPOOL_SEED is read when a command runs, not when the parser is built
        monkeypatch.setenv("QAPOOL_SEED", "7")
        assert main(probe) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7
        assert main(["score", "quadratic", forecasts_json]) == 0
        assert capsys.readouterr().out == score
        assert built == [1]
        cli._parser.cache_clear()


# each command and its arguments after the rule; {f} is a forecast file, {s} a stream
COMMANDS = {
    "pool": ["pool", "{f}"], "pool-generalized": ["pool", "{f}", "--generalized"],
    "score": ["score", "{f}"], "bregman": ["bregman", "{f}"], "learn": ["learn", "{s}"],
    "audit": ["audit", "--samples", "5"], "probe-exposure": ["probe-exposure", "--samples", "5"],
}


def certified_or_refused(argv, capsys) -> int:
    """main's exit on argv: 0 with a JSON answer, or 3 with one `qapool:`
    line, never 1; numpy warns of nothing either way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == [] and code in (0, 3), (code, err)
    if code == 0:
        assert json.loads(out) and err == ""
    else:
        assert out == "" and err.startswith("qapool: ") and err.count("\n") == 1
    return code


@pytest.mark.parametrize("c", ["2000", "1e308"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_spherical_underflow_is_certified_or_refused_without_numpy_warning(
    command, c, forecasts_json, stream_json, capsys
):
    # sum p^c underflows to 0 unless the row is divided by its max p first,
    # which G, its gradient and h allow (rules._spherical_sum): every
    # exposure is finite, and an answer is certified or refused as a solver
    # failure, never as a forecast on the boundary
    name, *args = [a.format(f=forecasts_json, s=stream_json) for a in COMMANDS[command]]
    certified_or_refused([name, f"spherical:{c}", *args], capsys)


def test_spherical_pool_of_near_uniform_experts(tmp_path, capsys):
    # no spherical:1000 exposure exceeds 1, though sum p^c underflows at both
    path = tmp_path / "forecasts.json"
    experts = [{"probs": [0.2, 0.3, 0.5]}, {"probs": [0.6, 0.3, 0.1]}]
    path.write_text(json.dumps({"experts": experts}))
    certified_or_refused(["pool", "spherical:1000", str(path)], capsys)


class TestCmdAuditAndProbe:
    def test_audit_spherical_passes(self, capsys):
        assert main(
            ["audit", "spherical:2", "--n", "3", "--samples", "60", "--seed", "1"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True
        assert doc["exposure_probe"]["failures"] == 0

    def test_audit_log_n200_finishes(self):
        # rejection sampling of the open-domain shell {p >= 1e-3} would
        # accept about one Dirichlet draw in 5e19 at n = 200
        env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "qapool.cli", "audit", "log", "--n", "200"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["all_passed"] is True

    def test_audit_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, some 15 ms of a
        # fresh process; the axiom suite groups its cycles without it
        env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
        code = (
            "import sys\n"
            "from qapool.cli import main\n"
            "code = main(['audit', 'quadratic', '--n', '3', '--samples', '20'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_audit_log_n2_monotonicity(self, capsys):
        assert main(["audit", "log", "--n", "2", "--samples", "40"]) == 0
        doc = json.loads(capsys.readouterr().out)
        axioms = {c["name"]: c for c in doc["axioms"]}
        assert axioms["monotonicity_n2"]["passed"]

    def test_audit_tsallis3_reports_canonical_failure(self, capsys):
        assert main(["audit", "tsallis:3", "--n", "3", "--samples", "40"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["convex_exposure"] is False
        assert doc["exposure_probe"]["canonical_vertex_failure"] is True
        skipped = {c["name"]: c for c in doc["checks"]}["axiom_suite"]
        assert "skipped" in skipped.get("note", "")

    @pytest.mark.parametrize("command", ["audit", "probe-exposure"])
    def test_zero_samples_exits_1(self, command, capsys):
        # a check over no draws would report a vacuous pass
        assert main([command, "quadratic", "--samples", "0"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rule", ["quadratic", "log", "hs"])
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_probe_fewer_than_two_outcomes_exits_1(self, rule, n, capsys):
        assert main(["probe-exposure", rule, "--n", n]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qapool: input error: need at least two outcomes\n"

    def test_probe_exposure_command(self, capsys):
        assert main(
            ["probe-exposure", "tsallis:3", "--n", "3", "--samples", "50"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["canonical_vertex_failure"] is True
        assert doc["failures"] > 0
