"""Tests of the benchmark itself: input generation, span arithmetic,
wrapper installation, output checks.

    python -m pytest perfbench/tests -q
"""

import io
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import qapool
import qapool.cli
from perfbench import checks, inputs, run, speed, tracing


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    make = inputs.WORKLOADS[workload]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    ops_a = make(dirs[0], 7, 0)
    ops_b = make(dirs[1], 7, 0)
    make(dirs[2], 8, 0)
    assert _files(dirs[0]) == _files(dirs[1])
    assert [op.key for op in ops_a] == [op.key for op in ops_b]
    assert [op.argv[3:] for op in ops_a] == [op.argv[3:] for op in ops_b]
    other = _files(dirs[2])
    assert other.keys() == _files(dirs[0]).keys()
    assert all(other[name] != data for name, data in _files(dirs[0]).items())


def test_repetitions_get_different_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    inputs.make_cli_mix(tmp_path / "a", 7, 0)
    inputs.make_cli_mix(tmp_path / "b", 7, 1)
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_exposure_bound_dominates_clamped_forecasts():
    rng = np.random.default_rng(0)
    n, floor = inputs.STREAM_N, inputs.LEARN_FLOOR
    P = rng.dirichlet(np.ones(n) * 0.05, size=2000)
    P = np.maximum(P, floor)
    P /= P.sum(axis=1, keepdims=True)
    for fam in sorted(inputs.OPEN_FAMILIES):
        g = np.array([checks.gradient(fam, p) for p in P])
        g -= g.mean(axis=1, keepdims=True)
        assert np.linalg.norm(g, axis=1).max() <= inputs.exposure_bound(fam, n, floor)


def test_self_time_of_a_hand_built_span_tree():
    #   0 root        [0, 10]
    #   1   a         [1, 4]
    #   2     a.x     [2, 3]
    #   3   b         [3, 6]    overlaps a: [1, 6] is covered once
    #   4   c         [8, 12]   clipped to the root: [8, 10]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_summary_reads_self_time_and_raised_calls_from_spans():
    t = tracing.Tracer()
    outer = t._wrap(lambda f: f(), "m.f", "m")
    inner = t._wrap(lambda: None, "m.g", "m")

    def boom():
        raise ValueError("x")

    failing = t._wrap(boom, "m.h", "other")
    outer(inner)
    with pytest.raises(ValueError):
        failing()
    s = t.summary()
    assert list(t.parent) == [-1, 0, -1]
    assert s["m.f"]["calls"] == 1
    assert s["m.f"]["s"] == pytest.approx(t.end[0] - t.start[0])
    assert s["m.f"]["self_s"] == pytest.approx(s["m.f"]["s"] - s["m.g"]["s"])
    assert s["m.h"]["raised"] == 1 and s["m.h@other"]["raised"] == 1
    assert s["m.f"]["raised"] == 0


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "qapool" or name.startswith("qapool."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


def _pool(path: Path) -> int:
    with redirect_stdout(io.StringIO()):
        return qapool.cli.main(["pool", "spherical:2", str(path)])


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    P = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    inputs.write_forecasts_json(tmp_path / "f.json", P, np.array([1.0, 2.0]))
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert qapool.rules.score is not before[("qapool.rules", "score")]
        tracer.begin_command("pool")
        assert _pool(tmp_path / "f.json") == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    s = tracer.summary()
    assert s["cli.main"]["calls"] == 1
    assert s["rules.score"]["calls"] == 3 * 3  # n outcomes x (report + 2 experts)
    assert s["pooling.qa_pool@pooling"]["calls"] == 1
    assert tracer.absent() == []
    assert set(tracer.cmd) == {0}


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(qapool.learning, "ogd_run")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert "learning.ogd_run@learning" in tracer.absent()
    assert "cli.main@cli" not in tracer.absent()


def test_tail_is_the_sample_with_ten_above_it():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _pool_op(fam, P, w):
    return inputs.Op("pool", [], "pool", 0, {"family": fam, "P": P, "w": w})


@pytest.mark.parametrize("fam", ["quadratic", "log", "hs"])
def test_pool_check_accepts_the_pool_and_rejects_a_perturbed_one(fam):
    P = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    w = np.array([1.0, 3.0])
    res = qapool.qa_pool(qapool.parse_rule(fam), list(zip(P, w)))
    good = {"pooled": res.pooled.probs.tolist(), "residual": res.residual}
    op = _pool_op(fam, P, w)
    assert checks._CHECKS["pool"](op, good) == []
    bad = dict(good, pooled=(res.pooled.probs + [1e-6, -1e-6, 0.0]).tolist())
    assert checks._CHECKS["pool"](op, bad)


def test_exit_code_mismatch_is_a_failure():
    op = inputs.Op("pool", [], "pool", expect_exit=2)
    assert checks.check(op, 0, '{"pooled": [0.5, 0.5]}')
    assert checks.check(op, 2, "") == []


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_normalization_of_an_interval():
    probe = speed.SpeedProbe()
    probe.at.extend([1.0, 2.0, 5.0])
    probe.cost.extend([0.001, 0.002, 0.001])
    nominal = speed.NOMINAL_BURST_S
    # two bursts inside: their time is removed, their mean cost sets the scale
    assert probe.normalize(0.5, 3.0) == pytest.approx((2.5 - 0.003) * nominal / 0.0015)
    # none inside: the nearest burst on each side sets the scale
    assert probe.normalize(3.0, 4.0) == pytest.approx(1.0 * nominal / 0.0015)


def test_speed_probe_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 5 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(probe.cost) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
