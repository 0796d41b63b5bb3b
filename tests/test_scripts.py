"""Smoke test: the example scripts and the README quick start run end to
end on tiny inputs."""

import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qapool

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(qapool.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_regret_experiment(tmp_path):
    curve = tmp_path / "curve.csv"
    doc = json.loads(run_script("regret_experiment.py", "--T", "50", "--curve", str(curve)))
    assert doc["T"] == 50
    assert doc["cumulative_regret"] <= doc["bound"]
    rows = list(csv.reader(curve.read_text().splitlines()))
    assert [int(t) for t, _, _ in rows] == list(range(1, 51))
    assert float(rows[-1][1]) == pytest.approx(doc["cumulative_regret"], abs=1e-9)
    assert float(rows[-1][2]) == doc["bound"]


def test_rule_audit_matrix():
    out = run_script("rule_audit_matrix.py", "--samples", "5", "--n", "2", "3")
    header, rule_line, *rows = out.splitlines()
    assert header.split()[:2] == ["rule", "n"]
    assert set(rule_line) == {"-"}
    # eleven rules at two outcome counts, none inconsistent with the theory
    assert len(rows) == 22
    assert not any("inconsistent" in r for r in rows)


def test_score_gap_table():
    out = run_script("score_gap_table.py", "--points", "5")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["p", "quadratic_gap", "scaled_log_gap"]
    assert len(rows) == 6
    for p, quad, log in rows[1:]:
        # the quadratic gap s(p; 1) - s(p; 2) is 4p - 2; p is printed rounded
        assert float(quad) == pytest.approx(4.0 * float(p) - 2.0, abs=1e-5)
        assert abs(float(log)) < 10.0


def test_output_digest():
    # cli_mix, and learn_rootfind: every root-find family's online loop
    args = ("--seeds", "1", "--workloads", "cli_mix", "learn_rootfind")
    out = run_script("output_digest.py", *args)
    lines = out.splitlines()
    commands = {"cli_mix": ("pool", "score", "bregman", "probe-exposure", "audit"),
                "learn_rootfind": ("learn",)}
    for line in lines:
        workload, seed, rep, argv, code, stdout, stderr = line.split("\t")
        assert workload in commands and seed == "1" and rep in ("0", "1")
        assert argv.split()[0] in commands[workload]
        assert "/" not in argv.replace("<work>/", "")
        assert code in (("exit=0", "exit=2") if workload == "cli_mix" else ("exit=0",))
        for field, name in ((stdout, "stdout="), (stderr, "stderr=")):
            assert field.startswith(name) and len(field) == len(name) + 64
    assert {tuple(line.split("\t")[:3:2]) for line in lines} == {
        (workload, rep) for workload in commands for rep in ("0", "1")
    }
    learned = {line.split("\t")[3].split()[1] for line in lines if line.startswith("learn")}
    assert learned and all(qapool.parse_rule(rule)._impl.shift for rule in learned)
    assert run_script("output_digest.py", *args) == out


def test_output_digest_across_openblas_cores():
    # nothing differs, so nothing is printed and the script exits 0
    args = ("--seeds", "1", "--workloads", "cli_mix", "--openblas-cores", "Prescott")
    assert run_script("output_digest.py", *args) == ""


def test_readme_quick_start(tmp_path, monkeypatch):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    used = set(re.findall(r"\bqp\.(\w+)", block))
    assert used and used <= set(qapool.__all__), used - set(qapool.__all__)
    # every name README lists as removed is gone from qapool and from
    # each submodule's __all__
    listed = text.split("Removed names and their replacements:", 1)[1].split("\n\n")[1]
    removed = {
        name.rsplit(".", 1)[-1]
        for bullet in listed.replace("\n  ", " ").splitlines()
        if bullet.startswith("* `")
        for name in re.findall(r"`([\w.]+)(?:\([^`]*\))?`", bullet.split(": ", 1)[0])
    }
    assert {"ExpertEntry", "WeightedForecast", "as_weight_vector"} <= removed, removed
    modules = [
        importlib.import_module(f"qapool.{m.name}") for m in pkgutil.iter_modules(qapool.__path__)
    ]
    for name in removed:
        assert not hasattr(qapool, name), name
        assert not any(name in getattr(m, "__all__", ()) for m in modules), name
    stream = [([[0.2, 0.8], [0.6, 0.4]], 2), ([[0.3, 0.7], [0.5, 0.5]], 1)] * 3
    steps = [{"forecasts": fs, "outcome": j} for fs, j in stream]
    (tmp_path / "stream.json").write_text(json.dumps({"steps": steps}))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"stream": stream})


def test_paired_bench(tmp_path):
    # one pair of the shortest workload, this checkout on both sides
    root = SCRIPTS.parent
    out = run_script("paired_bench.py", str(root), str(root), "--workload", "cli_mix",
                     "--pairs", "1", "--seconds", "1")
    doc = json.loads(out.splitlines()[-1])
    assert doc["correct"] and doc["pairs"] == doc["compared"] == 1 and doc["workload"] == "cli_mix"
    assert doc["no_result"] == {"base": 0, "change": 0}
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(doc["metrics"]) == sorted(m["name"] for m in declared)
    for m in doc["metrics"].values():
        assert m["base_q1"] <= m["base_median"] <= m["base_q3"] and m["won"] in (0, 1)

    # stub checkouts: one whose run gives a result line, one whose run dies
    # before printing one, as perfbench does when its speed probe takes no sample
    line = {"correct": True, "metrics": {"run_s": {"value": 1.0, "unit": "s"}}}
    sides = {"good": f"print({json.dumps(line)!r})",
             "dead": 'raise SystemExit("speed probe took no sample")'}
    for name, body in sides.items():
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(body + "\n")
        (tmp_path / name / "BENCHMARK.json").write_text('{"end_to_end": []}')
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "paired_bench.py"), str(tmp_path / "good"),
         str(tmp_path / "dead"), "--workload", "learn_rootfind", "--pairs", "3", "--seconds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1  # a run gave no result, so not every run was correct
    lines = done.stdout.splitlines()
    assert "  runs with no result: base 0, change 3" in lines
    doc = json.loads(lines[-1])
    assert doc["no_result"] == {"base": 0, "change": 3}
    assert doc["compared"] == 0 and not doc["correct"] and doc["metrics"] == {}
    assert done.stderr.count("gave no result") == 3 and "speed probe took no sample" in done.stderr

    # stub checkouts printing fixed metrics.  Against the base's bounds the
    # change's run_s is 30% worse (bound 25%) and its steps_per_s 30% lower
    # (bound 20%, higher is better): both over; cmd_p50_ms is 20% worse,
    # within its 25%, and cmd_tail_ms far better.  A base BENCHMARK.json
    # with no bounds flags nothing; the exit status stays 0 either way.
    values = {"base": {"run_s": 1.0, "steps_per_s": 100.0, "cmd_p50_ms": 1.0, "cmd_tail_ms": 2.0},
              "change": {"run_s": 1.3, "steps_per_s": 70.0, "cmd_p50_ms": 1.2, "cmd_tail_ms": 0.5}}
    directions = {"run_s": "lower", "steps_per_s": "higher", "cmd_p50_ms": "lower",
                  "cmd_tail_ms": "lower"}
    bounds = {"run_s": 0.25, "steps_per_s": 0.2, "cmd_p50_ms": 0.25, "cmd_tail_ms": 0.25}
    for base, bounded in (("bounded", True), ("unbounded", False)):
        for name, side in ((base, "base"), (base + "_change", "change")):
            line = {"correct": True,
                    "metrics": {k: {"value": v, "unit": "s"} for k, v in values[side].items()}}
            declared = [{"name": k, "better": d, **({"bound": bounds[k]} if bounded else {})}
                        for k, d in directions.items()]
            (tmp_path / name / "perfbench").mkdir(parents=True)
            (tmp_path / name / "perfbench" / "run.py").write_text(f"print({json.dumps(line)!r})\n")
            (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": declared}))
        out = run_script("paired_bench.py", str(tmp_path / base), str(tmp_path / (base + "_change")),
                         "--workload", "cli_mix", "--pairs", "2", "--seconds", "1")
        doc = json.loads(out.splitlines()[-1])
        over = {k for k, m in doc["metrics"].items() if m["over_bound"]}
        rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
        assert over == ({"run_s", "steps_per_s"} if bounded else set())
        assert {k for k, row in rows.items() if row.endswith("over_bound")} == over
        for k, m in doc["metrics"].items():
            assert m["bound"] == (bounds[k] if bounded else None)
            assert rows[k].split()[8] == (f"{bounds[k]:.0%}" if bounded else "-")

    # the gain rule: the change wins at least 9 of every 10 pairs and its
    # median beats the base median by more than the base quartile spread.
    # Over 4 pairs, run_s and steps_per_s (higher is better) win every pair
    # by far; cmd_p50_ms wins every pair but by 1.1 against a spread of 2;
    # cmd_tail_ms has the better median but wins only 3 of 4 pairs.
    counted = ("import json, pathlib\n"
               "here = pathlib.Path(__file__).parent\n"
               "runs = json.loads((here / 'runs.json').read_text())\n"
               "k = len(list(here.glob('ran*')))\n"
               "(here / f'ran{k}').touch()\n"
               "print(json.dumps({'correct': True, 'metrics': {name: {'value': v[k], 'unit': 's'}"
               " for name, v in runs.items()}}))\n")
    runs = {"base": {"run_s": [1.0] * 4, "steps_per_s": [100.0] * 4,
                     "cmd_p50_ms": [1.0, 1.0, 3.0, 3.0], "cmd_tail_ms": [2.0] * 4},
            "change": {"run_s": [0.5] * 4, "steps_per_s": [130.0] * 4,
                       "cmd_p50_ms": [0.9] * 4, "cmd_tail_ms": [0.5, 0.5, 0.5, 3.0]}}
    declared = [{"name": k, "better": d} for k, d in directions.items()]
    for side in runs:
        (tmp_path / "gain" / side / "perfbench").mkdir(parents=True)
        (tmp_path / "gain" / side / "perfbench" / "run.py").write_text(counted)
        (tmp_path / "gain" / side / "perfbench" / "runs.json").write_text(json.dumps(runs[side]))
        (tmp_path / "gain" / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": declared}))
    out = run_script("paired_bench.py", str(tmp_path / "gain" / "base"),
                     str(tmp_path / "gain" / "change"), "--workload", "cli_mix", "--pairs", "4",
                     "--seconds", "1")
    doc = json.loads(out.splitlines()[-1])
    gains = {k for k, m in doc["metrics"].items() if m["gain"]}
    rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
    assert gains == {"run_s", "steps_per_s"}
    assert {k for k, row in rows.items() if row.endswith("gain")} == gains
    assert doc["metrics"]["cmd_p50_ms"]["won"] == 4 and doc["metrics"]["cmd_tail_ms"]["won"] == 3
    assert all(m["change_runs"] == runs["change"][k] for k, m in doc["metrics"].items())
