"""Smoke test: the example scripts run end to end on tiny inputs."""

import csv
import json
import os
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


def test_regret_experiment():
    doc = json.loads(run_script("regret_experiment.py", "--T", "50"))
    assert doc["T"] == 50
    assert doc["cumulative_regret"] <= doc["bound"]


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
    args = ("--seeds", "1", "--workloads", "cli_mix")
    out = run_script("output_digest.py", *args)
    lines = out.splitlines()
    assert lines
    for line in lines:
        workload, seed, rep, argv, code, stdout, stderr = line.split("\t")
        assert (workload, seed) == ("cli_mix", "1") and rep in ("0", "1")
        assert argv.split()[0] in ("pool", "score", "bregman", "probe-exposure", "audit")
        assert "/" not in argv.replace("<work>/", "")
        assert code in ("exit=0", "exit=2")
        for field, name in ((stdout, "stdout="), (stderr, "stderr=")):
            assert field.startswith(name) and len(field) == len(name) + 64
    assert {line.split("\t")[2] for line in lines} == {"0", "1"}
    assert run_script("output_digest.py", *args) == out
