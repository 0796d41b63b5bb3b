#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, one workload.

Runs each checkout's own ``perfbench/run.py --trace 0`` on the same
workload, seed and time budget, ``--pairs`` times, alternating which
checkout goes first, each run in a new process.  For every end-to-end
metric it prints the median of each side, the quartiles of the base
side's runs, how many pairs the change won (by the metric's direction
in the base checkout's BENCHMARK.json), the metric's bound there, and
whether every run passed its output checks.  A metric whose change
median is worse than the base median by more than bound x base median,
in its direction, is flagged ``over_bound`` in the table and the JSON; a
metric with no bound is never flagged.  A metric is flagged ``gain`` when
the change won at least 9 of every 10 compared pairs and its median beats
the base median by more than the base quartile spread (q3 - q1): only
such a gain tells the change from noise.  No flag changes the exit
status.  A run that gives no result line (one whose perfbench process
died, say because its speed probe took no sample) is not correct, and
its pair is left out of the figures; each side's count of such runs is
printed and kept in the JSON as ``no_result``.  The last line, one JSON
object, also lists every compared run's value in pair order:

  python3 scripts/paired_bench.py BASE CHANGE --workload learn_bulk \\
      --pairs 10 --seed 1 --seconds 10

BASE and CHANGE are source checkouts (the parent commit's and the
change's); this script edits none of their files (perfbench writes its
inputs under .perfbench_work/ and removes them).  Exits 0 when every
run was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one untraced perfbench run of a checkout, or None
    (its stderr printed) for a run that gave none."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"paired_bench: {checkout} gave no result:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def declared(checkout: Path) -> dict:
    """Each end-to-end metric's declaration: its direction, "lower" or
    "higher", and its bound, if it has one."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in doc["end_to_end"]}


def summary(base: list, change: list, metrics: dict) -> dict:
    """Per metric: both medians, the base quartiles, the pairs won, the
    bound, whether the change median is worse than it allows, and whether
    the change is a gain (module docstring)."""
    out = {}
    for name in base[0]["metrics"]:
        b = np.array([run["metrics"][name]["value"] for run in base])
        c = np.array([run["metrics"][name]["value"] for run in change])
        lower = metrics.get(name, {}).get("better", "lower") == "lower"
        won = c < b if lower else c > b
        q1, q3 = map(float, np.percentile(b, [25, 75]))
        base_median, change_median = float(np.median(b)), float(np.median(c))
        worse_by = change_median - base_median if lower else base_median - change_median
        bound = metrics.get(name, {}).get("bound")
        out[name] = {
            "unit": base[0]["metrics"][name]["unit"],
            "base_median": base_median,
            "change_median": change_median,
            "base_q1": q1,
            "base_q3": q3,
            "won": int(won.sum()),
            "bound": bound,
            "over_bound": bound is not None and worse_by > bound * base_median,
            "gain": 10 * int(won.sum()) >= 9 * len(b) and -worse_by > q3 - q1,
            "base_runs": b.tolist(),
            "change_runs": c.tolist(),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the checkout to compare against")
    parser.add_argument("change", type=Path, help="the checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        for side in (("base", "change") if pair % 2 == 0 else ("change", "base")):
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
    correct = all(run is not None and run["correct"] for side in runs.values() for run in side)
    # a pair is compared only when both of its runs gave a result
    kept = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b and c]
    metrics = summary(*zip(*kept), declared(sides["base"])) if kept else {}
    no_result = {side: sum(run is None for run in done) for side, done in runs.items()}

    print(f"{args.workload} seed={args.seed} seconds={args.seconds}: {args.pairs} pairs, "
          f"{len(kept)} with both results, every run correct: {'yes' if correct else 'no'}")
    print(f"  runs with no result: base {no_result['base']}, change {no_result['change']}")
    print(f"  {'metric':14s} {'unit':5s} {'base median':>12s} {'change median':>14s} "
          f"{'change':>8s} {'base q1':>12s} {'base q3':>12s} {'won':>7s} {'bound':>6s}")
    for name, m in metrics.items():
        rel = m["change_median"] / m["base_median"] - 1.0 if m["base_median"] else float("nan")
        bound = "-" if m["bound"] is None else f"{m['bound']:.0%}"
        print(f"  {name:14s} {m['unit']:5s} {m['base_median']:12.6g} {m['change_median']:14.6g} "
              f"{rel:+8.1%} {m['base_q1']:12.6g} {m['base_q3']:12.6g} "
              f"{m['won']:>3d}/{len(kept):<3d} {bound:>6s}"
              + "".join(f"  {flag}" for flag in ("over_bound", "gain") if m[flag]))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "pairs": args.pairs, "compared": len(kept), "no_result": no_result,
                      "correct": correct, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
