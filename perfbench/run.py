#!/usr/bin/env python3
"""Benchmark of the qapool CLI: three seeded workloads, timed end to end,
plus a separate traced run that reports time and calls per layer.

One client in one process, no threads, closed loop: each command runs
in-process through ``qapool.cli.main()`` and the next is issued only after
it returns.  Every command's exit code and output are checked.

  python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 30 [--trace 1]
  python3 perfbench/run.py --record-reference

The last line of a workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.  Run from a source checkout: the program is imported
from ``src/``, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, speed, tracing  # noqa: E402

# reference values are recorded on the inputs of this seed, repetition 0;
# running them is also the warm-up before timing
REF_SEED = 20210214
SETUP_RUNS = 7
SETUP_EVERY_S = 2.0
TAIL_BEYOND = 10

END_TO_END = (
    ("run_s", "s"),
    ("steps_per_s", "1/s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span label, field); read per traced repetition
PER_LAYER_SPANS = (
    ("files.load_stream_file.s", "s", "files.load_stream_file", "s"),
    ("files.load_forecast_file.s", "s", "files.load_forecast_file", "s"),
    ("files.load_forecast_file.calls", "count", "files.load_forecast_file", "calls"),
    ("rules.exposure.learning.calls", "count", "rules.exposure@learning", "calls"),
    ("rules.exposure.learning.s", "s", "rules.exposure@learning", "s"),
    ("rules.score.calls", "count", "rules.score", "calls"),
    ("rules.score.s", "s", "rules.score", "s"),
    ("pooling.qa_pool.calls", "count", "pooling.qa_pool", "calls"),
    ("pooling.qa_pool.s", "s", "pooling.qa_pool", "s"),
    ("pooling.qa_pool.raised", "count", "pooling.qa_pool", "raised"),
    ("pooling.invert_exposure.calls", "count", "pooling.invert_exposure", "calls"),
    ("pooling.invert_exposure.s", "s", "pooling.invert_exposure", "s"),
    ("pooling.invert_exposure.raised", "count", "pooling.invert_exposure", "raised"),
    ("pooling.generalized_pool.s", "s", "pooling.generalized_pool", "s"),
    ("optim.projected_gradient.learning.s", "s", "optim.projected_gradient@learning", "s"),
    ("optim.projected_gradient.learning.self_s", "s", "optim.projected_gradient@learning", "self_s"),
    ("optim.projected_gradient.pooling.s", "s", "optim.projected_gradient@pooling", "s"),
    ("optim.projected_gradient.pooling.self_s", "s", "optim.projected_gradient@pooling", "self_s"),
    ("optim.objective_evals", "count", tracing.OBJECTIVE, "calls"),
    ("optim.gradient_evals", "count", tracing.GRADIENT, "calls"),
    ("simplex.project_simplex.calls", "count", "simplex.project_simplex", "calls"),
    ("simplex.project_simplex.s", "s", "simplex.project_simplex", "s"),
    ("simplex.random_simplex_point.calls", "count", "simplex.random_simplex_point", "calls"),
    ("simplex.random_simplex_point.s", "s", "simplex.random_simplex_point", "s"),
    ("learning.ogd_run.s", "s", "learning.ogd_run", "s"),
    ("learning.ogd_run.self_s", "s", "learning.ogd_run", "self_s"),
    ("learning.weight_score.calls", "count", "learning.weight_score", "calls"),
    ("learning.weight_score.s", "s", "learning.weight_score", "s"),
    ("analysis.aggregator_utility.calls", "count", "analysis.aggregator_utility", "calls"),
    ("analysis.aggregator_utility.s", "s", "analysis.aggregator_utility", "s"),
    ("analysis.axiom_suite.s", "s", "analysis.axiom_suite", "s"),
    ("analysis.exposure_probe.s", "s", "analysis.exposure_probe", "s"),
    ("analysis.concavity_probe.s", "s", "analysis.concavity_probe", "s"),
    ("cli.main.s", "s", "cli.main", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)
PER_LAYER_DERIVED = (
    ("optim.evals_per_iter", "ratio"),
    ("trace.run_s", "s"),
    ("trace_overhead", "ratio"),
    ("trace.absent_targets", "count"),
)


class ProgramMissing(Exception):
    pass


def load_cli():
    """Import qapool.cli from this checkout's sources."""
    if not (SRC / "qapool" / "cli.py").is_file():
        raise ProgramMissing(f"no qapool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qapool
    import qapool.cli

    if Path(qapool.__file__).resolve().parent != (SRC / "qapool").resolve():
        raise ProgramMissing(f"imported qapool from {qapool.__file__}, not from {SRC}")
    return qapool.cli


# --------------------------------------------------------------------------
# running operations
# --------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the first few failure reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAILED {op.key}: {'; '.join(problems)}", file=sys.stderr)


def run_op(cli, op) -> tuple[int | None, str, float, float]:
    """Exit code, stdout, and the perf_counter interval the call took."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # a crash fails this op; the benchmark keeps going
            code = None
            traceback.print_exc()
        t1 = time.perf_counter()
    if code is None:
        print(err.getvalue(), file=sys.stderr)
    return code, out.getvalue(), t0, t1


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_rep(cli, workload: str, workdir: Path, seed: int, rep: int, tally: Tally,
            tracer: tracing.Tracer | None = None, reference: dict | None = None,
            record: dict | None = None):
    """One repetition: fresh inputs, every op run and checked.

    Returns [(op, t0, t1)], each op's perf_counter interval.  Results are also compared with ``reference``
    (recorded values by op key) when given, or stored into ``record``.
    """
    ops = inputs.WORKLOADS[workload](fresh_dir(workdir), seed, rep)
    timed = []
    for op in ops:
        if tracer is not None:
            tracer.begin_command(op.key)
        code, out, t0, t1 = run_op(cli, op)
        problems = checks.check(op, code, out)
        if record is not None and not problems:
            record[op.key] = checks.observables(op, out)
        elif reference is not None and not problems:
            if op.key in reference:
                problems = checks.compare(reference[op.key], checks.observables(op, out))
            else:
                problems = ["no recorded reference value"]
        tally.record(op, problems)
        timed.append((op, t0, t1))
    return timed


def durations(reps: list, measure) -> list:
    """[(op, t0, t1)] per repetition -> [(op, measure(t0, t1))]."""
    return [[(op, measure(t0, t1)) for op, t0, t1 in rep] for rep in reps]


def wall(t0: float, t1: float) -> float:
    return t1 - t0


def timed_reps(seconds: float, run_one, between=None) -> list:
    """Run repetitions 0, 1, ... until the next one would end past
    ``seconds``; at least one.  ``between()`` runs after each repetition."""
    t0 = time.perf_counter()
    walls, results = [], []
    while True:
        w0 = time.perf_counter()
        results.append(run_one(len(results)))
        if between is not None:
            between()
        walls.append(time.perf_counter() - w0)
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return results


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

class SetupTimer:
    """Wall time for a fresh interpreter to import qapool.cli and build its
    parser.  Samples are spread over the run (one after a repetition when
    SETUP_EVERY_S has passed) so that they see the machine at different
    moments; the first run, which compiles bytecode, is not measured."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []
        self.last = time.perf_counter()
        self._run()

    def _run(self) -> float:
        cmd = [sys.executable, "-c", "import qapool.cli; qapool.cli.build_parser()"]
        t0 = time.perf_counter()
        subprocess.run(cmd, env=self.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.last = time.perf_counter()
        return self.last - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.samples.append(self._run())

    def median(self) -> float:
        while len(self.samples) < SETUP_RUNS:
            self.samples.append(self._run())
        return statistics.median(self.samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, sample count).  With too few samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(reps: list, setup_s: float) -> tuple[dict, str]:
    rep_s = [sum(dt for _, dt in rep) for rep in reps]
    cmd_s = [dt for rep in reps for _, dt in rep]
    steps = sum(op.data.get("T", 0) for rep in reps for op, _ in rep)
    # cli_mix has no stream: a step there is one command
    work = steps if steps else len(cmd_s)
    value, pct, n = tail(cmd_s)
    metrics = {
        "run_s": statistics.median(rep_s),
        "steps_per_s": work / sum(rep_s),
        "cmd_p50_ms": 1e3 * statistics.median(cmd_s),
        "cmd_tail_ms": 1e3 * value,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = f"{len(reps)} repetitions, cmd_tail_ms is p{pct:.2f} of {n} commands"
    return metrics, note


def per_layer(tracer: tracing.Tracer, traced: list, traced_nominal: list,
              untraced_nominal: list) -> dict:
    """Per-layer metrics per traced repetition.  Span times and
    ``trace.run_s`` are wall times; ``trace_overhead`` compares
    speed-normalized command times of the same repetitions."""
    summary = tracer.summary()
    reps = len(traced)

    def read(label, field):
        return summary.get(label, {}).get(field, 0) / reps

    metrics = {name: read(label, field) for name, _, label, field in PER_LAYER_SPANS}
    grads = metrics["optim.gradient_evals"]
    metrics["optim.evals_per_iter"] = metrics["optim.objective_evals"] / grads if grads else 0.0
    metrics["trace.run_s"] = statistics.median(sum(dt for _, dt in rep) for rep in traced)
    common = min(len(traced_nominal), len(untraced_nominal))
    traced_s, base_s = (sum(dt for rep in reps[:common] for _, dt in rep)
                        for reps in (traced_nominal, untraced_nominal))
    metrics["trace_overhead"] = traced_s / base_s
    metrics["trace.absent_targets"] = len(tracer.absent())
    return metrics


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        cli = load_cli()
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    tally = Tally()
    workdir = WORK / f"{workload}-{os.getpid()}"
    units = dict(END_TO_END)
    try:
        run_rep(cli, workload, workdir, REF_SEED, 0, tally, reference=load_reference(workload))

        def untraced(rep):
            return run_rep(cli, workload, workdir, seed, rep, tally)

        if not trace:
            setup, probe = SetupTimer(), speed.SpeedProbe()

            def sample_setup():
                with probe.paused():
                    setup.maybe_sample()

            with probe:
                reps = timed_reps(seconds, untraced, sample_setup)
            # a child's speed at one moment is not what the probe saw then,
            # but over the run the two drift together: scale by the run's mean
            setup_wall = setup.median()
            setup_s = setup_wall * speed.NOMINAL_BURST_S / probe.mean_cost()
            metrics, note = end_to_end(durations(reps, probe.normalize), setup_s)
            raw, _ = end_to_end(durations(reps, wall), setup_wall)
            note += (f"; times in nominal seconds (speed burst {1e3 * probe.mean_cost():.3f} ms,"
                     f" nominal {1e3 * speed.NOMINAL_BURST_S:.3f} ms); wall: "
                     + ", ".join(f"{k} {raw[k]:.6g}" for k in ("run_s", "cmd_p50_ms",
                                                             "cmd_tail_ms", "setup_s"))
                     + f"; setup_s from {len(setup.samples)} runs")
        else:
            tracer, probe = tracing.Tracer(), speed.SpeedProbe()
            with probe:
                base = timed_reps(seconds / 2, untraced)
                with tracer.installed():
                    traced = timed_reps(seconds / 2, lambda rep: run_rep(
                        cli, workload, workdir, seed, rep, tally, tracer=tracer))
            metrics = per_layer(tracer, durations(traced, wall), durations(traced, probe.normalize),
                                durations(base, probe.normalize))
            units = {m[0]: m[1] for m in PER_LAYER_SPANS + PER_LAYER_DERIVED}
            spans_path = OUT / f"trace-{workload}-seed{seed}.npz"
            tracer.save(spans_path)
            note = (f"{len(traced)} traced repetitions; spans in {spans_path.relative_to(ROOT)}; "
                    f"absent targets: {', '.join(tracer.absent()) or 'none'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{workload} seed={seed}: {note}")
    print(f"  ops attempted {tally.attempted}, failed {tally.failed} "
          f"(fail_rate {tally.failed / tally.attempted:.4g})")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak RSS is its own)."""
    worst = 0
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        worst = max(worst, proc.returncode)
    return worst


def record_reference() -> int:
    cli = load_cli()
    recorded = {}
    for workload in inputs.WORKLOADS:
        tally, values = Tally(), {}
        workdir = WORK / f"{workload}-{os.getpid()}"
        try:
            run_rep(cli, workload, workdir, REF_SEED, 0, tally, record=values)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if tally.failed:
            print(f"perfbench: {workload} fails its checks; nothing recorded", file=sys.stderr)
            return 1
        recorded[workload] = values
    # one line per recorded result keeps the file diffable
    blocks = [
        f"{json.dumps(w)}: {{" + ",".join(
            f"\n  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(values.items())
        ) + "\n }"
        for w, values in sorted(recorded.items())
    ]
    REFERENCE.write_text("{\n " + ",\n ".join(blocks) + "\n}\n")
    print(f"recorded {sum(map(len, recorded.values()))} reference results in {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    what.add_argument("--all", action="store_true", help="run every workload in turn")
    what.add_argument("--record-reference", action="store_true",
                      help=f"rewrite {REFERENCE.name} from the current program")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
