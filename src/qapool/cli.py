"""Command-line front end.

Subcommands: pool, score, bregman, learn, audit, probe-exposure.  Rule
strings follow the library syntax ("quadratic", "log", "neglog",
"power:0.5", "spherical:2", "tsallis:1.5", "hs").  All results are
emitted as JSON on stdout with sorted keys and shortest round-trip
floats, so identical inputs and seeds produce byte-identical output.

Exit codes: 0 success, 1 usage or input error, 2 mathematical
infeasibility (exposure target out of range), 3 solver non-convergence.
The environment variable QAPOOL_SEED overrides the default for --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, files, learning, pooling
from .errors import ExposureRangeError, QapoolError, SolverError
from .rules import (
    _bregman_matrix,
    _expected,
    _score_matrix,
    has_convex_exposure,
    parse_rule,
)

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message: str):
        raise _UsageError(message)


def _default_seed() -> int:
    env = os.environ.get("QAPOOL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"QAPOOL_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qapool", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("pool", help="pool expert forecasts")
    p.add_argument("rule", help="scoring rule, e.g. quadratic or tsallis:1.5")
    p.add_argument("input", help="forecast file (.json or .csv)")
    p.add_argument(
        "--generalized",
        action="store_true",
        help="minimize weighted Bregman divergence instead of exact inversion",
    )
    p.add_argument(
        "--weights", help="comma-separated expert weights overriding the file"
    )
    p.add_argument(
        "--floor",
        type=float,
        help="interior floor for --generalized with boundary-divergent rules",
    )
    p.add_argument("--out", help="also write the pooled forecast as a forecast file")

    p = sub.add_parser("score", help="score expert forecasts")
    p.add_argument("rule")
    p.add_argument("input")
    p.add_argument(
        "--outcome", type=int, help="score only this outcome (1-based); default all"
    )

    p = sub.add_parser(
        "bregman", help="pairwise Bregman divergences"
    )
    p.add_argument("rule")
    p.add_argument("input")

    p = sub.add_parser(
        "learn", help="learn expert weights online"
    )
    p.add_argument("rule")
    p.add_argument("stream", help="stream file (.json)")
    p.add_argument("--M", type=float, help="exposure norm bound (required for open rules)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--T", type=int, help="horizon; default: whole stream")
    p.add_argument(
        "--floor", type=float, help="forecast clamp for open-domain rules"
    )
    p.add_argument(
        "--emit-curve", help="write a t,cumulative_regret,bound CSV (T rows)"
    )

    p = sub.add_parser(
        "audit", help="run axiom/exposure/concavity checks"
    )
    p.add_argument("rule")
    p.add_argument("--n", type=int, default=3, help="outcome count (default 3)")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser(
        "probe-exposure",
        help="failure rate of exposure-average inversion",
    )
    p.add_argument("rule")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)

    return parser


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _emit(doc: dict) -> None:
    # numpy values go out as the lists and numbers they hold; NaN and
    # infinity have no JSON spelling, so fail rather than emit them
    out = json.dumps(doc, sort_keys=True, allow_nan=False, default=lambda o: o.tolist())
    sys.stdout.write(out + "\n")


def _seed_of(args) -> int:
    return _default_seed() if args.seed is None else args.seed


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_pool(args) -> int:
    rule = parse_rule(args.rule)
    if args.floor is not None and not args.generalized:
        raise _UsageError("--floor applies only with --generalized")
    ff = files.load_forecast_file(args.input)
    weights = ff.weights.tolist()
    if args.weights is not None:
        try:
            weights = [float(x) for x in args.weights.split(",")]
        except ValueError:
            raise _UsageError(f"bad --weights value {args.weights!r}") from None
        if len(weights) != ff.m:
            raise _UsageError(
                f"--weights lists {len(weights)} values for {ff.m} experts"
            )
    # the loaded rows go to pooling as they are, not renormalized again
    inputs = list(zip(ff.forecasts, weights))
    if args.generalized:
        result = pooling.generalized_pool(rule, inputs, floor=args.floor)
    else:
        result = pooling.qa_pool(rule, inputs)
    doc = {
        "rule": rule.label,
        "pooled": result.pooled.probs,
        "total_weight": result.total_weight,
        "residual": result.residual,
        "method": result.method,
        "surplus_report": asdict(analysis._surplus(rule, result.pooled, inputs)),
    }
    if ff.labels is not None:
        doc["labels"] = list(ff.labels)
    if args.out:
        pooled = files.ForecastFile._trusted(
            result.pooled.probs[None], np.array([result.total_weight]), ("pool",), ff.labels
        )
        files.write_forecast_file(pooled, args.out)
    _emit(doc)
    return 0


def _cmd_score(args) -> int:
    rule = parse_rule(args.rule)
    ff = files.load_forecast_file(args.input)
    outcomes = [args.outcome] if args.outcome is not None else list(range(1, ff.n + 1))
    if not all(1 <= j <= ff.n for j in outcomes):
        raise _UsageError(f"--outcome {args.outcome} out of range 1..{ff.n}")
    S = _score_matrix(rule, ff.probs)[:, np.array(outcomes) - 1]
    doc = {
        "rule": rule.label,
        "outcomes": outcomes,
        "experts": [
            {"id": i, "expected_reward": g, "scores": s}
            for i, g, s in zip(ff.ids, _expected(rule, ff.probs), S)
        ],
    }
    _emit(doc)
    return 0


def _cmd_bregman(args) -> int:
    rule = parse_rule(args.rule)
    ff = files.load_forecast_file(args.input)
    D = _bregman_matrix(rule, ff.probs)
    _emit({"rule": rule.label, "experts": list(ff.ids), "divergence": D})
    return 0


def _cmd_learn(args) -> int:
    rule = parse_rule(args.rule)
    sf = files.load_stream_file(args.stream)
    config = learning.LearningConfig(
        rule=rule,
        m=sf.m,
        M=args.M,
        seed=_seed_of(args),
        T=args.T,
        forecast_floor=args.floor,
    )
    report = learning.ogd_run(config, sf)
    if args.emit_curve:
        curve, bound = report.regret_curve().tolist(), report.bound_curve().tolist()
        with open(args.emit_curve, "w", newline="") as fh:
            csv.writer(fh).writerows(zip(range(1, report.T + 1), curve, bound))
    _emit(
        {
            "rule": rule.label,
            "m": config.m,
            "T": report.T,
            "seed": config.seed,
            "per_step_loss": report.per_step_loss,
            "best_weights": report.best_weights.weights,
            "best_fixed_loss": report.best_fixed_loss,
            "cumulative_regret": report.cumulative_regret,
            "bound": report.bound,
            "exposure_bound": report.exposure_bound,
            "observed_exposure_sup": report.observed_exposure_sup,
            "exposure_bound_exceeded": report.exposure_bound_exceeded,
            "final_weights": report.final_weights.weights,
        }
    )
    return 0


def _cmd_audit(args) -> int:
    rule = parse_rule(args.rule)
    seed = _seed_of(args)
    convex = has_convex_exposure(rule, args.n)
    checks: list[dict] = []
    doc: dict = {"rule": rule.label, "n": args.n, "seed": seed, "convex_exposure": convex}

    probe = analysis.exposure_probe(rule, args.n, args.samples, seed)
    doc["exposure_probe"] = {
        "failures": probe.failures,
        "failure_rate": probe.failure_rate,
        "solver_failures": probe.solver_failures,
        "canonical_vertex_failure": probe.canonical_vertex_failure,
    }
    if convex:
        probe_ok = probe.failures == 0 and probe.solver_failures == 0
        probe_note = "no inversion failures expected for convex exposure"
    else:
        probe_ok = bool(probe.canonical_vertex_failure)
        probe_note = "probe must detect the vertex-pair failure"
    checks.append({"name": "exposure_probe", "passed": probe_ok, "note": probe_note})

    if convex:
        axioms = analysis.axiom_suite(rule, args.n, args.samples, seed)
        doc["axioms"] = [
            {
                "name": c.name,
                "passed": c.passed,
                "worst_gap": c.worst_gap,
                "tolerance": c.tolerance,
            }
            for c in axioms.checks
        ]
        checks.append({"name": "axiom_suite", "passed": axioms.all_passed})
        conc = analysis.concavity_probe(rule, args.n, args.samples, seed)
        doc["concavity"] = {"worst_gap": conc.worst_gap, "tolerance": conc.tolerance}
        checks.append({"name": "concavity", "passed": conc.passed})
    else:
        checks.append(
            {
                "name": "axiom_suite",
                "passed": True,
                "note": "skipped: rule lacks convex exposure at this n",
            }
        )
    doc["checks"] = checks
    doc["all_passed"] = all(c["passed"] for c in checks)
    _emit(doc)
    return 0 if doc["all_passed"] else 1


def _cmd_probe(args) -> int:
    rule = parse_rule(args.rule)
    probe = analysis.exposure_probe(rule, args.n, args.samples, _seed_of(args))
    _emit({**asdict(probe), "failure_rate": probe.failure_rate})
    return 0


_COMMANDS = {
    "pool": _cmd_pool,
    "score": _cmd_score,
    "bregman": _cmd_bregman,
    "learn": _cmd_learn,
    "audit": _cmd_audit,
    "probe-exposure": _cmd_probe,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one per process: building it takes about 1 ms, as long as a small command
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"qapool: error: {e}", file=sys.stderr)
        return 1
    except ExposureRangeError as e:
        print(f"qapool: {e} (the generalized pool via --generalized always exists)",
              file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"qapool: solver failure: {e}", file=sys.stderr)
        return 3
    except QapoolError as e:  # ConfigError, DomainError, DegenerateError
        print(f"qapool: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"qapool: input error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
