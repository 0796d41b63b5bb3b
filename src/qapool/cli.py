"""Command-line front end.

Subcommands: pool, score, bregman, learn, audit, probe-exposure.  Rule
strings follow the library syntax ("quadratic", "log", "neglog",
"power:0.5", "spherical:2", "tsallis:1.5", "hs").  All results are
emitted as JSON on stdout with sorted keys and shortest round-trip
floats, so identical inputs and seeds produce byte-identical output.

``_emit`` is the one writer of stdout, and it writes the bytes of
``json.dumps(doc, sort_keys=True, allow_nan=False)``, numpy values taken
as their ``tolist()``.  json spells each float with ``float.__repr__``, at
about 0.6 us a float, most of an n = 50 ``score`` command.  So each
float64 array of at least ``_ORJSON_MIN`` = 16 values is rendered by
orjson, whose shortest round-trip digits (Ryu: Adams, PLDI 2018) are
``repr``'s, and respelled as json spells it: exponents signed and of two
digits at least (``1e-8`` as ``1e-08``, ``1e20`` as ``1e+20``), a value in
[1e-5, 1e-4), which orjson writes in decimal, with an exponent
(``0.0000435`` as ``4.35e-05``), and ``,`` as ``, ``.  json's default hook
puts the string "\0<k>\0" in the k-th array's place, and one regex split
swaps the k sentinels for the arrays after the dump.  A NaN or infinity
(which orjson writes as null), or a string in the document that spells a
sentinel, sends the whole document to json alone, so that its bytes and
its ValueError stay json's.  Other arrays (integer, bool, float32, whose
digits would be float32's, 0-d and short ones) go out as ``tolist()``.
Measured (timeit, CPython 3.11.7, orjson 3.8.3, 2-vCPU x86-64 VM), one
document with one array, json against orjson: 1 float 5.5 against 7.3 us,
10 floats 10.8 against 8.3, 16 floats 13.8 against 8.8, 50 floats 34.4
against 12.9.  An n = 50 ``score`` document takes 0.26 ms instead of
0.60, and a 20,000-step ``learn`` document 3.4 ms instead of 12.0.  The cut
sits above the break-even (about 5 floats), so the documents of short
streams, whose arrays hold a step or an expert each, stay on json.

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
import re
import sys
from dataclasses import asdict

import numpy as np
import orjson

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

# float64 arrays of at least this many values are rendered by orjson, which
# beats json from about 5 floats in a document on (module docstring)
_ORJSON_MIN = 16
# json's spelling of the string "\0<k>\0" that stands in for the k-th one
_SENTINEL = re.compile(r'"\\u0000(\d+)\\u0000"')
# orjson's spelling of float arrays made json's: a value in [1e-5, 1e-4),
# which orjson writes in decimal, matched only at the value's start (after
# "[", "," or "-"), then exponents signed and of two digits at least; each
# rule runs only where its text occurs, since a scan costs about 2 ns a byte
_RESPELL = (
    ("0.0000", re.compile(r"0\.0000(?<=[-,\[]0\.0000)(\d)(\d*)"), r"\1.\2e-05"),
    (".e", re.compile(r"\.e"), "e"),  # 0.00001 -> 1.e-05 -> 1e-05
    ("e", re.compile(r"e(\d)"), r"e+\1"),
    ("e", re.compile(r"e([-+])(\d)(?!\d)"), r"e\g<1>0\2"),
)


def _emit(doc: dict) -> None:
    # numpy values go out as the lists and numbers they hold; NaN and
    # infinity have no JSON spelling, so fail rather than emit them.  A
    # float64 array of at least _ORJSON_MIN values goes out as orjson
    # renders it, respelled as json spells it (module docstring)
    arrays = []

    def default(o):
        if isinstance(o, np.ndarray) and o.dtype == np.float64 and o.size >= _ORJSON_MIN:
            arrays.append(np.ascontiguousarray(o))  # orjson takes C order only
            return f"\0{len(arrays) - 1}\0"
        return o.tolist()

    out = json.dumps(doc, sort_keys=True, allow_nan=False, default=default)
    if arrays:
        parts = _SENTINEL.split(out)
        text = b"\n".join(orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
                          for a in arrays).decode()
        # orjson writes NaN and infinity as null
        if parts[1::2] == [str(k) for k in range(len(arrays))] and "null" not in text:
            for needle, pattern, repl in _RESPELL:
                if needle in text:
                    text = pattern.sub(repl, text)
            parts[1::2] = text.replace(",", ", ").split("\n")
            out = "".join(parts)
        else:  # json's ValueError, or some string in doc spells a sentinel
            out = json.dumps(doc, sort_keys=True, allow_nan=False,
                             default=lambda o: o.tolist())
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
    S = _score_matrix(rule, ff.probs)
    if args.outcome is not None:  # all outcomes keep the rows C-contiguous for _emit
        S = S[:, [args.outcome - 1]]
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

    probe, axioms, conc = analysis._audit(rule, args.n, args.samples, seed)
    doc["exposure_probe"] = {
        "failures": probe.failures,
        "failure_rate": probe.failure_rate,
        "solver_failures": probe.solver_failures,
        "canonical_vertex_failure": probe.canonical_vertex_failure,
    }
    probe_ok, probe_note = probe.verdict(convex)
    checks.append({"name": "exposure_probe", "passed": probe_ok, "note": probe_note})

    if convex:
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
