"""Seeded input generator for the benchmark workloads.

Every workload repetition gets its own input set, drawn from
``numpy.random.default_rng([seed, rep, salt])``, so the same seed always
gives byte-identical files and different seeds give different ones.  The
program under test only ever sees the files written here.

Each ``make_*`` function writes its files into ``workdir`` and returns the
list of operations (CLI argument vectors plus what to check about their
output) that one repetition of the workload issues, in order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the seven families plus the non-convex tsallis:3 (n > 2)
FAMILIES = ("quadratic", "log", "neglog", "power:0.5", "spherical:2", "tsallis:1.5", "hs")
ROOTFIND_FAMILIES = ("spherical:2", "tsallis:1.5", "power:0.5", "neglog", "hs")
OPEN_FAMILIES = frozenset({"log", "neglog", "power:0.5", "hs"})

# learn streams: m experts, n outcomes
STREAM_M = 5
STREAM_N = 3
# forecast clamp handed to `learn --floor` for open-domain families; also
# keeps the hindsight problems well enough conditioned that neglog's solver
# evaluation counts do not dominate the latency tail
LEARN_FLOOR = 5e-2
# learn_rootfind: many short streams.  The hindsight solve's evaluation
# count varies by 40-60% from stream to stream, so a run must cover about a
# hundred streams for its time to depend on the code rather than on the
# seed; four streams per repetition keep each repetition near one second.
ROOTFIND_STREAMS = 4
ROOTFIND_T = 10
# learn_bulk: one long stream (20k x 5 x 3 float64 = 2.4 MB)
BULK_T = 20_000

# cli_mix forecast files
SMALL_N, SMALL_M = 3, 2
LARGE_N, LARGE_M = 50, 20
# forecasts are drawn inside the shell {p : min_j p_j >= 1e-3}, the one the
# library samples open-domain rules in (analysis.OPEN_SAMPLING_FLOOR).
# Below it `pool hs` at n=50 fails its own residual certificate (exit 3) on
# about a third of seeds; see perfbench/NOTES.md.
FORECAST_FLOOR = 1e-3
PROBE_SAMPLES = 50
AUDIT_SAMPLES = 20
AUDIT_LARGE_N = 50
# generalized pooling under neglog needs an explicit interior floor; far
# below every generated probability, so the minimizer stays interior
NEGLOG_GENERALIZED_FLOOR = 1e-6
# tsallis:3 inputs are accepted as unattainable only with this margin on
# the simplex constraint (h(0) > 1 means no admissible shift exists)
INFEASIBLE_MARGIN = 1.05


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy.

    ``kind`` selects the output check; ``expect_exit`` is the exit code
    the command must return; ``data`` carries what the check needs to
    know about the inputs (forecasts, weights, stream length, ...).
    """

    key: str
    argv: list[str]
    kind: str
    expect_exit: int = 0
    data: dict = field(default_factory=dict)


def rng_for(seed: int, rep: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, rep, salt])


def _interior(rng: np.random.Generator, n: int, floor: float, size: int) -> np.ndarray:
    """``size`` Dirichlet(1) draws over n outcomes, each with min >= floor."""
    out = np.empty((size, n))
    k = 0
    while k < size:
        p = rng.dirichlet(np.ones(n))
        if p.min() >= floor:
            out[k] = p
            k += 1
    return out


def iid_stream(rng: np.random.Generator, T: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Expert 1 reports the true outcome distribution, the others report
    Dirichlet(1) noise; outcomes (1-based) are drawn from the truth."""
    truth = rng.dirichlet(np.ones(n) * 5.0)
    F = np.empty((T, m, n))
    F[:, 0] = truth
    F[:, 1:] = rng.dirichlet(np.ones(n), size=(T, m - 1))
    J = 1 + rng.choice(n, size=T, p=truth)
    return F, J


def write_stream(path: Path, F: np.ndarray, J: np.ndarray) -> None:
    steps = [{"forecasts": f, "outcome": j} for f, j in zip(F.tolist(), J.tolist())]
    path.write_text(json.dumps({"steps": steps}))


def write_forecasts_json(path: Path, P: np.ndarray, w: np.ndarray) -> None:
    experts = [
        {"id": f"e{i + 1}", "probs": p, "weight": wi}
        for i, (p, wi) in enumerate(zip(P.tolist(), w.tolist()))
    ]
    path.write_text(json.dumps({"n": P.shape[1], "experts": experts}))


def write_forecasts_csv(path: Path, P: np.ndarray, w: np.ndarray) -> None:
    header = [f"o{j + 1}" for j in range(P.shape[1])] + ["weight"]
    rows = [",".join(header)]
    rows += [",".join(repr(x) for x in p + [wi]) for p, wi in zip(P.tolist(), w.tolist())]
    path.write_text("\n".join(rows) + "\n")


def exposure_bound(family: str, n: int, floor: float) -> float:
    """An M with ||canonical exposure||_2 <= M on every clamped forecast.

    ``learn --floor f`` clamps p to max(p, f) and renormalizes, so every
    coordinate is at least f / (1 + n f).  Each bound below is sqrt(n)
    times the largest |g_j| on that shell.
    """
    lo = floor / (1.0 + n * floor)
    if family == "log":
        coord = max(abs(math.log(lo) + 1.0), 1.0)
    elif family == "neglog":
        coord = 1.0 / lo
    elif family.startswith("power:"):
        c = float(family.split(":")[1])
        coord = abs(c) * lo ** (c - 1.0)
    elif family == "hs":
        coord = 1.0 / (n * n * lo)  # geometric mean <= 1/n
    else:
        raise ValueError(f"{family} has a bounded exposure; no --M needed")
    return math.sqrt(n) * coord


def learn_argv(family: str, stream: Path, n: int) -> list[str]:
    argv = ["learn", family, str(stream)]
    if family in OPEN_FAMILIES:
        M = exposure_bound(family, n, LEARN_FLOOR)
        argv += ["--M", repr(M), "--floor", repr(LEARN_FLOOR)]
    return argv


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def make_learn_rootfind(workdir: Path, seed: int, rep: int) -> list[Op]:
    ops = []
    for k in range(ROOTFIND_STREAMS):
        F, J = iid_stream(rng_for(seed, rep, k), ROOTFIND_T, STREAM_M, STREAM_N)
        path = workdir / f"stream{k}.json"
        write_stream(path, F, J)
        for fam in ROOTFIND_FAMILIES:
            ops.append(Op(f"learn {fam} stream{k}", learn_argv(fam, path, STREAM_N),
                          "learn", data={"T": ROOTFIND_T}))
    return ops


def make_learn_bulk(workdir: Path, seed: int, rep: int) -> list[Op]:
    F, J = iid_stream(rng_for(seed, rep), BULK_T, STREAM_M, STREAM_N)
    path = workdir / "bulk.json"
    write_stream(path, F, J)
    return [
        Op(f"learn {fam} bulk", learn_argv(fam, path, STREAM_N), "learn", data={"T": BULK_T})
        for fam in ("quadratic", "log")
    ]


def _infeasible_tsallis3(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two near-vertex forecasts on different outcomes whose tsallis:3
    exposure average no forecast attains (checked here, independently)."""
    while True:
        a, b = rng.choice(SMALL_N, size=2, replace=False)
        P = np.empty((2, SMALL_N))
        for row, top in zip(P, (a, b)):
            eps = rng.uniform(0.001, 0.02, size=SMALL_N)
            eps[top] = 0.0
            row[:] = eps
            row[top] = 1.0 - eps.sum()
        w = rng.uniform(0.3, 0.7, size=2)
        t = (w / w.sum()) @ (3.0 * P**2)
        t -= t.mean()
        if np.sqrt((t - t.min()) / 3.0).sum() > INFEASIBLE_MARGIN:
            return P, w


def make_cli_mix(workdir: Path, seed: int, rep: int) -> list[Op]:
    rng = rng_for(seed, rep)
    files = {}
    for name, n, m in (("small_a.json", SMALL_N, SMALL_M),
                       ("small_b.csv", SMALL_N, SMALL_M),
                       ("large.json", LARGE_N, LARGE_M)):
        P = _interior(rng, n, FORECAST_FLOOR, m)
        w = rng.uniform(0.1, 2.0, size=m)
        path = workdir / name
        (write_forecasts_csv if name.endswith(".csv") else write_forecasts_json)(path, P, w)
        files[name] = (str(path), {"P": P, "w": w})
    P, w = _infeasible_tsallis3(rng)
    bad = workdir / "infeasible.json"
    write_forecasts_json(bad, P, w)
    files["infeasible.json"] = (str(bad), {"P": P, "w": w})
    audit_seed = str(int(rng.integers(0, 2**31)))

    def pool(fam, name, generalized=False, expect_exit=0):
        path, data = files[name]
        argv = ["pool", fam, path]
        if generalized:
            argv.append("--generalized")
            if fam == "neglog":
                argv += ["--floor", repr(NEGLOG_GENERALIZED_FLOOR)]
        kind = "pool_generalized" if generalized else "pool"
        key = f"pool{' --generalized' if generalized else ''} {fam} {name}"
        return Op(key, argv, kind, expect_exit, {"family": fam, **data})

    def on_large(cmd, fam):
        path, data = files["large.json"]
        return Op(f"{cmd} {fam} large.json", [cmd, fam, path], cmd, 0, {"family": fam, **data})

    def probe(fam):
        argv = ["probe-exposure", fam, "--n", str(SMALL_N),
                "--samples", str(PROBE_SAMPLES), "--seed", audit_seed]
        return Op(f"probe-exposure {fam}", argv, "probe", 0, {"family": fam})

    def audit(fam, n):
        argv = ["audit", fam, "--n", str(n), "--samples", str(AUDIT_SAMPLES), "--seed", audit_seed]
        return Op(f"audit {fam} n{n}", argv, "audit", 0, {"family": fam})

    ops = []
    for fam in FAMILIES:
        ops += [
            pool(fam, "small_a.json"),
            pool(fam, "small_b.csv", generalized=True),
            pool(fam, "large.json"),
            on_large("score", fam),
            on_large("bregman", fam),
            probe(fam),
            audit(fam, SMALL_N),
        ]
    ops += [pool(fam, "large.json", generalized=True) for fam in ("quadratic", "spherical:2")]
    ops += [
        pool("tsallis:3", "infeasible.json", expect_exit=2),
        pool("tsallis:3", "infeasible.json", generalized=True),
        on_large("score", "tsallis:3"),
        on_large("bregman", "tsallis:3"),
        probe("tsallis:3"),
        audit("tsallis:3", SMALL_N),
        audit("log", AUDIT_LARGE_N),
    ]
    return ops


WORKLOADS = {
    "learn_rootfind": make_learn_rootfind,
    "learn_bulk": make_learn_bulk,
    "cli_mix": make_cli_mix,
}
