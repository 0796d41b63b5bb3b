#!/usr/bin/env python3
"""Digest of every benchmark command's output, for comparing two checkouts.

Runs the commands of each perfbench workload for repetitions 0 and 1
in-process through ``qapool.cli.main`` and prints one tab-separated line
per command:

    workload  seed  repetition  argv  exit=CODE  stdout=SHA256  stderr=SHA256

The input directory is masked as ``<work>`` in the argv and in both
streams before hashing, so two checkouts that behave the same print
the same lines:

  python3 scripts/output_digest.py --seeds 1 23 > digest.txt
  python3 scripts/output_digest.py --seeds 1 --workloads cli_mix

With ``--openblas-cores Haswell,Prescott`` the digest is made again in
one child process per named OpenBLAS core (``OPENBLAS_CORETYPE``, set
in the child's environment only) and once with the variable unset; it
prints, prefixed with the core, every line that differs from the unset
run's, and exits 1 if any line differs:

  python3 scripts/output_digest.py --seeds 1 23 --openblas-cores Haswell,Prescott

The program is imported from this checkout's ``src/``; the inputs come
from ``perfbench.inputs``, which is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from qapool import cli  # noqa: E402

REPETITIONS = (0, 1)
MASK = "<work>"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(workload: str, seed: int, rep: int, workdir: Path) -> list[str]:
    """One line per command of one workload repetition, run in ``workdir``."""
    work = str(workdir)
    lines = []
    for op in inputs.WORKLOADS[workload](workdir, seed, rep):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        fields = [
            workload,
            str(seed),
            str(rep),
            " ".join(op.argv).replace(work, MASK),
            f"exit={code}",
            f"stdout={_sha(out.getvalue().replace(work, MASK))}",
            f"stderr={_sha(err.getvalue().replace(work, MASK))}",
        ]
        lines.append("\t".join(fields))
    return lines


def digest_under_core(core: str | None, seeds: list[int], workloads: list[str]) -> list[str]:
    """The digest lines of a child process whose OpenBLAS core is ``core``
    (None: OPENBLAS_CORETYPE unset)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    argv = [sys.executable, __file__, "--seeds", *map(str, seeds), "--workloads", *workloads]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(inputs.WORKLOADS), default=list(inputs.WORKLOADS)
    )
    parser.add_argument(
        "--openblas-cores", metavar="CORE,...", type=lambda text: text.split(","),
        help="compare the digest under each of these OPENBLAS_CORETYPE values with the default",
    )
    args = parser.parse_args(argv)
    if args.openblas_cores:
        default = digest_under_core(None, args.seeds, args.workloads)
        differ = 0
        for core in args.openblas_cores:
            for line, base in zip_longest(digest_under_core(core, args.seeds, args.workloads), default):
                if line != base:
                    differ += 1
                    print(f"{core}\t{line}", flush=True)
        return 1 if differ else 0
    # the CLI reads its default --seed from the environment
    os.environ.pop("QAPOOL_SEED", None)
    for workload in args.workloads:
        for seed in args.seeds:
            for rep in REPETITIONS:
                with tempfile.TemporaryDirectory() as tmp:
                    for line in digest_lines(workload, seed, rep, Path(tmp)):
                        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
