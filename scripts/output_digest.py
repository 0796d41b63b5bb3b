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

The program is imported from this checkout's ``src/``; the inputs come
from ``perfbench.inputs``, which is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(inputs.WORKLOADS), default=list(inputs.WORKLOADS)
    )
    args = parser.parse_args(argv)
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
