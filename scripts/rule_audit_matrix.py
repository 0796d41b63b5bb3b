#!/usr/bin/env python3
"""Cross-rule audit: exposure probes and axiom suites over the roster.

Runs the inversion-failure probe and (where the pooling operator is
total) the axiom suite for each rule family at the requested outcome
counts, and prints one table row per combination.  The probe is judged
as `qapool audit` judges it (ExposureProbeReport.verdict): the tsallis
family above parameter 2 must show the vertex-pair failure at n > 2;
everything else must show zero failures and zero solver failures.
"""

import argparse
import sys

from qapool import (
    axiom_suite,
    exposure_probe,
    has_convex_exposure,
    parse_rule,
)

DEFAULT_ROSTER = [
    "quadratic", "log", "neglog", "power:0.5", "power:-1",
    "spherical:2", "spherical:3", "tsallis:1.5", "tsallis:2", "tsallis:3", "hs",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", nargs="*", default=DEFAULT_ROSTER)
    parser.add_argument("--n", nargs="*", type=int, default=[2, 3, 4])
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = f"{'rule':<14}{'n':>3}  {'convex':<7}{'probe failures':<16}{'axioms':<10}"
    print(header)
    print("-" * len(header))
    bad = 0
    for text in args.rules:
        rule = parse_rule(text)
        for n in args.n:
            convex = has_convex_exposure(rule, n)
            probe = exposure_probe(rule, n, args.samples, args.seed)
            probe_txt = f"{probe.failures}/{probe.samples}"
            if probe.canonical_vertex_failure is not None:
                probe_txt += " +vertex" if probe.canonical_vertex_failure else ""
            # the verdict `qapool audit` gives the probe
            consistent, _ = probe.verdict(convex)
            if convex:
                rep = axiom_suite(rule, n, max(30, args.samples // 5), args.seed)
                axioms = "pass" if rep.all_passed else "FAIL"
                consistent = consistent and rep.all_passed
            else:
                axioms = "n/a"
            if not consistent:
                bad += 1
            print(
                f"{rule.label:<14}{n:>3}  {str(convex):<7}{probe_txt:<16}{axioms:<10}"
                + ("" if consistent else "  <-- inconsistent")
            )
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
