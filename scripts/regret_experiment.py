#!/usr/bin/env python3
"""Online weight-learning experiment on synthetic forecast streams.

Builds a stream of expert forecasts plus realized outcomes, runs
projected online gradient descent over the expert weights, and reports
cumulative regret against the best fixed weights in hindsight, next to
the theoretical ceiling 3 sqrt(m) M sqrt(T).

Stream kinds:
  iid          expert 1 reports the true outcome distribution every
               step, the others report Dirichlet noise
  adversarial  outcomes are picked against the learner's own pool,
               step by step

Example:
  python scripts/regret_experiment.py --kind adversarial --T 10000 \
      --experts 5 --outcomes 3 --curve regret.csv
"""

import argparse
import csv
import json
import sys

import numpy as np

from qapool import (
    LearningConfig,
    loss_gradient,
    ogd_run,
    parse_rule,
    weight_score,
)
from qapool.simplex import project_simplex, uniform_point


def iid_stream(rng, T, m, n):
    truth = rng.dirichlet(np.ones(n) * 5.0)
    steps = []
    for _ in range(T):
        fs = [truth] + [rng.dirichlet(np.ones(n)) for _ in range(m - 1)]
        steps.append((fs, 1 + int(rng.choice(n, p=truth))))
    return steps


def adversarial_stream(rng, T, m, n, rule, M):
    w = uniform_point(m)
    steps = []
    for t in range(T):
        fs = [rng.dirichlet(np.ones(n) * 0.5) for _ in range(m)]
        # replay the learner to find its most painful outcome
        losses = [-weight_score(rule, fs, w, j) for j in range(1, n + 1)]
        j = 1 + int(np.argmax(losses))
        steps.append(([f.copy() for f in fs], j))
        grad = loss_gradient(rule, fs, w, j)
        w = project_simplex(w - grad / (M * np.sqrt(m * (t + 1))))
    return steps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rule", default="quadratic")
    parser.add_argument("--kind", choices=["iid", "adversarial"], default="iid")
    parser.add_argument("--T", type=int, default=10_000)
    parser.add_argument("--experts", type=int, default=5)
    parser.add_argument("--outcomes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--M", type=float, help="exposure bound (open-domain rules)")
    parser.add_argument("--curve", help="write t,regret,bound CSV here")
    args = parser.parse_args()

    rule = parse_rule(args.rule)
    rng = np.random.default_rng(args.seed)
    if args.kind == "iid":
        stream = iid_stream(rng, args.T, args.experts, args.outcomes)
    else:
        from qapool import exposure_norm_bound

        M = args.M if args.M is not None else exposure_norm_bound(rule, args.outcomes)
        stream = adversarial_stream(rng, args.T, args.experts, args.outcomes, rule, M)

    config = LearningConfig(
        rule=rule, m=args.experts, M=args.M, seed=args.seed, T=args.T
    )
    report = ogd_run(config, stream)

    if args.curve:
        curve, bound = report.regret_curve().tolist(), report.bound_curve().tolist()
        with open(args.curve, "w", newline="") as fh:
            csv.writer(fh).writerows(zip(range(1, report.T + 1), curve, bound))

    print(
        json.dumps(
            {
                "rule": rule.label,
                "kind": args.kind,
                "T": report.T,
                "m": args.experts,
                "cumulative_regret": report.cumulative_regret,
                "bound": report.bound,
                "regret_over_bound": report.cumulative_regret / report.bound,
                "best_weights": [float(x) for x in report.best_weights.weights],
                "final_weights": [float(x) for x in report.final_weights.weights],
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
