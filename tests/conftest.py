"""Shared fixtures: rule rosters and seeded instance samplers."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qapool import RuleSpec

# every implemented family instance used across the suites; all have
# convex exposure at every n
CONVEX_RULES = [
    RuleSpec.quadratic(),
    RuleSpec.logarithmic(),
    RuleSpec.neglog(),
    RuleSpec.power(0.5),
    RuleSpec.power(-1.0),
    RuleSpec.spherical(2.0),
    RuleSpec.spherical(3.0),
    RuleSpec.tsallis(1.5),
    RuleSpec.tsallis(2.0),
    RuleSpec.hs(),
]

# bounded-score rules, safe on the closed simplex
CLOSED_RULES = [
    RuleSpec.quadratic(),
    RuleSpec.spherical(2.0),
    RuleSpec.spherical(3.0),
    RuleSpec.tsallis(1.5),
    RuleSpec.tsallis(2.0),
]

RULE_IDS = [r.label for r in CONVEX_RULES]

# the shift families of the float-path comparisons: the shift exponent p
# at -1, -2, -0.5, 0 (hs), 2 and 6 (spherical), 2 and 10 (tsallis)
SMALL_RULES = [
    RuleSpec.neglog(),
    RuleSpec.hs(),
    RuleSpec.power(0.5),
    RuleSpec.power(-1.0),
    RuleSpec.spherical(2.0),
    RuleSpec.spherical(1.2),
    RuleSpec.tsallis(1.5),
    RuleSpec.tsallis(1.1),
]
SMALL_IDS = [r.label for r in SMALL_RULES]


def sampling_floor(rule: RuleSpec) -> float:
    """Interior shell for open-domain rules, keeping exposure magnitudes
    inside the range where absolute tolerances are float64-meaningful."""
    return 1e-3 if rule.domain_kind == "open" else 0.0


def random_probs(rng: np.random.Generator, n: int, rule: RuleSpec | None = None):
    floor = sampling_floor(rule) if rule is not None else 0.0
    while True:
        p = rng.dirichlet(np.ones(n))
        if p.min() >= floor:
            return p


def random_instance(rng: np.random.Generator, rule: RuleSpec, n: int, m: int):
    """A list of (forecast, weight) pairs with positive total weight."""
    inputs = []
    for _ in range(m):
        inputs.append((random_probs(rng, n, rule), float(rng.uniform(0.05, 2.0))))
    return inputs


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
