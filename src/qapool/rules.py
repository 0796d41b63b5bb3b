"""Proper scoring rule families and their basic functionals.

Each rule is identified by its expected-reward function G (strictly
convex on the rule's forecast domain).  From G everything else follows:

* exposure  g = grad G, reported modulo the all-ones direction as a
  sum-zero vector (the outcome-dependent part of the score),
* score     s(p; j) = G(p) + <g(p), e_j - p>  (tangent-plane height),
* Bregman   D(p || q) = G(p) - G(q) - <g(q), p - q>.

Implemented families (config-string syntax in parentheses):

    quadratic        G = sum p_j^2                      g = 2 p
    log              G = sum p_j ln p_j                 g = ln p + 1
    neglog           G = -sum ln p_j                    g = -1/p
    power:c          G = -sum p_j^c  (0 < c < 1)        g = -c p^(c-1)
                     G = +sum p_j^c  (c < 0)            g = +c p^(c-1)
    spherical:a      G = (sum p_j^a)^(1/a), a > 1
    tsallis:c        G = sum p_j^c,  c > 1              g = c p^(c-1)
    hs               G = -prod p_j^(1/n)                g_j = G/(n p_j)

Rules whose exposure norm diverges at the simplex boundary (log, neglog,
power, hs) are defined on the open simplex; the rest on the closed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .simplex import canonicalize

__all__ = [
    "Forecast",
    "RuleSpec",
    "ExposureVector",
    "as_forecast",
    "parse_rule",
    "expected_reward",
    "exposure",
    "score",
    "bregman",
    "has_convex_exposure",
    "exposure_norm_bound",
    "OPEN_DOMAIN_FAMILIES",
    "FAMILIES",
]

FAMILIES = ("quadratic", "log", "neglog", "power", "spherical", "tsallis", "hs")
OPEN_DOMAIN_FAMILIES = frozenset({"log", "neglog", "power", "hs"})

SIMPLEX_ATOL = 1e-9
# smallest admissible coordinate on the open simplex; inputs are rejected,
# never clipped, below this
OPEN_MIN = 1e-300


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Forecast:
    """A probability distribution over n >= 2 outcomes.

    Entries must be nonnegative and sum to 1 within 1e-9; the stored
    vector is renormalized to sum to 1 exactly (up to rounding).
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("forecast needs at least two outcome probabilities")
        if not np.all(np.isfinite(p)):
            raise ValueError("forecast probabilities must be finite")
        if np.any(p < 0.0):
            raise ValueError("forecast probabilities must be nonnegative")
        total = p.sum()
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-9")
        object.__setattr__(self, "probs", _freeze(p / total))

    @property
    def n(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n: int) -> "Forecast":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def one_hot(cls, n: int, j: int) -> "Forecast":
        """Point mass on outcome j (1-based)."""
        if not 1 <= j <= n:
            raise IndexError(f"outcome {j} out of range 1..{n}")
        p = np.zeros(n)
        p[j - 1] = 1.0
        return cls(p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Forecast):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"Forecast({np.array2string(self.probs, separator=', ')})"


def as_forecast(value) -> Forecast:
    """Coerce a Forecast or array-like of probabilities to a Forecast."""
    if isinstance(value, Forecast):
        return value
    return Forecast(np.asarray(value, dtype=float))


@dataclass(frozen=True, eq=False)
class ExposureVector:
    """A value of the exposure map, canonicalized to sum to zero.

    Raw gradients that differ by a multiple of the all-ones vector
    canonicalize to the same ExposureVector.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("exposure vector needs at least two coordinates")
        object.__setattr__(self, "coords", _freeze(canonicalize(c)))

    @property
    def n(self) -> int:
        return self.coords.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExposureVector):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)

    def __repr__(self) -> str:
        return f"ExposureVector({np.array2string(self.coords, separator=', ')})"


@dataclass(frozen=True)
class RuleSpec:
    """A proper scoring rule family plus its parameter, if any."""

    family: str
    param: float | None = None
    domain_kind: str = field(init=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown scoring rule family {self.family!r}")
        p = self.param
        if self.family == "spherical":
            if p is None or not p > 1.0:
                raise ConfigError("spherical rule requires parameter > 1")
        elif self.family == "tsallis":
            if p is None or not p > 1.0:
                raise ConfigError("tsallis rule requires parameter > 1")
        elif self.family == "power":
            if p is None or not (p < 0.0 or 0.0 < p < 1.0):
                raise ConfigError(
                    "power rule requires parameter in (0, 1) or below 0"
                )
        elif p is not None:
            raise ConfigError(f"{self.family} rule takes no parameter")
        kind = "open" if self.family in OPEN_DOMAIN_FAMILIES else "closed"
        object.__setattr__(self, "domain_kind", kind)

    @classmethod
    def quadratic(cls) -> "RuleSpec":
        return cls("quadratic")

    @classmethod
    def logarithmic(cls) -> "RuleSpec":
        return cls("log")

    @classmethod
    def neglog(cls) -> "RuleSpec":
        return cls("neglog")

    @classmethod
    def power(cls, gamma: float) -> "RuleSpec":
        return cls("power", gamma)

    @classmethod
    def spherical(cls, alpha: float = 2.0) -> "RuleSpec":
        return cls("spherical", alpha)

    @classmethod
    def tsallis(cls, gamma: float) -> "RuleSpec":
        return cls("tsallis", gamma)

    @classmethod
    def hs(cls) -> "RuleSpec":
        return cls("hs")

    @property
    def label(self) -> str:
        if self.param is None:
            return self.family
        return f"{self.family}:{self.param:g}"

    def __str__(self) -> str:
        return self.label


def parse_rule(text: str) -> RuleSpec:
    """Parse a config string like "quadratic", "power:0.5", "tsallis:1.5"."""
    name, sep, arg = text.strip().partition(":")
    if name not in FAMILIES:
        raise ConfigError(
            f"unknown rule {text!r}; expected one of "
            + ", ".join(FAMILIES)
            + " (parameterized families take a ':<value>' suffix)"
        )
    if not sep:
        return RuleSpec(name)
    try:
        param = float(arg)
    except ValueError:
        raise ConfigError(f"bad parameter {arg!r} in rule {text!r}") from None
    return RuleSpec(name, param)


# --------------------------------------------------------------------------
# raw functionals per family
# --------------------------------------------------------------------------

def _check_domain(rule: RuleSpec, p: Forecast) -> None:
    if rule.domain_kind == "open" and p.probs.min() < OPEN_MIN:
        raise DomainError(
            f"rule {rule.label} is defined on the open simplex; "
            "got a zero (or sub-representable) probability"
        )


def _expected(rule: RuleSpec, p: np.ndarray):
    """G over the last axis of a (..., n) array of forecasts."""
    fam = rule.family
    if fam == "quadratic":
        return (p * p).sum(axis=-1)
    if fam == "log":
        return (p * np.log(p)).sum(axis=-1)
    if fam == "neglog":
        return -np.log(p).sum(axis=-1)
    if fam == "power":
        g = rule.param
        sign = -1.0 if 0.0 < g < 1.0 else 1.0
        return sign * np.power(p, g).sum(axis=-1)
    if fam == "spherical":
        a = rule.param
        return np.power(p, a).sum(axis=-1) ** (1.0 / a)
    if fam == "tsallis":
        return np.power(p, rule.param).sum(axis=-1)
    if fam == "hs":
        return -np.exp(np.log(p).sum(axis=-1) / p.shape[-1])
    raise AssertionError(fam)


def _gradient(rule: RuleSpec, p: np.ndarray) -> np.ndarray:
    """Raw gradient of G along the last axis of a (..., n) array."""
    fam = rule.family
    if fam == "quadratic":
        return 2.0 * p
    if fam == "log":
        return np.log(p) + 1.0
    if fam == "neglog":
        return -1.0 / p
    if fam == "power":
        g = rule.param
        sign = -1.0 if 0.0 < g < 1.0 else 1.0
        return sign * g * np.power(p, g - 1.0)
    if fam == "spherical":
        a = rule.param
        s = np.power(p, a).sum(axis=-1, keepdims=True)
        return s ** (1.0 / a - 1.0) * np.power(p, a - 1.0)
    if fam == "tsallis":
        g = rule.param
        return g * np.power(p, g - 1.0)
    if fam == "hs":
        n = p.shape[-1]
        geo = np.exp(np.log(p).sum(axis=-1, keepdims=True) / n)
        return -geo / (n * p)
    raise AssertionError(fam)


def _score_rows(rule: RuleSpec, p: np.ndarray, j0) -> np.ndarray:
    """Scores of the rows of a (k, n) forecast array at 0-based outcomes j0."""
    g = _gradient(rule, p)
    g -= g.sum(axis=1, keepdims=True) / p.shape[1]
    return _expected(rule, p) + g[np.arange(p.shape[0]), j0] - (g * p).sum(axis=1)


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def expected_reward(rule: RuleSpec, forecast) -> float:
    """G(p): the expected score of a truthful expert who believes p."""
    p = as_forecast(forecast)
    _check_domain(rule, p)
    return float(_expected(rule, p.probs))


def exposure(rule: RuleSpec, forecast) -> ExposureVector:
    """The gradient of G at p, canonicalized to the sum-zero hyperplane."""
    p = as_forecast(forecast)
    _check_domain(rule, p)
    return ExposureVector(_gradient(rule, p.probs))


def score(rule: RuleSpec, forecast, j: int) -> float:
    """s(p; j): reward for reporting p when outcome j (1-based) occurs.

    Computed from the tangent plane of G at p; invariant to the choice
    of gradient representative because e_j - p sums to zero.
    """
    p = as_forecast(forecast)
    _check_domain(rule, p)
    if not 1 <= j <= p.n:
        raise IndexError(f"outcome {j} out of range 1..{p.n}")
    g = canonicalize(_gradient(rule, p.probs))
    return _expected(rule, p.probs) + g[j - 1] - float(np.dot(g, p.probs))


def bregman(rule: RuleSpec, forecast_p, forecast_q) -> float:
    """D(p || q): expected reward lost by reporting q under belief p."""
    p = as_forecast(forecast_p)
    q = as_forecast(forecast_q)
    if p.n != q.n:
        raise ValueError("forecasts have different outcome counts")
    _check_domain(rule, p)
    _check_domain(rule, q)
    gq = canonicalize(_gradient(rule, q.probs))
    return float(
        _expected(rule, p.probs)
        - _expected(rule, q.probs)
        - np.dot(gq, p.probs - q.probs)
    )


def has_convex_exposure(rule: RuleSpec, n: int) -> bool:
    """Whether the range of the exposure map is convex at dimension n.

    Every continuous proper scoring rule qualifies at n = 2.  For n > 2
    the only implemented family that fails is tsallis with parameter
    above 2.
    """
    if n < 2:
        raise ValueError("need at least two outcomes")
    if n == 2:
        return True
    return not (rule.family == "tsallis" and rule.param > 2.0)


def exposure_norm_bound(rule: RuleSpec, n: int) -> float:
    """Analytic supremum of ||grad G||_2 over the closed simplex.

    Only bounded-exposure families admit one; for the open-domain rules
    the caller must supply a bound of its own (ConfigError otherwise).

    quadratic: ||2p|| peaks at a vertex.  spherical: the raw gradient
    lives on the unit b-sphere, b = a/(a-1); the l2 norm over it peaks
    at the barycenter for a < 2 and at a vertex for a >= 2.  tsallis:
    sum p^(2(c-1)) peaks at a vertex for c >= 1.5, barycenter below.
    """
    if n < 2:
        raise ValueError("need at least two outcomes")
    fam = rule.family
    if fam == "quadratic":
        return 2.0
    if fam == "spherical":
        return float(n ** max(0.0, 1.0 / rule.param - 0.5))
    if fam == "tsallis":
        return float(rule.param * n ** max(0.0, 1.5 - rule.param))
    raise ConfigError(
        f"rule {rule.label} has unbounded exposure on the simplex; "
        "supply an explicit bound"
    )
