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

Each family is defined by one record of the table ``_FAMILIES`` below
(see ``_Family`` for its fields); ``RuleSpec`` resolves the record once
and no other code compares family names.  Adding a family means adding
one record there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .simplex import _ordered_dot, _ordered_sum, canonicalize

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
    "FAMILIES",
]

SIMPLEX_ATOL = 1e-9
# smallest admissible coordinate on the open simplex; inputs are rejected,
# never clipped, below this
OPEN_MIN = 1e-300
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


# --------------------------------------------------------------------------
# the family table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """Everything the library knows about one rule family.

    Functions take the rule parameter c (None for families without one).
    G, grad and hess act on the last axis of (..., n) forecast arrays.
    hess is the diagonal h of G's Hessian.  For the separable families
    that is the whole Hessian; for the 1-homogeneous ones (``homogeneous``:
    hs and spherical), whose gradient is constant along rays so that
    H p = 0, the Hessian is diag(h) - (h p)(h p)^T / <p, h p>.  Only this
    module reads hess and homogeneous: _hessian builds H, and
    _tangent_inverse inverts it on the tangent space.  The
    inverse takes a (k, n) array of canonical exposure targets: either a
    ``closed_form`` returning forecasts up to scale (a NaN row for a target
    that no forecast attains), or a ``shift`` for the problem
    pooling._solve_shift solves per row: offsets a, exponents p and q, and
    a bracket [lo, hi] for the shift s with sum_j z_j^p = 1 (sum_j log
    z_j = 0 at p = 0), z = a + s, giving x_j ~ z_j^q.  A NaN upper end
    marks a row that no forecast attains.

    Each inverse has a twin on one row of Python floats, for learning's
    float loop, which makes numpy's operations in numpy's order and so
    gives the same bits.  Beside the closed form, ``float_inverse`` is a
    source template: for n outcomes, straight-line statements on the
    centred targets t0.. that set x0.. to the forecast up to scale, or
    every x to NaN for a row they leave to the numpy path; they call only
    builtins and numpy's exp (the scope's exp, which log applies in place
    to the scope's n-value array buf), so learning's generated kernel runs
    them inline.  Beside the shift, ``float_shift`` sets up
    the problem on one row, which pooling's one-row float solve
    (_float_shift_inverse) inverts; it returns None for a row it leaves to
    the numpy path: one that no forecast attains, and any other its
    docstring names.  pooling._float_inverse hands the learner its
    family's twin, so the learner reads no field here.
    """

    G: Callable
    grad: Callable
    hess: Callable
    homogeneous: bool = False
    open_domain: bool = False
    param: tuple = (lambda c: c is None, "takes no parameter")  # check, message
    bounded: Callable = lambda c: True  # G is finite on the closed simplex
    norm_bound: Callable | None = None  # sup of ||grad G||_2 over the simplex
    convex_exposure: Callable = lambda c: True  # at n > 2; all have it at n = 2
    closed_form: Callable | None = None
    float_inverse: Callable | None = None  # n -> source (see above)
    shift: Callable | None = None
    float_shift: Callable | None = None


_ABOVE_ONE = (lambda c: c is not None and c > 1.0, "requires parameter > 1")


def _quadratic_inverse(T: np.ndarray, c) -> np.ndarray:
    X = 0.5 * T
    X += 1.0 / T.shape[1]
    if not np.minimum.reduce(X, axis=None) >= -1e-12:  # a target outside the range, or NaN
        X[X.min(axis=1) < -1e-12] = np.nan
    return np.maximum(X, 0.0, out=X)


def _log_inverse(T: np.ndarray, c) -> np.ndarray:
    X = T - np.maximum.reduce(T, axis=1, keepdims=True)
    return np.exp(X, out=X)


def _quadratic_inverse_src(n: int) -> str:
    x = [f"x{j}" for j in range(n)]
    return "\n".join([
        f"{', '.join(x)}, = {', '.join(f'0.5 * t{j} + 1.0 / {n}' for j in range(n))},",
        f"if min({', '.join(x)}) < -1e-12:",
        f"    {' = '.join(x)} = nan",
        # 0.5 t_j + 1/n is never -0.0, so this clip is np.maximum's; NaN stays
        *(f"{v} = 0.0 if {v} < 0.0 else {v}" for v in x),
    ])


def _log_inverse_src(n: int) -> str:
    """exp(t - max t), made in place in the scope's n-value array buf:
    the same one-row np.exp as on a list of the values, without building
    an array from a list each step (680 against 950 ns a step at n = 3,
    2-vCPU x86-64 VM, numpy 2.4, CPython 3.11)."""
    t, x = ([f"{a}{j}" for j in range(n)] for a in "tx")
    return (f"top = max({', '.join(t)})\n"
            f"{''.join(f'buf[{j}], ' for j in range(n))}= {', '.join(f'{v} - top' for v in t)},\n"
            f"{', '.join(x)}, = exp(buf, out=buf).tolist()")


def _below_max(T: np.ndarray) -> np.ndarray:
    return T.max(axis=1, keepdims=True) - T


def _below_max_floats(t: list) -> list:
    top = max(t)
    return [top - v for v in t]


def _hs_shift(T: np.ndarray, c):
    # x_j ~ 1/(u_j + d), u = gap below the max, geometric mean of u + d = 1/n
    n = T.shape[1]
    a = n * _below_max(T)
    top = a.max(axis=1)
    lo, hi = np.maximum(0.0, 1.0 - top), 1.0
    # sum_j log(a_j + d) > 0 at d = OPEN_MIN max a / 2 needs max a > OPEN_MIN^(-1/n)
    if np.count_nonzero(top > OPEN_MIN ** (-1.0 / n)):
        # the root lies below that d, so x_min <= d/(max a + d) < OPEN_MIN:
        # such a row's shift is pinned at d, and its pool fails the domain check
        d = 0.5 * OPEN_MIN * top
        below = _ordered_sum(np.log(a + d[:, None])) > 0.0
        lo, hi = np.where(below, d, lo), np.where(below, d, hi)
    return a, 0.0, -1.0, lo, hi


def _hs_shift_floats(t: list, c):
    """_hs_shift on one row; None for a row past the guard, whose pinned
    shift the numpy setup finds."""
    n = len(t)
    a = [n * v for v in _below_max_floats(t)]
    top = max(a)
    if top > OPEN_MIN ** (-1.0 / n):
        return None
    return a, 0.0, -1.0, max(0.0, 1.0 - top), 1.0


def _from_min(T: np.ndarray, scale: float, p: float, q: float, hi: float):
    """Shift problem on [0, hi] for offsets a = (t - min t)/scale, p > 0."""
    a = (T - T.min(axis=1, keepdims=True)) / scale
    with np.errstate(over="ignore"):  # an infinite h0 marks the row unattainable
        h0 = _ordered_sum(a**p)  # already past the constraint at zero shift?
    hi = np.where(h0 >= 1.0, 0.0, hi)
    return a, p, q, 0.0, np.where(h0 > 1.0 + 1e-12, np.nan, hi)


def _from_min_floats(t: list, scale: float, p: float, q: float, hi: float):
    """_from_min on one row; None where its upper end is NaN."""
    low = min(t)
    a = [(v - low) / scale for v in t]
    if p == 2.0:  # numpy's a**2 is a*a
        terms = [v * v for v in a]
    else:
        with np.errstate(over="ignore"):
            terms = (np.array(a) ** p).tolist()
    h0 = -0.0  # -0.0 + x is x: h0 adds in order, as _from_min sums
    for v in terms:
        h0 += v
    if h0 > 1.0 + 1e-12:
        return None
    return a, p, q, 0.0, 0.0 if h0 >= 1.0 else hi


def _spherical_shift(T: np.ndarray, c: float):
    # v + e on the unit b-sphere, v the gap above the min, e in [0, n^(-1/b)]
    b = c / (c - 1.0)
    return _from_min(T, 1.0, b, 1.0 / (c - 1.0), T.shape[1] ** (-1.0 / b))


def _spherical_shift_floats(t: list, c: float):
    b = c / (c - 1.0)
    return _from_min_floats(t, 1.0, b, 1.0 / (c - 1.0), len(t) ** (-1.0 / b))


def _spherical_sum(p: np.ndarray, c: float):
    """p, the (..., 1) sums of p^c over its last axis, and the scales the
    rows were divided by: max p in a row whose sum is zero,
    subnormal or infinite (a near-uniform row at a large c underflows),
    1 in every other, which keeps its bits.  G is 1-homogeneous, its
    gradient 0-homogeneous and h (-1)-homogeneous, so each is the scaled
    row's times scale, 1 and 1/scale; a scaled row's sum lies in [1, n]."""
    s, scale = _ordered_sum(np.power(p, c))[..., None], 1.0
    # every caller passes simplex rows, where sum p^c <= 1 at c > 1, so
    # only the lower end is tested; the mask below keeps both
    if not s.min() >= _TINY:
        scale = np.where((s >= _TINY) & (s < np.inf), 1.0, p.max(axis=-1, keepdims=True))
        p = p / scale
        s = _ordered_sum(np.power(p, c))[..., None]
    return p, s, scale


def _spherical_G(p: np.ndarray, c: float) -> np.ndarray:
    p, s, scale = _spherical_sum(p, c)
    return (scale * s ** (1.0 / c))[..., 0]


def _spherical_grad(p: np.ndarray, c: float) -> np.ndarray:
    p, s, _ = _spherical_sum(p, c)
    return s ** (1.0 / c - 1.0) * np.power(p, c - 1.0)


def _spherical_hess(p: np.ndarray, c: float) -> np.ndarray:
    p, s, scale = _spherical_sum(p, c)
    return (c - 1.0) * s ** (1.0 / c - 1.0) * np.power(p, c - 2.0) / scale


def _hs_G(p: np.ndarray, c) -> np.ndarray:
    return -np.exp(_ordered_sum(np.log(p)) / p.shape[-1])


def _power_sign(c: float) -> float:
    return -1.0 if 0.0 < c < 1.0 else 1.0


_FAMILIES = {
    "quadratic": _Family(
        G=lambda p, c: _ordered_dot(p, p),
        grad=lambda p, c: 2.0 * p,
        hess=lambda p, c: np.full_like(p, 2.0),
        norm_bound=lambda c, n: 2.0,  # ||2p|| peaks at a vertex
        closed_form=_quadratic_inverse,
        float_inverse=_quadratic_inverse_src,
    ),
    "log": _Family(
        G=lambda p, c: _ordered_dot(p, np.log(p)),
        grad=lambda p, c: np.log(p) + 1.0,
        hess=lambda p, c: 1.0 / p,
        open_domain=True,
        closed_form=_log_inverse,
        float_inverse=_log_inverse_src,
    ),
    "neglog": _Family(
        G=lambda p, c: -_ordered_sum(np.log(p)),
        grad=lambda p, c: -1.0 / p,
        hess=lambda p, c: 1.0 / (p * p),
        open_domain=True,
        bounded=lambda c: False,
        # g = -1/x: sum_j 1/(u_j + d) = 1 with u the gap below the max, d in [1, n]
        shift=lambda T, c: (_below_max(T), -1.0, -1.0, 1.0, float(T.shape[1])),
        float_shift=lambda t, c: (_below_max_floats(t), -1.0, -1.0, 1.0, float(len(t))),
    ),
    "power": _Family(
        G=lambda p, c: _power_sign(c) * _ordered_sum(np.power(p, c)),
        grad=lambda p, c: _power_sign(c) * c * np.power(p, c - 1.0),
        hess=lambda p, c: _power_sign(c) * c * (c - 1.0) * np.power(p, c - 2.0),
        open_domain=True,
        param=(
            lambda c: c is not None and (c < 0.0 or 0.0 < c < 1.0),
            "requires parameter in (0, 1) or below 0",
        ),
        bounded=lambda c: c > 0.0,
        # x_j = ((u_j + d)/|c|)^(1/(c-1)), d/|c| in [1, n^(1-c)]
        shift=lambda T, c: (
            _below_max(T) / abs(c), 1.0 / (c - 1.0), 1.0 / (c - 1.0),
            1.0, T.shape[1] ** (1.0 - c),
        ),
        float_shift=lambda t, c: (
            [v / abs(c) for v in _below_max_floats(t)], 1.0 / (c - 1.0), 1.0 / (c - 1.0),
            1.0, len(t) ** (1.0 - c),
        ),
    ),
    "spherical": _Family(
        G=_spherical_G,
        grad=_spherical_grad,
        hess=_spherical_hess,
        homogeneous=True,
        param=_ABOVE_ONE,
        # the raw gradient lives on the unit c/(c-1)-sphere; its l2 norm
        # peaks at the barycenter for c < 2 and at a vertex for c >= 2
        norm_bound=lambda c, n: float(n ** max(0.0, 1.0 / c - 0.5)),
        shift=_spherical_shift,
        float_shift=_spherical_shift_floats,
    ),
    "tsallis": _Family(
        G=lambda p, c: _ordered_sum(np.power(p, c)),
        grad=lambda p, c: c * np.power(p, c - 1.0),
        hess=lambda p, c: c * (c - 1.0) * np.power(p, c - 2.0),
        param=_ABOVE_ONE,
        # sum p^(2(c-1)) peaks at a vertex for c >= 1.5, barycenter below
        norm_bound=lambda c, n: float(c * n ** max(0.0, 1.5 - c)),
        convex_exposure=lambda c: c <= 2.0,
        # x_j = ((v_j + e)/c)^(1/(c-1)), e/c in [0, n^(1-c)]
        shift=lambda T, c: _from_min(
            T, c, 1.0 / (c - 1.0), 1.0 / (c - 1.0), T.shape[1] ** (1.0 - c)
        ),
        float_shift=lambda t, c: _from_min_floats(
            t, c, 1.0 / (c - 1.0), 1.0 / (c - 1.0), len(t) ** (1.0 - c)
        ),
    ),
    "hs": _Family(
        G=_hs_G,
        grad=lambda p, c: _hs_G(p, c)[..., None] / (p.shape[-1] * p),
        hess=lambda p, c: -_hs_G(p, c)[..., None] / (p.shape[-1] * p * p),
        homogeneous=True,
        open_domain=True,
        shift=_hs_shift,
        float_shift=_hs_shift_floats,
    ),
}

FAMILIES = tuple(_FAMILIES)


def _simplex_rows(P: np.ndarray, name: str | None = None) -> np.ndarray:
    """Forecast's checks on every row (last axis) of P, and the rows
    renormalized to sum to one.

    This is the one place forecast rows are checked.  With a ``name``
    ("step", "expert"), an error begins with it and the first index of
    P's leading axis that holds a bad row.
    """
    if np.count_nonzero(~np.isfinite(P)):
        bad, message = ~np.isfinite(P), "forecast probabilities must be finite"
    elif np.count_nonzero(P < 0.0):
        bad, message = P < 0.0, "forecast probabilities must be nonnegative"
    else:
        total = _ordered_sum(P)[..., None]
        bad = abs(total - 1.0) > SIMPLEX_ATOL
        if not np.count_nonzero(bad):
            return P / total
        message = f"probabilities sum to {float(total[bad][0])!r}, not 1 within 1e-9"
    _raise_first_bad(bad, message, name)


def _check_nonnegative(W: np.ndarray, name: str | None = None) -> None:
    """Raise unless every weight in W is finite and nonnegative.

    This is the one place weights are checked for sign.  With a ``name``
    ("expert"), an error names it as _simplex_rows does.
    """
    bad = ~(np.isfinite(W) & (W >= 0.0))
    if np.count_nonzero(bad):
        message = f"weight must be a finite nonnegative real, got {float(W[bad][0])!r}"
        _raise_first_bad(bad, message, name)


def _raise_first_bad(bad: np.ndarray, message: str, name: str | None) -> None:
    # with a name, the message begins with it and the first index of the
    # leading axis that holds a bad entry
    if name is not None:
        k = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
        message = f"{name} {k}: {message}"
    raise ValueError(message)


def _read_only(a: np.ndarray) -> np.ndarray:
    """Make a (fresh) array read-only in place, without a copy."""
    a.flags.writeable = False
    return a


def _outcome(j, n: int) -> int:
    """The 0-based index of outcome j in 1..n; a bool or float is no outcome."""
    if type(j) is not int and not isinstance(j, np.integer):
        raise ValueError(f"outcome must be an integer, got {j!r}")
    if not 1 <= j <= n:
        raise IndexError(f"outcome {j} out of range 1..{n}")
    return int(j) - 1


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
        object.__setattr__(self, "probs", _read_only(_simplex_rows(p)))

    @property
    def n(self) -> int:
        return self.probs.size

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "Forecast":
        """Wrap a row already checked and normalized as above, read-only."""
        f = object.__new__(cls)
        object.__setattr__(f, "probs", _read_only(probs))
        return f

    @classmethod
    def uniform(cls, n: int) -> "Forecast":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def one_hot(cls, n: int, j: int) -> "Forecast":
        """Point mass on outcome j (1-based)."""
        p = np.zeros(n)
        p[_outcome(j, n)] = 1.0
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
        object.__setattr__(self, "coords", _read_only(canonicalize(c)))

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
    _impl: _Family = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown scoring rule family {self.family!r}")
        impl = _FAMILIES[self.family]
        valid, requirement = impl.param
        if not valid(self.param):
            raise ConfigError(f"{self.family} rule {requirement}")
        if self.param is not None and not math.isfinite(self.param):
            raise ConfigError(f"{self.family} rule requires a finite parameter")
        kind = "open" if impl.open_domain else "closed"
        object.__setattr__(self, "domain_kind", kind)
        object.__setattr__(self, "_impl", impl)

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
        # the shortest text that parses back to the parameter, 1 for 1.0
        return f"{self.family}:{repr(float(self.param)).removesuffix('.0')}"

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
# functionals on stacks of forecasts
# --------------------------------------------------------------------------

def _check_domain(rule: RuleSpec, P: np.ndarray) -> None:
    """Reject any forecast in the array P outside the rule's domain."""
    if rule.domain_kind == "open" and P.min() < OPEN_MIN:
        raise DomainError(
            f"rule {rule.label} is defined on the open simplex; "
            "got a zero (or sub-representable) probability"
        )


def _expected(rule: RuleSpec, p: np.ndarray):
    """G over the last axis of a (..., n) array of forecasts."""
    return rule._impl.G(p, rule.param)


def _gradient(rule: RuleSpec, p: np.ndarray) -> np.ndarray:
    """Raw gradient of G along the last axis of a (..., n) array."""
    return rule._impl.grad(p, rule.param)


def _hessian(rule: RuleSpec, x: np.ndarray) -> np.ndarray:
    """G's (n, n) Hessian at the point x: diag(h), less (h x)(h x)^T /
    <x, h x> for the 1-homogeneous families (_Family).  At a boundary
    coordinate where G has no second derivative (h not finite at x_j = 0),
    h_j is taken as 0, so that the coordinate can still leave the
    boundary; the caller decides which floating-point errors numpy
    reports."""
    h = rule._impl.hess(x, rule.param)
    h[(x == 0.0) & ~np.isfinite(h)] = 0.0
    H = np.diag(h)
    if rule._impl.homogeneous:
        v = h * x
        H -= np.multiply.outer(v, v) / _ordered_dot(x, v)
    return H


def _tangent_inverse(rule: RuleSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The derivative J = dx/dt of the inverse exposure map at the pools on
    the last axis of X, as (d, pi) with J = (I - pi 1^T) diag(d) (I - 1 pi^T).

    J inverts G's Hessian H on the tangent space: H dx = dt + (dlam) 1
    with sum dx = 0.  With d = 1/h, the separable families (H = diag(h))
    give J = D - d d^T / sum d, which is that form at pi = d / sum d; the
    1-homogeneous families (H x = 0) give it at pi = x.  A coordinate
    where h is 0 or not finite (a pool on the boundary, where G has no
    second derivative) is held fixed: its d is 0.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = rule._impl.hess(X, rule.param)
        d = np.divide(1.0, h, out=np.zeros_like(h), where=(h > 0.0) & (h < np.inf))
        if rule._impl.homogeneous:
            return d, X
        return d, d / _ordered_sum(d)[..., None]


def _exposures(rule: RuleSpec, P: np.ndarray) -> np.ndarray:
    """Canonical exposures of the forecasts on the last axis of P.

    A forecast in the domain whose exposure overflows float64 (power
    with a negative parameter, near the boundary) is a DomainError.
    """
    _check_domain(rule, P)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused by _finite
        return _finite(rule, canonicalize(_gradient(rule, P)), P)


def _finite(rule: RuleSpec, v, P: np.ndarray, what: str = "exposure"):
    """v, the values at forecasts P, unless one is not finite: then a
    DomainError naming P's least probability and the parameter."""
    if not np.isfinite(v).all():
        param = "" if rule.param is None else f", or the parameter {rule.param:g} is too extreme,"
        raise DomainError(
            f"rule {rule.label}: a forecast whose least probability is {P.min():.3g} lies "
            f"too close to the simplex boundary{param} for its {what} to be finite"
        )
    return v


def _score_matrix(rule: RuleSpec, P: np.ndarray) -> np.ndarray:
    """S[i, j-1] = s(p_i; j) for the rows p_i of a (k, n) forecast array.

    The tangent-plane height G(p) + <g(p), e_j - p>, with g canonical.
    """
    g = _exposures(rule, P)
    return _expected(rule, P)[:, None] + g - _ordered_dot(g, P)[:, None]


def _bregman_matrix(rule: RuleSpec, P: np.ndarray) -> np.ndarray:
    """D[a, b] = D(p_a || p_b) for the rows of a (k, n) forecast array;
    the diagonal is exactly 0."""
    E, G = _exposures(rule, P), _expected(rule, P)  # E refuses an overflow first
    return G[:, None] - G[None, :] - _ordered_dot(E, P[:, None] - P[None, :])


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def expected_reward(rule: RuleSpec, forecast) -> float:
    """G(p): the expected score of a truthful expert who believes p."""
    p = as_forecast(forecast)
    _check_domain(rule, p.probs)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
        G = _expected(rule, p.probs)
    return float(_finite(rule, G, p.probs, "expected reward"))


def exposure(rule: RuleSpec, forecast) -> ExposureVector:
    """The gradient of G at p, canonicalized to the sum-zero hyperplane."""
    p = as_forecast(forecast)
    _check_domain(rule, p.probs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused by _finite
        e = ExposureVector(_gradient(rule, p.probs))
    _finite(rule, e.coords, p.probs)
    return e


def score(rule: RuleSpec, forecast, j: int) -> float:
    """s(p; j): reward for reporting p when outcome j (1-based) occurs.

    Computed from the tangent plane of G at p; invariant to the choice
    of gradient representative because e_j - p sums to zero.
    """
    p = as_forecast(forecast)
    return _score_matrix(rule, p.probs[None])[0, _outcome(j, p.n)]


def bregman(rule: RuleSpec, forecast_p, forecast_q) -> float:
    """D(p || q): expected reward lost by reporting q under belief p."""
    p = as_forecast(forecast_p)
    q = as_forecast(forecast_q)
    if p.n != q.n:
        raise ValueError("forecasts have different outcome counts")
    return float(_bregman_matrix(rule, np.stack([p.probs, q.probs]))[0, 1])


def has_convex_exposure(rule: RuleSpec, n: int) -> bool:
    """Whether the range of the exposure map is convex at dimension n.

    Every continuous proper scoring rule qualifies at n = 2.  For n > 2
    the only implemented family that fails is tsallis with parameter
    above 2.
    """
    if n < 2:
        raise ValueError("need at least two outcomes")
    return n == 2 or rule._impl.convex_exposure(rule.param)


def exposure_norm_bound(rule: RuleSpec, n: int) -> float:
    """Analytic supremum of ||grad G||_2 over the closed simplex.

    Only bounded-exposure families admit one; for the open-domain rules
    the caller must supply a bound of its own (ConfigError otherwise).
    """
    if n < 2:
        raise ValueError("need at least two outcomes")
    if rule._impl.norm_bound is None:
        raise ConfigError(
            f"rule {rule.label} has unbounded exposure on the simplex; "
            "supply an explicit bound"
        )
    return rule._impl.norm_bound(rule.param, n)
