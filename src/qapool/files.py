"""On-disk formats for expert forecasts and outcome streams.

Forecast files: JSON (canonical) or CSV.  JSON schema:

    {"n": 2, "labels": ["rain", "dry"],
     "experts": [{"id": "a", "probs": [0.1, 0.9], "weight": 0.5},
                 {"id": "b", "probs": [0.5, 0.5]}]}

``labels``, ``n`` and per-expert ``id`` and ``weight`` are optional; an
expert without a weight (or with a ``null`` one) gets weight 1, so
all-unweighted files pool uniformly.  CSV rows are experts and columns
are outcome probabilities; with a header row, a final column named
``weight`` carries weights.  A loaded file is a ``ForecastFile``
holding the (m, n) forecasts and the (m,) weights as read-only arrays;
``pool``, ``score`` and ``bregman`` take them as they are.

Stream files: JSON only, 1-based outcomes:

    {"steps": [{"forecasts": [[0.1, 0.9], [0.5, 0.5]], "outcome": 2}]}

A loaded stream is a ``StreamFile`` holding two read-only arrays: the
(T, m, n) forecasts, parsed with one ``np.array`` call, and the (T,)
integer outcomes.  ``learning.ogd_run`` takes it as it is; its ``steps``
and ``as_pairs()`` build per-step ``Forecast`` objects only when asked.

Both records check and renormalize every forecast row in one call to
``rules._simplex_rows``, as ``Forecast`` does one row, so a loaded row
equals ``Forecast(raw).probs`` bit for bit; errors name the offending
expert or step.  Before that, both JSON loaders reject probabilities that
are not JSON numbers (strings and booleans would convert to floats) with
one type check over all the rows, and look for the offending expert or
step only when it fails.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .rules import Forecast, _simplex_rows

__all__ = [
    "ForecastFile",
    "StreamStep",
    "StreamFile",
    "load_forecast_file",
    "load_stream_file",
    "forecast_file_dict",
    "write_forecast_file",
]

DEFAULT_WEIGHT = 1.0
_FLOAT_MAX = float(np.finfo(float).max)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ForecastFile:
    """Expert forecasts held as read-only arrays.

    ``probs`` is (m, n), one expert per row, each row checked as
    ``Forecast`` checks one and renormalized the same way.  ``weights`` is
    (m,), finite and nonnegative; None gives every expert weight 1.
    ``ids`` names the experts (default e1..em) and ``labels``, if given,
    the outcomes.  Errors name the offending expert by its row index.
    """

    probs: np.ndarray
    weights: np.ndarray | None = None
    ids: tuple[str, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        P = np.asarray(self.probs, dtype=float)
        if P.ndim != 2 or P.shape[0] == 0:
            raise ValueError("forecast file lists no experts")
        m, n = P.shape
        if n < 2:
            raise ValueError("expert 0: forecasts need at least two outcome probabilities")
        W = np.full(m, DEFAULT_WEIGHT) if self.weights is None else np.array(self.weights, float)
        if W.shape != (m,):
            raise ValueError("a forecast file needs one weight per expert")
        bad = ~(np.isfinite(W) & (W >= 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"expert {k}: invalid weight {float(W[k])!r}")
        ids = tuple(f"e{k + 1}" for k in range(m)) if self.ids is None else tuple(self.ids)
        if len(ids) != m:
            raise ValueError("a forecast file needs one id per expert")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must match the outcome count")
        object.__setattr__(self, "probs", _read_only(_simplex_rows(P, "expert")))
        object.__setattr__(self, "weights", _read_only(W))
        object.__setattr__(self, "ids", ids)

    @classmethod
    def _trusted(cls, probs, weights, ids, labels) -> "ForecastFile":
        """Wrap read-only arrays already checked and normalized as above."""
        ff = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, (probs, weights, ids, labels)):
            object.__setattr__(ff, name, value)
        return ff

    @property
    def m(self) -> int:
        return self.probs.shape[0]

    @property
    def n(self) -> int:
        return self.probs.shape[1]

    @property
    def forecasts(self) -> tuple[Forecast, ...]:
        """The rows as read-only ``Forecast`` views, built on each access."""
        return tuple(Forecast._trusted(p) for p in self.probs)


@dataclass(frozen=True)
class StreamStep:
    forecasts: tuple[Forecast, ...]
    outcome: int


@dataclass(frozen=True, eq=False)
class StreamFile:
    """A validated outcome stream held as two read-only arrays.

    ``forecasts`` is (T, m, n): step, expert, outcome probability.  Every
    row is checked as ``Forecast`` checks one (finite, nonnegative, sum
    within 1e-9, n >= 2) and renormalized the same way, so row [t, i]
    equals ``Forecast(raw[t][i]).probs`` bit for bit.  ``outcomes`` is
    (T,) with 1-based outcomes in 1..n.  Errors name the offending step.
    """

    forecasts: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        P = np.asarray(self.forecasts, dtype=float)
        J = np.asarray(self.outcomes)
        if P.ndim != 3 or P.shape[0] == 0 or P.shape[1] == 0:
            raise ValueError("stream needs a (T, m, n) forecast array, T, m >= 1")
        if P.shape[2] < 2:
            raise ValueError("step 0: forecasts need at least two outcome probabilities")
        P = _simplex_rows(P, "step")
        if J.shape != P.shape[:1]:
            raise ValueError("stream needs one outcome per step")
        n = P.shape[2]
        off = (J < 1) | (J > n)  # also on an object array of huge JSON ints
        if off.any():
            k = int(np.argmax(off))
            raise ValueError(f"step {k}: outcome {J[k]} out of 1..{n}")
        if J.dtype.kind not in "iu":
            raise ValueError("stream outcomes must be integers")
        object.__setattr__(self, "forecasts", _read_only(P))
        object.__setattr__(self, "outcomes", _read_only(J.astype(int)))

    @property
    def m(self) -> int:
        return self.forecasts.shape[1]

    @property
    def n(self) -> int:
        return self.forecasts.shape[2]

    @property
    def steps(self) -> tuple[StreamStep, ...]:
        """The stream as ``StreamStep`` objects, built on each access."""
        return tuple(
            StreamStep(tuple(Forecast._trusted(p) for p in fs), j)
            for fs, j in zip(self.forecasts, self.outcomes.tolist())
        )

    def as_pairs(self) -> list[tuple[list[Forecast], int]]:
        return [(list(st.forecasts), st.outcome) for st in self.steps]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamFile):
            return NotImplemented
        return np.array_equal(self.forecasts, other.forecasts) and np.array_equal(
            self.outcomes, other.outcomes
        )


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

def load_forecast_file(path: str | Path) -> ForecastFile:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _forecasts_from_json(json.loads(path.read_text()))
    return _forecasts_from_csv(path)


def _flatten(groups: list, depth: int):
    """The items of ``groups`` with ``depth`` levels of lists unwrapped."""
    for _ in range(depth):
        groups = chain.from_iterable(groups)
    return groups


def _are_numbers(groups: list, depth: int) -> bool:
    """Whether every item of ``_flatten(groups, depth)`` is a JSON number
    a float can hold."""
    # exact types: bool is an int subclass, and a JSON string or bool
    # would convert under np.array(..., dtype=float)
    kinds = set(map(type, _flatten(groups, depth)))
    if not kinds <= {float, int}:
        return False
    # an integer beyond the float range won't convert
    return int not in kinds or all(
        abs(x) <= _FLOAT_MAX for x in _flatten(groups, depth) if type(x) is int
    )


def _check_numbers(groups: list, depth: int, name: str, message: str) -> None:
    """One type check over every item of ``_flatten(groups, depth)``; on
    failure, raise ``{name} k: {message}`` for the first bad group k."""
    if not _are_numbers(groups, depth):
        k = next(k for k, g in enumerate(groups) if not _are_numbers([g], depth))
        raise ValueError(f"{name} {k}: {message}")


def _expert_rows(rows: list[list], n: int) -> np.ndarray:
    """The (m, n) array of m rows of numbers, naming the first row of
    another length."""
    k = next((k for k, row in enumerate(rows) if len(row) != n), None)
    if k is not None:
        raise ValueError(f"expert {k}: {len(rows[k])} probabilities, expected {n}")
    return np.array(rows, dtype=float).reshape(len(rows), n)


def _forecasts_from_json(doc) -> ForecastFile:
    if not isinstance(doc, dict) or not isinstance(doc.get("experts"), list):
        raise ValueError("forecast JSON must be an object with an 'experts' list")
    rows = doc["experts"]
    if not rows:
        raise ValueError("forecast file lists no experts")
    for k, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"expert {k} must be an object, got {row!r}")
        probs, weight = row.get("probs"), row.get("weight")
        if probs is None:
            raise ValueError(f"expert {k} is missing 'probs'")
        if not isinstance(probs, list):
            raise ValueError(f"expert {k}: 'probs' must be a list of numbers")
        if not (weight is None or _are_numbers([weight], 0)):
            raise ValueError(f"expert {k}: 'weight' must be a number, got {weight!r}")
    probs = [row["probs"] for row in rows]
    _check_numbers(probs, 1, "expert", "'probs' must be a list of numbers")
    n = doc.get("n", len(probs[0]))
    if type(n) is not int:
        raise ValueError(f"'n' must be an integer, got {n!r}")
    labels = doc.get("labels")
    if not (labels is None or isinstance(labels, list)):
        raise ValueError(f"'labels' must be a list, got {labels!r}")
    return ForecastFile(
        _expert_rows(probs, n),
        [DEFAULT_WEIGHT if row.get("weight") is None else row["weight"] for row in rows],
        tuple(str(row.get("id", f"e{k + 1}")) for k, row in enumerate(rows)),
        None if labels is None else tuple(str(x) for x in labels),
    )


def _forecasts_from_csv(path: Path) -> ForecastFile:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header: list[str] | None = None
    try:
        float(rows[0][0])
    except ValueError:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: forecast file lists no experts")
    has_weight = header is not None and header[-1].lower() == "weight"
    vals = []
    for k, row in enumerate(rows):
        try:
            vals.append([float(c) for c in row])
        except ValueError as e:
            raise ValueError(f"expert {k}: {e}") from None
    weights = [v.pop() for v in vals] if has_weight else None
    labels = None
    if header is not None:
        labels = tuple(header[:-1] if has_weight else header)
    return ForecastFile(_expert_rows(vals, len(vals[0])), weights, None, labels)


def load_stream_file(path: str | Path) -> StreamFile:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise ValueError("stream JSON must be an object with a 'steps' list")
    rows = doc["steps"]
    if not rows:
        raise ValueError("stream file lists no steps")
    k = next(
        (
            k
            for k, row in enumerate(rows)
            if not (isinstance(row, dict) and "forecasts" in row and "outcome" in row)
        ),
        None,
    )
    if k is not None:
        raise ValueError(f"step {k}: expected an object with 'forecasts' and 'outcome'")
    outcomes = [row["outcome"] for row in rows]
    # bool is an int subclass; neither it nor a float names an outcome
    k = next((k for k, j in enumerate(outcomes) if type(j) is not int), None)
    if k is not None:
        raise ValueError(f"step {k}: outcome must be an integer, got {outcomes[k]!r}")
    raw = [row["forecasts"] for row in rows]
    try:  # an integer beyond the float range overflows
        P = np.array(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):
        P = None
    if P is None or P.ndim != 3:
        raise ValueError(_shape_error(raw))
    # np.array converts strings and booleans; the (T, m, n) shape puts
    # every probability under two levels of lists per step
    _check_numbers(raw, 2, "step", "forecast probabilities must be numbers")
    return StreamFile(P, np.array(outcomes))


def _shape_error(raw: list) -> str:
    """Name the first step whose forecasts are no m x n array like step 0's."""
    first = None
    for k, fs in enumerate(raw):
        try:
            shape = np.array(fs, dtype=float).shape
        except (ValueError, TypeError, OverflowError):
            shape = ()
        if len(shape) != 2:
            return f"step {k}: forecasts must be a list of equal-length number lists"
        if first is None:
            first = shape
        elif shape != first:
            return f"step {k}: expert/outcome counts changed"
    return "stream forecasts do not form a (T, m, n) array"


# --------------------------------------------------------------------------
# writing
# --------------------------------------------------------------------------

def forecast_file_dict(ff: ForecastFile) -> dict:
    """JSON-ready dict with every expert's weight; floats serialize at
    shortest round-trip precision."""
    doc: dict = {
        "n": ff.n,
        "experts": [
            {"id": i, "probs": p, "weight": w}
            for i, p, w in zip(ff.ids, ff.probs.tolist(), ff.weights.tolist())
        ],
    }
    if ff.labels is not None:
        doc["labels"] = list(ff.labels)
    return doc


def write_forecast_file(ff: ForecastFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(forecast_file_dict(ff), sort_keys=True) + "\n")
