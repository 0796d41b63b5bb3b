"""On-disk formats for expert forecasts and outcome streams.

Forecast files: JSON (canonical) or CSV.  JSON schema:

    {"n": 2, "labels": ["rain", "dry"],
     "experts": [{"id": "a", "probs": [0.1, 0.9], "weight": 0.5},
                 {"id": "b", "probs": [0.5, 0.5]}]}

``labels`` and per-expert ``weight`` are optional; experts without a
weight get weight 1 (so all-unweighted files pool uniformly).  CSV rows
are experts and columns are outcome probabilities; with a header row, a
final column named ``weight`` carries weights.

Stream files: JSON only, 1-based outcomes:

    {"steps": [{"forecasts": [[0.1, 0.9], [0.5, 0.5]], "outcome": 2}]}

A loaded stream is a ``StreamFile`` holding two read-only arrays: the
(T, m, n) forecasts, parsed with one ``np.array`` call, checked in bulk
and renormalized row by row as ``Forecast`` would, and the (T,) integer
outcomes.  ``learning.ogd_run`` takes it as it is; its ``steps`` and
``as_pairs()`` build per-step ``Forecast`` objects only when asked.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pooling import WeightedForecast
from .rules import SIMPLEX_ATOL, Forecast

__all__ = [
    "ExpertEntry",
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


@dataclass(frozen=True)
class ExpertEntry:
    id: str
    forecast: Forecast
    weight: float | None = None


@dataclass(frozen=True)
class ForecastFile:
    experts: tuple[ExpertEntry, ...]
    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.experts:
            raise ValueError("forecast file lists no experts")
        if any(e.forecast.n != self.n for e in self.experts):
            raise ValueError("all forecasts must share the outcome count")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels must match the outcome count")
        for e in self.experts:
            if e.weight is not None and (not np.isfinite(e.weight) or e.weight < 0):
                raise ValueError(f"expert {e.id!r} has invalid weight {e.weight!r}")

    def weighted_inputs(self) -> list[WeightedForecast]:
        return [
            WeightedForecast(
                e.forecast, DEFAULT_WEIGHT if e.weight is None else e.weight
            )
            for e in self.experts
        ]


@dataclass(frozen=True)
class StreamStep:
    forecasts: tuple[Forecast, ...]
    outcome: int


def _first_step(bad: np.ndarray) -> int:
    """Index of the first step (leading axis) holding a True entry."""
    return int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))


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
        for bad, what in ((~np.isfinite(P), "finite"), (P < 0.0, "nonnegative")):
            if bad.any():
                raise ValueError(
                    f"step {_first_step(bad)}: forecast probabilities must be {what}"
                )
        total = P.sum(axis=2, keepdims=True)
        off = np.abs(total - 1.0) > SIMPLEX_ATOL
        if off.any():
            k = _first_step(off)
            i = int(np.argmax(off[k, :, 0]))
            raise ValueError(
                f"step {k}: forecast {i} probabilities sum to "
                f"{float(total[k, i, 0])!r}, not 1 within 1e-9"
            )
        if J.shape != P.shape[:1]:
            raise ValueError("stream needs one outcome per step")
        n = P.shape[2]
        off = (J < 1) | (J > n)  # also on an object array of huge JSON ints
        if off.any():
            k = _first_step(off)
            raise ValueError(f"step {k}: outcome {J[k]} out of 1..{n}")
        if J.dtype.kind not in "iu":
            raise ValueError("stream outcomes must be integers")
        P = P / total
        P.flags.writeable = False
        J = J.astype(int)
        J.flags.writeable = False
        object.__setattr__(self, "forecasts", P)
        object.__setattr__(self, "outcomes", J)

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


def _is_number(x) -> bool:
    # bool is an int subclass; an integer beyond the float range won't convert
    return type(x) is float or (type(x) is int and abs(x) <= _FLOAT_MAX)


def _forecasts_from_json(doc) -> ForecastFile:
    if not isinstance(doc, dict) or not isinstance(doc.get("experts"), list):
        raise ValueError("forecast JSON must be an object with an 'experts' list")
    experts = []
    for k, row in enumerate(doc["experts"]):
        if not isinstance(row, dict):
            raise ValueError(f"expert {k} must be an object, got {row!r}")
        probs, weight = row.get("probs"), row.get("weight")
        if probs is None:
            raise ValueError(f"expert {k} is missing 'probs'")
        if not (isinstance(probs, list) and all(_is_number(p) for p in probs)):
            raise ValueError(f"expert {k}: 'probs' must be a list of numbers")
        if not (weight is None or _is_number(weight)):
            raise ValueError(f"expert {k}: 'weight' must be a number, got {weight!r}")
        experts.append(
            ExpertEntry(
                id=str(row.get("id", f"e{k + 1}")),
                forecast=Forecast(np.asarray(probs, dtype=float)),
                weight=None if weight is None else float(weight),
            )
        )
    if not experts:
        raise ValueError("forecast file lists no experts")
    n = doc.get("n", experts[0].forecast.n)
    if type(n) is not int:
        raise ValueError(f"'n' must be an integer, got {n!r}")
    labels = doc.get("labels")
    if not (labels is None or isinstance(labels, list)):
        raise ValueError(f"'labels' must be a list, got {labels!r}")
    return ForecastFile(
        experts=tuple(experts),
        n=n,
        labels=None if labels is None else tuple(str(x) for x in labels),
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
    has_weight = header is not None and header and header[-1].lower() == "weight"
    experts = []
    for k, row in enumerate(rows):
        vals = [float(c) for c in row]
        if has_weight:
            probs, weight = vals[:-1], vals[-1]
        else:
            probs, weight = vals, None
        experts.append(
            ExpertEntry(f"e{k + 1}", Forecast(np.asarray(probs)), weight)
        )
    if not experts:
        raise ValueError(f"{path}: forecast file lists no experts")
    labels = None
    if header is not None:
        labels = tuple(header[:-1] if has_weight else header)
    return ForecastFile(tuple(experts), experts[0].forecast.n, labels)


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
    try:
        P = np.array(raw, dtype=float)
    except (ValueError, TypeError):
        P = None
    if P is None or P.ndim != 3:
        raise ValueError(_shape_error(raw))
    return StreamFile(P, np.array(outcomes))


def _shape_error(raw: list) -> str:
    """Name the first step whose forecasts are no m x n array like step 0's."""
    first = None
    for k, fs in enumerate(raw):
        try:
            shape = np.array(fs, dtype=float).shape
        except (ValueError, TypeError):
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
    """JSON-ready dict; floats serialize at shortest round-trip precision."""
    doc: dict = {
        "n": ff.n,
        "experts": [
            {
                "id": e.id,
                "probs": [float(x) for x in e.forecast.probs],
                **({} if e.weight is None else {"weight": float(e.weight)}),
            }
            for e in ff.experts
        ],
    }
    if ff.labels is not None:
        doc["labels"] = list(ff.labels)
    return doc


def write_forecast_file(ff: ForecastFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(forecast_file_dict(ff), sort_keys=True) + "\n")
