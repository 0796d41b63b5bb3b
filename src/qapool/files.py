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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pooling import WeightedForecast
from .rules import Forecast

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


@dataclass(frozen=True)
class StreamFile:
    steps: tuple[StreamStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("stream file lists no steps")
        m = len(self.steps[0].forecasts)
        n = self.steps[0].forecasts[0].n
        for k, st in enumerate(self.steps):
            if len(st.forecasts) != m or any(f.n != n for f in st.forecasts):
                raise ValueError(f"step {k}: expert/outcome counts changed")
            if not 1 <= st.outcome <= n:
                raise ValueError(f"step {k}: outcome {st.outcome} out of 1..{n}")

    @property
    def m(self) -> int:
        return len(self.steps[0].forecasts)

    @property
    def n(self) -> int:
        return self.steps[0].forecasts[0].n

    def as_pairs(self) -> list[tuple[list[Forecast], int]]:
        return [(list(st.forecasts), st.outcome) for st in self.steps]


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

def load_forecast_file(path: str | Path) -> ForecastFile:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _forecasts_from_json(json.loads(path.read_text()))
    return _forecasts_from_csv(path)


def _forecasts_from_json(doc) -> ForecastFile:
    if not isinstance(doc, dict) or "experts" not in doc:
        raise ValueError("forecast JSON must be an object with an 'experts' list")
    experts = []
    for k, row in enumerate(doc["experts"]):
        probs = row.get("probs")
        if probs is None:
            raise ValueError(f"expert {k} is missing 'probs'")
        experts.append(
            ExpertEntry(
                id=str(row.get("id", f"e{k + 1}")),
                forecast=Forecast(np.asarray(probs, dtype=float)),
                weight=None if row.get("weight") is None else float(row["weight"]),
            )
        )
    n = int(doc.get("n", experts[0].forecast.n))
    labels = doc.get("labels")
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
    labels = None
    if header is not None:
        labels = tuple(header[:-1] if has_weight else header)
    return ForecastFile(tuple(experts), experts[0].forecast.n, labels)


def load_stream_file(path: str | Path) -> StreamFile:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "steps" not in doc:
        raise ValueError("stream JSON must be an object with a 'steps' list")
    steps = []
    for k, row in enumerate(doc["steps"]):
        forecasts = tuple(
            Forecast(np.asarray(p, dtype=float)) for p in row["forecasts"]
        )
        outcome = row["outcome"]
        # bool is an int subclass; neither it nor a float names an outcome
        if isinstance(outcome, bool) or not isinstance(outcome, int):
            raise ValueError(
                f"step {k}: outcome must be an integer, got {outcome!r}"
            )
        steps.append(StreamStep(forecasts, outcome))
    return StreamFile(tuple(steps))


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
