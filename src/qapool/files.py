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
(T, m, n) forecasts and the (T,) integer outcomes.  ``learning.ogd_run``
takes it as it is.  The steps' forecasts and outcomes are taken out in
one pass each, which a step that is no object with both keys fails; only
then does a loop find that step to name it.  The outcomes' types are one
set of types, and a loop names the first bad outcome only when that set
is not {int}.  The forecasts are flattened once into one list of
numbers, which the type check reads and one ``np.array`` call converts;
a stream that is not T steps of m rows of n numbers goes to the
step-by-step checks, which name the first bad step.

A long stream decodes to many lists and dicts, all alive until the
arrays are built, and every few hundred of them would start a cyclic
garbage collection that scans them all: a 20,000-step stream of m = 5,
n = 3 (7 MB) started about 200, one or two of them full, for 22 to 37
ms of a 200 ms load (2-core x86-64 VM, CPython 3.11).  None of them can
find garbage, since a decoded document holds no cycles, so
``load_stream_file`` pauses the collector over the whole decode (every
chunk below, and the fallback) until the document is dropped, and then
restores the caller's setting, also on an error (as Mercurial's
``util.nogc`` does around its parsers).  Pausing the decode alone would
leave a full collection over the live document for the array building
to start.

A forecast file decodes through ``_load_json``.  A document of at most
``_ORJSON_MAX`` (1 MiB) characters goes to orjson, which decodes a 20 x
50 forecast file (22.9 KB) in 37 us where ``json.loads`` takes 251 us, so
the file loads in 175 us, not 375 (2-core x86-64 VM, CPython 3.11,
orjson 3.8.3; importing orjson costs about 4 ms); a longer one goes to
``json.loads``.  The record loaded is json's bit for bit, since both
decoders round every number correctly and ``json.loads`` decodes again
wherever the two could differ: when orjson refuses the text (NaN or
Infinity literals, numbers beyond float range, lone surrogates,
malformed JSON), when building the record from orjson's document fails,
and when that document holds an id or label that is not a str or int
(orjson reads an integer beyond 64 bits as the nearest float, which
``str`` would print) or a key the loader does not read (orjson decodes
nesting of any depth, where json raises RecursionError near the
recursion limit).  So every error is json's too.

A stream file is read as bytes.  When it is framed as ``{"steps": [
... ]}``, with only JSON whitespace (space, tab, LF, CR) in the framing,
orjson decodes its steps one chunk at a time: each cut is at the first
``}``, whitespace, ``,``, whitespace, ``{`` at or after the next
``_CHUNK`` (64 KiB) mark, each piece is decoded as ``[piece]``, and the
lists are joined in order.  A cut cannot split a value unseen: every
piece starts at depth 0 and gets one ``[`` and one ``]``, so a cut
inside a string or a nested value leaves its piece with an unclosed
string or bracket, which orjson refuses.  So a short stream is one
chunk, a 20,000-step one (7 MB) about 110, and the bytes are dropped
before the record is built.  Whole-document orjson would hold its
parsed copy beside the text and raise the peak memory; the chunks keep
json's peak and decode in about a third of its time (see ``_CHUNK``).
When orjson refuses a piece, when the build or ``_stream_exact`` fails
(the same rules as above), or when the framing differs, the file is
read again as text and decoded by ``json.loads``, so the record, the
output and every error are json's.  JSON text is read as UTF-8 (RFC
8259, section 8.1) whatever the locale, with universal newlines as
before, so json's error positions do not move; CSV is read as UTF-8
too, so a header label is decoded the same in every locale.

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
import gc
import json
import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np
import orjson

from .rules import Forecast, _check_nonnegative, _read_only, _simplex_rows

__all__ = [
    "ForecastFile",
    "StreamFile",
    "load_forecast_file",
    "load_stream_file",
    "forecast_file_dict",
    "write_forecast_file",
]

DEFAULT_WEIGHT = 1.0
_FLOAT_MAX = float(np.finfo(float).max)
# orjson decodes forecast files of at most this many characters, json
# longer ones, since a whole-document orjson decode holds its parsed copy
# beside the text: loading a 20,000-step stream (7.0 MB) that way peaked
# 38.3 MB above its text, 32.2 MB with json; a 2,900-step one (1.0 MB)
# 5.4 MB against 5.2 MB (peak RSS of one load in a new process, 2-core
# x86-64 VM, CPython 3.11, orjson 3.8.3).  Streams are cut by _CHUNK instead.
_ORJSON_MAX = 1 << 20
# a stream's steps decode with orjson in chunks, each cut at the first step
# boundary at or after _CHUNK bytes.  One decode of a 20,000-step stream
# (7.0 MB) in a new process, its input already read, time and peak RSS
# above the RSS before it: json.loads 108-170 ms and 24.4 MB; orjson on the
# whole document 37-45 ms and 38.2 MB; orjson in 64 KiB chunks 31-47 ms and
# 24.2 MB (24.8 MB at 256 KiB, 27.1 MB at 1 MiB).  Five processes each,
# same VM and versions as above.
_CHUNK = 1 << 16
_WS = rb"[ \t\n\r]*"  # JSON's whitespace; \s would also take \f and \v
_STEPS_HEAD = re.compile(_WS + rb'\{' + _WS + rb'"steps"' + _WS + rb":" + _WS + rb"\[")
_STEPS_TAIL = re.compile(rb"\]" + _WS + rb"\}" + _WS)
_STEP_CUT = re.compile(rb"\}" + _WS + rb"," + _WS + rb"\{")


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
        _check_nonnegative(W, "expert")
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


@dataclass(frozen=True, eq=False)
class StreamFile:
    """A validated outcome stream held as two read-only arrays.

    ``forecasts`` is (T, m, n): step, expert, outcome probability.  Every
    row is checked as ``Forecast`` checks one (finite, nonnegative, sum
    within 1e-9, n >= 2) and renormalized the same way, so row [t, i]
    equals ``Forecast(raw[t][i]).probs`` bit for bit.  ``outcomes`` is
    (T,) with integer 1-based outcomes in 1..n.  Errors name the
    offending step.
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
        if J.dtype.kind not in "iu":
            _check_outcomes(J.tolist())
        n = P.shape[2]
        off = (J < 1) | (J > n)  # also on an object array of huge JSON ints
        if off.any():
            k = int(np.argmax(off))
            raise ValueError(f"step {k}: outcome {J[k]} out of 1..{n}")
        object.__setattr__(self, "forecasts", _read_only(P))
        object.__setattr__(self, "outcomes", _read_only(J.astype(int)))

    @property
    def m(self) -> int:
        return self.forecasts.shape[1]

    @property
    def n(self) -> int:
        return self.forecasts.shape[2]

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
        return _load_json(path.read_text(encoding="utf-8"), _forecasts_from_json,
                          _forecasts_exact)
    return _forecasts_from_csv(path)


def _load_json(text: str, build, exact):
    """build(the document in text): orjson's document when text is at most
    _ORJSON_MAX characters, orjson and build accept it and exact(it) holds,
    json.loads's otherwise (module docstring)."""
    if len(text) <= _ORJSON_MAX:
        try:
            built = _built(orjson.loads(text), build, exact)
        except orjson.JSONDecodeError:
            built = None
        if built is not None:
            return built
    return build(json.loads(text))


def _built(doc, build, exact):
    """build(doc) when it raises no ValueError and exact(doc) holds, else None."""
    try:
        built = build(doc)
        return built if exact(doc) else None
    except (ValueError, RecursionError):
        return None  # refused by a check (whose repr may recurse)


def _forecasts_exact(doc: dict) -> bool:
    """Whether a built forecast document has only keys the loader reads and
    only str or int ids and labels, the ones orjson and json decode alike."""
    rows = doc["experts"]
    names = chain((row["id"] for row in rows if "id" in row), doc.get("labels") or ())
    return (
        doc.keys() <= {"n", "labels", "experts"}
        and all(row.keys() <= {"id", "probs", "weight"} for row in rows)
        and set(map(type, names)) <= {str, int}
    )


def _stream_exact(doc: dict) -> bool:
    """Whether every step of a built stream document has only keys the
    loader reads (orjson's chunks come only from files whose one top-level
    key is "steps")."""
    return set(map(len, doc["steps"])) == {2}


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
    with open(path, newline="", encoding="utf-8") as fh:
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
    """The stream in a JSON file.  orjson decodes its steps a chunk at a
    time when the file is framed as {"steps": [...]}; otherwise, or when
    orjson or the checks refuse them, the file is read again as text and
    json.loads decodes it (module docstring)."""
    path = Path(path)
    # the cyclic GC stays paused until the decoded document is dropped
    # (module docstring), and the caller's GC state is restored on error too
    enabled = gc.isenabled()
    gc.disable()
    try:
        steps = _orjson_steps(path.read_bytes())  # the bytes are dropped here
        built = None if steps is None else _built({"steps": steps}, _stream_from_json,
                                                   _stream_exact)
        steps = None  # dropped before json decodes
        if built is not None:
            return built
        return _stream_from_json(json.loads(path.read_text(encoding="utf-8")))
    finally:
        if enabled:
            gc.enable()


def _orjson_steps(data: bytes) -> list | None:
    """The steps of a stream file framed as {"steps": [...]}, decoded by
    orjson one chunk of about _CHUNK bytes at a time, or None when the
    framing differs or orjson refuses a chunk."""
    head = _STEPS_HEAD.match(data)
    end = data.rfind(b"]")
    if head is None or end < head.end() or not _STEPS_TAIL.fullmatch(data, end):
        return None
    view, steps, start = memoryview(data), [], head.end()
    while start < end:
        cut = _STEP_CUT.search(data, start + _CHUNK, end)
        stop = end if cut is None else cut.start() + 1
        try:
            steps += orjson.loads(b"".join((b"[", view[start:stop], b"]")))
        except orjson.JSONDecodeError:
            return None
        start = end if cut is None else cut.end() - 1
    return steps


def _stream_from_json(doc) -> StreamFile:
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise ValueError("stream JSON must be an object with a 'steps' list")
    rows = doc["steps"]
    if not rows:
        raise ValueError("stream file lists no steps")
    try:  # a decoded step that is no object with both keys raises here
        forecasts = list(map(itemgetter("forecasts"), rows))
        outcomes = list(map(itemgetter("outcome"), rows))
    except (TypeError, KeyError):
        k = next(
            k
            for k, row in enumerate(rows)
            if not (isinstance(row, dict) and "forecasts" in row and "outcome" in row)
        )
        raise ValueError(f"step {k}: expected an object with 'forecasts' and 'outcome'") from None
    if set(map(type, outcomes)) != {int}:
        _check_outcomes(outcomes)
    return StreamFile(_step_forecasts(forecasts), np.array(outcomes))


def _step_forecasts(raw: list) -> np.ndarray:
    """The (T, m, n) array of T steps of m rows of n JSON numbers, made
    from one flat list of the numbers, which is also what the type check
    reads.  Anything else goes to _stack_steps and _check_numbers, which
    name the first offending step."""
    try:
        m, n = len(raw[0]), len(raw[0][0])
        regular = set(map(len, raw)) == {m} and set(map(len, chain.from_iterable(raw))) == {n}
    except (TypeError, LookupError):  # a step or row that is no list
        regular = False
    if regular:
        flat = list(_flatten(raw, 2))
        if _are_numbers(flat, 0):
            return np.array(flat, dtype=float).reshape(len(raw), m, n)
    P = _stack_steps(raw)
    # np.array converts strings and booleans; the (T, m, n) shape puts
    # every probability under two levels of lists per step
    _check_numbers(raw, 2, "step", "forecast probabilities must be numbers")
    return P


def _check_outcomes(outcomes: list) -> None:
    """Name the first outcome that is not an integer."""
    for k, j in enumerate(outcomes):
        # bool is an int subclass; neither it nor a float names an outcome
        if type(j) is not int and not isinstance(j, np.integer):
            raise ValueError(f"step {k}: outcome must be an integer, got {j!r}")


def _stack_steps(raw: list) -> np.ndarray:
    """The (T, m, n) array of T steps of m forecast rows each.  An error
    names the first step whose forecasts are no m x n array like step 0's."""
    try:  # an integer beyond the float range overflows
        P = np.array(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):
        P = None
    if P is not None and P.ndim == 3:
        return P
    first = None
    for k, fs in enumerate(raw):
        try:
            shape = np.array(fs, dtype=float).shape
        except (ValueError, TypeError, OverflowError):
            shape = ()
        if len(shape) != 2:
            raise ValueError(f"step {k}: forecasts must be a list of equal-length number lists")
        if first is None:
            first = shape
        elif shape != first:
            raise ValueError(f"step {k}: expert/outcome counts changed")
    raise ValueError("stream forecasts do not form a (T, m, n) array")


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
