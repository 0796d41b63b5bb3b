"""Span tracing of the program's layers, installed from outside ``src/``.

Modules bind names at import (``from .rules import exposure``), so wrapping
``qapool.rules.exposure`` alone would miss the calls ``learning`` makes.
``Tracer.install`` therefore wraps every public function of each layer
module at every name the program looks it up: in the defining module and
in each other qapool module that bound it.  A span records its name, the
namespace the call went through (``via``), start, end, parent span and
command id.  The objective and gradient callables handed to
``optim.projected_gradient`` are wrapped too, so solver evaluations are
counted where they happen.

Spans live in flat arrays while the program runs; ``summary`` and ``save``
read them afterwards.  ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "qapool"
LAYERS = ("files", "rules", "pooling", "optim", "simplex", "learning", "analysis", "cli")

# wrap targets the per-layer metrics read, as (span name, namespace the
# call looks the name up in); a refactor that deletes one is reported, not
# fatal.  A call through a module attribute, like the CLI's
# `files.load_stream_file(...)`, looks the name up in the defining module.
EXPECTED = (
    ("cli.main", "cli"),
    ("files.load_stream_file", "files"),
    ("files.load_forecast_file", "files"),
    ("rules.exposure", "learning"),
    ("rules.score", "rules"),  # the CLI's function-local `from .rules import score`
    ("rules.score", "analysis"),
    ("pooling.qa_pool", "pooling"),
    ("pooling.qa_pool", "analysis"),
    ("pooling.invert_exposure", "analysis"),
    ("pooling.generalized_pool", "pooling"),
    ("optim.projected_gradient", "learning"),
    ("optim.projected_gradient", "pooling"),
    ("simplex.project_simplex", "learning"),
    ("simplex.random_simplex_point", "analysis"),
    ("learning.ogd_run", "learning"),
    ("learning.weight_score", "learning"),  # analysis imports it inside a function
    ("analysis.aggregator_utility", "analysis"),
    ("analysis.axiom_suite", "analysis"),
    ("analysis.exposure_probe", "analysis"),
    ("analysis.concavity_probe", "analysis"),
)

OBJECTIVE = "optim.objective"
GRADIENT = "optim.gradient"
SOLVER = "optim.projected_gradient"


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


class Tracer:
    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []  # (span name, via) per key id
        self._key_ids: dict[tuple[str, str], int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: set[int] = set()
        self.commands: list[str] = []
        self.wrapped: set[tuple[str, str]] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_command(self, label: str) -> None:
        self.commands.append(label)

    def _key_id(self, name: str, via: str) -> int:
        k = self._key_ids.get((name, via))
        if k is None:
            k = self._key_ids[(name, via)] = len(self.keys)
            self.keys.append((name, via))
        return k

    def _wrap(self, fn, name: str, via: str):
        key_id = self._key_id(name, via)
        key, parent, cmd, start, end = self.key, self.parent, self.cmd, self.start, self.end
        stack, raised = self._stack, self.raised
        commands, clock = self.commands, time.perf_counter
        wrap_callbacks = self._wrap_callbacks if name == SOLVER else None

        def traced(*args, **kwargs):
            if wrap_callbacks is not None:
                args = wrap_callbacks(via, args)
            i = len(key)
            key.append(key_id)
            parent.append(stack[-1] if stack else -1)
            cmd.append(len(commands) - 1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(i)
                raise
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_callbacks(self, via: str, args: tuple) -> tuple:
        # both callers pass (objective, gradient, ...) positionally
        if len(args) < 2:
            return args
        return (self._wrap(args[0], OBJECTIVE, via), self._wrap(args[1], GRADIENT, via)) + args[2:]

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        targets = {}
        for layer in LAYERS:
            mod = mods.get(f"{PACKAGE}.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, f"{layer}.{attr}")
        for modname, mod in mods.items():
            via = modname.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                self._patches.append((mod, attr, value))
                setattr(mod, attr, self._wrap(value, hit[1], via))
                self.wrapped.add((hit[1], via))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def absent(self) -> list[str]:
        """Expected wrap targets the program no longer has."""
        return [f"{n}@{v}" for n, v in EXPECTED if (n, v) not in self.wrapped]

    # -- reading ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name, and per ``name@via``: calls, total seconds, self
        seconds and calls that raised."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict] = {}
        for i, k in enumerate(self.key):
            name, via = self.keys[k]
            dur = self.end[i] - self.start[i]
            for label in (name, f"{name}@{via}"):
                row = out.get(label)
                if row is None:
                    row = out[label] = {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0}
                row["calls"] += 1
                row["self_s"] += selfs[i]
                row["s"] += dur
                if i in self.raised:
                    row["raised"] += 1
        return out

    def save(self, path: Path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array([f"{n}@{v}" for n, v in self.keys], dtype=str),
            commands=np.array(self.commands, dtype=str),
            key=np.array(self.key, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            cmd=np.array(self.cmd, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            raised=np.array(sorted(self.raised), dtype=np.int64),
        )
