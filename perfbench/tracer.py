"""In-memory span tracer for the benchmark's traced runs.

Spans are opened and closed by wrappers that the benchmark puts around
sabrkit's public functions. Because the package imports with
``from .x import y``, a call from one module into another goes through a
name bound in the calling module, so :meth:`Tracer.patched` rebinds the
name there (``datagen.simulate_terminals``, ``net.forward``, ...) and puts
the original back afterwards. Nothing under ``src/`` changes.

Each span stores its name, start and end (``perf_counter_ns``), its parent
span and a run id, plus one integer of work (rows, path-steps, configs)
that the wrapper reads from the call's arguments. Spans stay in compact
arrays until :meth:`Tracer.dump` writes them out, as gzipped JSON columns, at
the end of the run.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.work = array("q")
        self._stack = [-1]
        self.run_id = 0
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.values: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, work=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        An exception is counted under ``<name>.failed.<class>`` and
        re-raised unchanged.
        """
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self.run_id)
            self.work.append(work(*args, **kwargs) if work is not None else 1)
            self.end.append(0)
            self._stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.failures[f"{name}.failed.{type(exc).__name__}"] += 1
                raise
            finally:
                self.end[i] = perf_counter_ns()
                self._stack.pop()

        return traced

    def counter(self, fn, name: str):
        """Wrap ``fn`` to count calls only, for functions too small to span."""

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self, bindings):
        """Rebind ``(module, attr, name, work)`` call sites to traced wrappers.

        ``work`` is a function of the call's arguments, or ``"count"`` for a
        call counter without a span.
        """
        saved = []
        try:
            for module, attr, name, work in bindings:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrapped = (self.counter(original, name) if work == "count"
                           else self.span(original, name, work))
                setattr(module, attr, wrapped)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self) -> "Spans":
        return Spans(self)

    def dump(self, path) -> None:
        payload = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "run", "work"],
            "name": self.name_id.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
            "work": self.work.tolist(),
            "calls": dict(self.calls),
            "failures": dict(self.failures),
            "values": self.values,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


class Spans:
    """Column view of a tracer's spans with durations and self times.

    A span's self time is its duration minus the part covered by its
    child spans. Spans are opened and closed on one thread, so children of
    a span are disjoint and lie inside it, and the covered part is the sum
    of the children's durations; :meth:`check_nesting` verifies that.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.int64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.int64).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.run = np.frombuffer(tracer.run, dtype=np.int32).copy()
        self.work = np.frombuffer(tracer.work, dtype=np.int64).copy()
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        self.child_dur = np.zeros_like(self.dur)
        np.add.at(self.child_dur, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - self.child_dur

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return self.name == self.names.index(name)

    def layer_of(self) -> np.ndarray:
        layers = np.array([n.split(".", 1)[0] for n in self.names] or [""], dtype=object)
        return layers[self.name]

    def child_dur_of(self, parent_name: str, child_name: str) -> np.ndarray:
        """Per ``parent_name`` span, the summed duration of its ``child_name`` children."""
        total = np.zeros_like(self.dur)
        kids = self.mask(child_name) & (self.parent >= 0)
        np.add.at(total, self.parent[kids], self.dur[kids])
        return total[self.mask(parent_name)]

    def check_nesting(self) -> list[str]:
        """Problems with the span tree; empty when every identity holds.

        Checks that each child lies inside its parent, that siblings do
        not overlap, and that the self times of a root span's subtree sum
        exactly to the root's duration.
        """
        problems = []
        kids = np.nonzero(self.parent >= 0)[0]
        p = self.parent[kids]
        outside = (self.start[kids] < self.start[p]) | (self.end[kids] > self.end[p])
        if outside.any():
            problems.append(f"{int(outside.sum())} spans end outside their parent")
        order = np.lexsort((self.start, self.parent))
        same = self.parent[order][1:] == self.parent[order][:-1]
        overlap = same & (self.start[order][1:] < self.end[order][:-1])
        if overlap.any():
            problems.append(f"{int(overlap.sum())} sibling spans overlap")
        root = np.arange(self.dur.size)
        for _ in range(64):
            up = self.parent[root]
            if (up < 0).all():
                break
            root = np.where(up >= 0, up, root)
        subtree_self = np.zeros_like(self.dur)
        np.add.at(subtree_self, root, self.self_time)
        roots = self.parent < 0
        if not np.array_equal(subtree_self[roots], self.dur[roots]):
            problems.append("subtree self times do not sum to the root span")
        return problems
