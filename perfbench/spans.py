"""In-memory span tracer for the benchmark's traced run.

A span is one call into a layer: its name, start, end, and the span that
caused it. The benchmark records spans around the public functions it calls
and, for methods the program itself calls on objects the benchmark built,
by replacing the bound method on that one instance. Spans nest on a stack,
so a span's *self time* is its duration minus the time covered by its
direct children.

Spans live in flat typed arrays (a per-point workload records hundreds of
thousands of them) and are written out, gzip-compressed, when the run ends.
With ``enabled=False`` every helper returns the wrapped callable or iterator
unchanged, so the untraced run pays nothing for the hooks.
"""

from __future__ import annotations

import gzip
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, Iterator, List

__all__ = ["Tracer"]


class Tracer:
    """Span recorder; a disabled tracer installs no hooks at all."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack: List[int] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> None:
        self._stack.append(len(self._name))
        self._name.append(self._id(name))
        self._parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self._end.append(0)
        self._start.append(perf_counter_ns())

    def end(self) -> None:
        self._end[self._stack.pop()] = perf_counter_ns()

    def fn(self, func: Callable, name: str) -> Callable:
        """``func`` wrapped so every call is one span named ``name``."""
        if not self.enabled:
            return func

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end()

        return traced

    def method(self, obj: Any, attr: str, name: str) -> None:
        """Trace every call of ``obj.attr`` on this one instance.

        The bound method is replaced by an instance attribute, so calls the
        program itself makes through ``obj.attr(...)`` are recorded too.
        """
        if self.enabled:
            setattr(obj, attr, self.fn(getattr(obj, attr), name))

    def iterate(self, iterable: Iterable, name: str) -> Iterator:
        """Iterate ``iterable`` with each ``next`` call as one span."""
        iterator = iter(iterable)
        if not self.enabled:
            return iterator
        return self._traced_iter(iterator, name)

    def _traced_iter(self, iterator: Iterator, name: str) -> Iterator:
        while True:
            self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end()
            yield item

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``calls``, total ``wall_ns`` and total ``self_ns``."""
        n = len(self._name)
        child_ns = [0] * n
        start, end, parent = self._start, self._end, self._parent
        for i in range(n):
            if parent[i] >= 0:
                child_ns[parent[i]] += end[i] - start[i]
        out = {name: {"calls": 0, "wall_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self._name[i]]]
            wall = end[i] - start[i]
            row["calls"] += 1
            row["wall_ns"] += wall
            row["self_ns"] += wall - child_ns[i]
        return out

    def dump(self, path: Path) -> None:
        """Write every span as gzip'd JSON columns (times from the first span)."""
        origin = self._start[0] if len(self._start) else 0
        doc = {
            "names": self.names,
            "name": self._name.tolist(),
            "start_ns": [s - origin for s in self._start],
            "end_ns": [e - origin for e in self._end],
            "parent": self._parent.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump(doc, handle)
