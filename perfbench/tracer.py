"""Spans around the calls into each convalloc layer, recorded from outside.

The tracer replaces a public function with a timing wrapper at the module
attribute its caller looks up (``convalloc.solver.decide``, not the package
re-export), so the library itself is unchanged.  Spans stay in memory, one
list per run, each with a per-solve id and the span that caused it, and are
written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional


class TraceError(Exception):
    """A wrapper could not be installed or a layer recorded nothing."""


class Tracer:
    def __init__(self) -> None:
        # Each span: [id, parent id, solve id, name, start, end].
        self.spans: list[list] = []
        self.solve_id: Optional[int] = None
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    def wrap(self, module, attr: str, name: str,
             on_result: Optional[Callable[["Tracer", object], None]] = None) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``on_result`` runs after the span has closed, so the counting it does
        is not charged to the layer.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            raise TraceError(f"{module.__name__}.{attr} is missing or not callable; "
                             f"the {name} layer cannot be traced")

        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    self.solve_id, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def layer_times(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Calls, busy seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_time[sid]
        return calls, busy, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, solve, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "solve": solve,
                                     "name": name, "start": start, "end": end}) + "\n")
