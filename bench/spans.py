"""Spans and counts recorded around the benchmark's calls into each layer.

A ``Tracer`` keeps every span in memory (name, start, end, parent) and
writes them out only when the run ends.  Times are CPU seconds of this
process (``clock``), for the reason given in README.md.  The untraced runs use
``NullTracer``, which has the same interface and calls straight through,
so both modes run the same code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: CPU time of this single-threaded process; on a shared virtual machine
#: the wall clock also counts time the host gives to other guests
clock = time.process_time


class NullTracer:
    enabled = False

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        return fn(*args, **kw)

    def count(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self) -> None:
        # (name, start, end, parent index or -1); end is None while open
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kw)
        finally:
            self._stack.pop()
            self.spans[index][2] = clock()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover.

        Children of one span never overlap (calls are sequential), so the
        covered part is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name].append(end - start - child_time[i])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}) + "\n")
