"""Spans recorded from outside the program, around calls into each layer.

A layer's *busy* time is the wall time inside its public call; its *self*
time is busy minus the part its child spans cover.  Spans nest by call
order on one thread, so a stack is all the bookkeeping needed.  Only the
per-layer totals are kept: the traced passes make ~10^5 calls and the
ledger reports sums, not individual spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._child: dict[str, float] = defaultdict(float)
        #: Open spans, innermost last: [name, seconds spent in children].
        self._stack: list[list] = []

    def _enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        elapsed = time.perf_counter() - start
        name, in_children = self._stack.pop()
        self.busy[name] += elapsed
        self.calls[name] += 1
        self._child[name] += in_children
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, name: str):
        """Time a direct call into a layer's public function."""
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` on this one instance with a timed version.

        Instance-level on purpose: the class, and every other instance
        in the process, keeps the untimed method.
        """
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            start = self._enter(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self._exit(start)

        setattr(obj, attr, timed)

    def self_s(self, name: str) -> float:
        return self.busy[name] - self._child[name]


def ranked_by_self(self_seconds: dict[str, float]) -> list[tuple[str, float, float]]:
    """``(layer, self_s, share of the total)`` rows, biggest owner first."""
    total = sum(self_seconds.values())
    rows = sorted(self_seconds.items(), key=lambda item: (-item[1], item[0]))
    return [
        (name, seconds, seconds / total if total else 0.0)
        for name, seconds in rows
    ]
