"""Set-up shared by every workload, and the clock that charges for it.

``setup_s`` is what a run pays before its first timed operation: the
knowledge build, input generation, file writes, the reference pass and,
for serve workloads, daemon boot-to-healthy.  The knowledge build is by
far the largest part, so it is done several times and its *median* is
charged; the rest is done once.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.core.knowledge import KnowledgeBase
from repro.core.pipeline import SyslogDigest
from repro.netsim.scale import ScaleGenerator

from . import feeds
from .tracing import Tracer

#: How many times a full-size run builds its knowledge base.
KNOWLEDGE_BUILDS = 3


class SetupClock:
    def __init__(self) -> None:
        self.seconds = 0.0
        self.samples = 1

    @contextmanager
    def charge(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start

    def charge_median(self, times: list[float]) -> None:
        self.seconds += statistics.median(times)
        self.samples = max(self.samples, len(times))


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def build_knowledge(
    feed: feeds.Feed,
    scale: int,
    clock: SetupClock,
    tracer: Tracer | None = None,
) -> tuple[ScaleGenerator, SyslogDigest]:
    """Build the feed's network and learn its knowledge base.

    A full-size end-to-end run does it ``KNOWLEDGE_BUILDS`` times and is
    charged the median; quick and traced runs (whose set-up time is not
    reported) do it once.
    """
    builds = KNOWLEDGE_BUILDS if scale == 1 and tracer is None else 1
    times = []
    for _ in range(builds):
        start = time.perf_counter()
        gen = feeds.generator(feed)
        with _span(tracer, "core.pipeline.learn"):
            system = feeds.learn(gen, feeds.LEARNING_MESSAGES // scale)
        times.append(time.perf_counter() - start)
    clock.charge_median(times)
    return gen, system


def save_knowledge(
    system: SyslogDigest, path: Path, tracer: Tracer | None = None
) -> KnowledgeBase:
    """Save the knowledge base and load it back, as a tenant will."""
    system.kb.save(path)
    with _span(tracer, "core.knowledge.load"):
        return KnowledgeBase.load(path)
