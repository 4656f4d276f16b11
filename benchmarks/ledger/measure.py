"""What a workload hands back, and the few statistics it is built from."""

from __future__ import annotations

import gc
import math
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: A tail percentile is only reported with at least this many samples
#: beyond it; otherwise the next one down this ladder is, and says so.
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


class WorkloadFailed(RuntimeError):
    """A correctness or hygiene check failed: no numbers are printed."""


@dataclass
class Outcome:
    """One workload run: metric values plus the evidence beside them."""

    #: name -> (value, number of samples the value summarises)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Sizes, validity figures, which tail percentile was used, ...
    notes: dict[str, object] = field(default_factory=dict)
    #: Traced runs only: layer -> self seconds, for the ranked list.
    self_seconds: dict[str, float] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), samples)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile; ``samples`` need not be sorted."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: list[float], preferred: int) -> tuple[float, int]:
    """``(value, percentile used)``: ``preferred`` if the sample supports it.

    Each workload names the percentile its nominal sample count supports
    with room to spare, so the percentile does not flip between runs.
    """
    for p in TAIL_LADDER:
        if p <= preferred and len(samples) * (100 - p) >= 100 * TAIL_MIN_BEYOND:
            return percentile(samples, p), p
    return percentile(samples, 50), 50


def slowest_quarter_mean(samples: list[float]) -> float:
    """Mean of the slowest quarter of ``samples`` (at least one of them).

    The tail figure where the sample is a few dozen values: one order
    statistic of so few moves by whatever separates two neighbours, their
    mean does not."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[-max(1, len(ordered) // 4):])


@contextmanager
def quiet_collector():
    """Collect now, then keep the cyclic collector off for one timed
    in-process pass, as ``timeit`` does.

    Whether a full collection of the harness's ~1M-object heap (0.13 s)
    lands inside a pass, and in which call, depends on allocation counters,
    not on the code under test: left on, ``DigestStream.close()`` measured
    0.07 s or 0.20 s depending on the process.  Daemons under test run
    with their collector as it is."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def self_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise WorkloadFailed(f"no VmHWM in /proc/{pid}/status")
