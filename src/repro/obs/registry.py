"""The metrics registry: counters, gauges, streaming histograms, timers.

Dependency-free runtime instrumentation for the digest pipeline.  One
process-wide :class:`MetricsRegistry` (see :func:`get_registry`) is the
default sink; hot paths accumulate into plain ints and flush at stage or
sweep granularity, so the enabled path stays near-free and the
:class:`NullRegistry` path is a handful of attribute lookups.

Metric naming follows Prometheus conventions: counters end in
``_total``, timers are histograms in seconds, labels carry the variable
part (``stage=\"rule_pass\"``, ``shard=\"3\"``).  Exposition formats live
in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import contextmanager
from time import perf_counter

# Label sets are canonicalized to sorted (key, value) tuples so the same
# labels always address the same series.
LabelItems = tuple[tuple[str, str], ...]
SeriesKey = tuple[str, LabelItems]

# ----------------------------------------------------------------- metric names

#: Per-stage wall time of the offline/online pipeline stages (seconds).
STAGE_SECONDS = "syslogdigest_stage_seconds"

#: Sharded engine: messages assigned to each shard (gauge, label shard=).
SHARD_MESSAGES = "syslogdigest_shard_messages"
#: Sharded engine: wall seconds of each shard's task (gauge, label shard=).
SHARD_SECONDS = "syslogdigest_shard_seconds"
#: Sharded engine: per-task wall time distribution (histogram).
SHARD_TASK_SECONDS = "syslogdigest_shard_task_seconds"
#: LPT plan imbalance: heaviest shard / mean shard load (gauge, >= 1).
SHARD_IMBALANCE = "syslogdigest_shard_imbalance"

#: DigestStream health gauges/counters (updated at every finalize sweep).
STREAM_OPEN_MESSAGES = "syslogdigest_stream_open_messages"
STREAM_SPLITTERS = "syslogdigest_stream_splitters"
STREAM_WINDOW_ENTRIES = "syslogdigest_stream_window_entries"
STREAM_WATERMARK_LAG = "syslogdigest_stream_watermark_lag_seconds"
STREAM_EVICTED = "syslogdigest_stream_evicted_splitters_total"
STREAM_PRUNED = "syslogdigest_stream_pruned_entries_total"
STREAM_SKEW_CLAMPED = "syslogdigest_stream_skew_clamped_total"
STREAM_SKEW_REJECTED = "syslogdigest_stream_skew_rejected_total"
STREAM_FINALIZED = "syslogdigest_stream_finalized_events_total"

#: Load shedding (bounded-memory streaming): force-finalized groups and
#: the messages inside them.
STREAM_SHED_EVENTS = "syslogdigest_stream_shed_events_total"
STREAM_SHED_MESSAGES = "syslogdigest_stream_shed_messages_total"
#: Checkpointing: snapshots written, plus the stream-clock age of the
#: newest one (gauge; -1 before the first checkpoint).
CHECKPOINT_WRITES = "syslogdigest_checkpoint_writes_total"
CHECKPOINT_AGE = "syslogdigest_checkpoint_age_seconds"
CHECKPOINT_BYTES = "syslogdigest_checkpoint_bytes"

#: Quarantine (dead-letter queue for unparseable/rejected input).
QUARANTINED = "syslogdigest_quarantined_total"
QUARANTINE_DEPTH = "syslogdigest_quarantine_depth"
QUARANTINE_OVERFLOW = "syslogdigest_quarantine_overflow_total"

#: Resilient source reading: retries taken and sources abandoned after
#: the retry budget ran out.
INGEST_RETRIES = "syslogdigest_ingest_retries_total"
INGEST_FAILURES = "syslogdigest_ingest_failed_sources_total"

#: Sharded engine fault recovery: worker tasks retried after an
#: exception and tasks that fell back to in-process serial execution.
SHARD_RETRIES = "syslogdigest_shard_retries_total"
SHARD_FALLBACKS = "syslogdigest_shard_fallbacks_total"

#: Streaming worker processes (DESIGN.md §12): parent <-> worker
#: round-trips (``cmd=`` is the ShardState method requested), their
#: fan-out wall time, and how many worker processes are currently alive.
STREAM_WORKER_ROUNDTRIPS = "syslogdigest_stream_worker_roundtrips_total"
STREAM_WORKER_RTT_SECONDS = "syslogdigest_stream_worker_roundtrip_seconds"
STREAM_WORKER_PROCS = "syslogdigest_stream_worker_processes"

#: Multi-source ingest front-end (DESIGN.md §10).  Per-source series
#: carry a ``source=`` label; the breaker-state gauge encodes
#: closed=0, half_open=1, open=2.
INGEST_BUFFERED = "syslogdigest_ingest_buffered_messages"
INGEST_WATERMARK_LAG = "syslogdigest_ingest_watermark_lag_seconds"
INGEST_ADMITTED = "syslogdigest_ingest_admitted_total"
INGEST_LATE_DROPPED = "syslogdigest_ingest_late_dropped_total"
INGEST_DEDUPLICATED = "syslogdigest_ingest_deduplicated_total"
INGEST_SEQ_GAPS = "syslogdigest_ingest_sequence_gaps_total"
INGEST_FORCED_FLUSHES = "syslogdigest_ingest_forced_flushes_total"
INGEST_ADMISSION_SHED = "syslogdigest_ingest_admission_shed_total"
BREAKER_STATE = "syslogdigest_ingest_breaker_state"
BREAKER_TRANSITIONS = "syslogdigest_ingest_breaker_transitions_total"
BREAKER_REJECTED = "syslogdigest_ingest_breaker_rejected_total"

#: Fault-injection harness: faults applied, labelled by kind.
FAULTS_INJECTED = "syslogdigest_faults_injected_total"

#: Collector-path degradation counters.
COLLECTOR_DELIVERED = "syslogdigest_collector_delivered_total"
COLLECTOR_DROPPED = "syslogdigest_collector_dropped_total"
COLLECTOR_DUPLICATED = "syslogdigest_collector_duplicated_total"
COLLECTOR_JITTERED = "syslogdigest_collector_jittered_total"

#: Batch digest totals.
DIGEST_RUNS = "syslogdigest_digest_runs_total"
DIGEST_MESSAGES = "syslogdigest_digest_messages_total"
DIGEST_EVENTS = "syslogdigest_digest_events_total"

#: Knowledge lifecycle (DESIGN.md §9): the versioned model store and the
#: validation-gated promotion path.  ``KB_ACTIVE_VERSION`` is an info
#: gauge holding the currently served version id; promotions are counted
#: by outcome (``outcome="accepted"|"rejected"``); churn gauges hold the
#: last gate evaluation's rule-pair add/delete counts
#: (``kind="added"|"deleted"``); canary quality gauges hold the last
#: replay's numbers per side (``side="active"|"candidate"``,
#: ``metric="compression_ratio"|"template_match_rate"|"event_recall"``).
KB_ACTIVE_VERSION = "syslogdigest_kb_active_version"
KB_PROMOTIONS = "syslogdigest_kb_promotions_total"
KB_ROLLBACKS = "syslogdigest_kb_rollbacks_total"
KB_RULE_CHURN = "syslogdigest_kb_rule_churn"
KB_QUALITY = "syslogdigest_kb_canary_quality"

#: Live hot-swap of a promoted knowledge base into a running stream:
#: completed epoch-boundary swaps, plus whether one is still deferred.
STREAM_KB_SWAPS = "syslogdigest_stream_kb_swaps_total"
STREAM_KB_SWAP_PENDING = "syslogdigest_stream_kb_swap_pending"

#: Serve daemon (DESIGN.md §13): per-tenant supervision and HTTP API.
#: ``SERVE_TENANT_STATE`` is a gauge holding the supervisor state as an
#: index into ``repro.serve.supervisor.STATES`` (same idiom as
#: ``BREAKER_STATE``); transitions are counted per target state.
SERVE_TENANT_STATE = "syslogdigest_serve_tenant_state"
SERVE_TRANSITIONS = "syslogdigest_serve_transitions_total"
SERVE_RESTARTS = "syslogdigest_serve_restarts_total"
SERVE_ARRIVALS = "syslogdigest_serve_arrivals_total"
SERVE_EVENTS = "syslogdigest_serve_events_total"
SERVE_HTTP_REQUESTS = "syslogdigest_serve_http_requests_total"

#: Live tailing (byte-offset cursors over rotating source logs) and
#: disk-fault degradation.  Rotations/truncations count per source;
#: lag is a gauge of unread bytes behind the cursor; durable-write
#: failures count degrade-don't-crash events per tenant and site.
TAIL_ROTATIONS = "syslogdigest_tail_rotations_total"
TAIL_TRUNCATIONS = "syslogdigest_tail_truncations_total"
TAIL_LAG_BYTES = "syslogdigest_tail_lag_bytes"
DURABLE_WRITE_FAILURES = "syslogdigest_durable_write_failures_total"

#: Bulkhead tenant placement (DESIGN.md §15): per-tenant worker
#: processes and resource budgets.  ``BUDGET_LIMIT``/``BUDGET_USED``
#: are gauge pairs per ``{tenant, budget}`` (0 limit = unbounded);
#: breaches count deterministic budget violations that degraded — not
#: killed — the tenant.  Worker deaths count per ``{tenant, reason}``
#: (``exit`` | ``stuck`` | ``rpc-deadline`` | ``spawn``); the workers
#: gauge holds live per-tenant worker processes.  HTTP rejections
#: count hardening refusals per ``{reason}`` (``deadline`` | ``headers``
#: | ``body`` | ``waiters``); the long-poll gauge holds blocked event
#: subscribers per tenant.
BUDGET_LIMIT = "syslogdigest_tenant_budget_limit"
BUDGET_USED = "syslogdigest_tenant_budget_used"
BUDGET_BREACHES = "syslogdigest_tenant_budget_breaches_total"
OVER_BUDGET = "syslogdigest_tenant_over_budget"
PLACEMENT_WORKERS = "syslogdigest_placement_workers"
PLACEMENT_WORKER_DEATHS = "syslogdigest_placement_worker_deaths_total"
SERVE_HTTP_REJECTED = "syslogdigest_http_rejected_total"
SERVE_LONGPOLL_WAITERS = "syslogdigest_longpoll_waiters"

#: Default histogram bounds, tuned for stage timings (10 us .. 5 min).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2,
    0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)


class Histogram:
    """Fixed-bucket streaming histogram with quantile estimates.

    Buckets are cumulative-``le`` style (Prometheus exposition);
    quantiles are linearly interpolated inside the bucket the rank falls
    into, clamped to the observed min/max so small samples cannot report
    values outside the data.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (q in [0, 1]) of the observed samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cum + n >= rank:
                lower = self.bounds[i - 1] if i > 0 else self.vmin
                upper = (
                    self.bounds[i] if i < len(self.bounds) else self.vmax
                )
                frac = (rank - cum) / n
                value = lower + frac * (upper - lower)
                return min(max(value, self.vmin), self.vmax)
            cum += n
        return self.vmax

    def snapshot(self) -> dict[str, float]:
        """JSON-friendly summary of the distribution."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


def _series_key(name: str, labels: dict[str, str]) -> SeriesKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class _Timer:
    """Context manager observing its wall time into a histogram."""

    __slots__ = ("_registry", "_name", "_labels", "_t0")

    def __init__(
        self, registry: MetricsRegistry, name: str, labels: dict[str, str]
    ) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels

    def __enter__(self) -> _Timer:
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.observe(
            self._name, perf_counter() - self._t0, **self._labels
        )


class _NullTimer:
    """Shared do-nothing context manager for the no-op registry path."""

    __slots__ = ()

    def __enter__(self) -> _NullTimer:
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms.

    Series are addressed by (metric name, sorted label items); all
    mutation goes through :meth:`inc` / :meth:`set_gauge` /
    :meth:`observe` under one lock, which the streaming thread pool in
    :meth:`repro.core.stream.DigestStream.push_many` relies on.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[SeriesKey, float] = {}
        self._gauges: dict[SeriesKey, float] = {}
        self._histograms: dict[SeriesKey, Histogram] = {}

    # ------------------------------------------------------------- mutation

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        """Add ``value`` to the counter series (creating it at 0)."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the gauge series to ``value``."""
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record ``value`` into the histogram series."""
        key = _series_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    def timer(self, name: str, **labels: str):
        """Context manager timing its block into histogram ``name``."""
        return _Timer(self, name, labels)

    def reset(self) -> None:
        """Drop every series (tests, fresh CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------ inspection

    def counters(self) -> dict[SeriesKey, float]:
        """Snapshot of all counter series."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[SeriesKey, float]:
        """Snapshot of all gauge series."""
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> dict[SeriesKey, Histogram]:
        """Snapshot of all histogram series (live objects; read-only use)."""
        with self._lock:
            return dict(self._histograms)

    def counter_value(self, name: str, **labels: str) -> float:
        """Current value of one counter series (0.0 if absent)."""
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: str) -> float | None:
        """Current value of one gauge series (None if absent)."""
        with self._lock:
            return self._gauges.get(_series_key(name, labels))

    def histogram(self, name: str, **labels: str) -> Histogram | None:
        """One histogram series (None if absent)."""
        with self._lock:
            return self._histograms.get(_series_key(name, labels))


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — the measured-zero-overhead path."""

    enabled = False

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        pass

    def observe(self, name: str, value: float, **labels: str) -> None:
        pass

    def timer(self, name: str, **labels: str):
        return _NULL_TIMER


# The process-wide default sink.  Default-on: operators get metrics
# without opting in; `set_registry(NullRegistry())` turns the pipeline's
# instrumentation into no-ops.
_REGISTRY: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module reports to."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def scoped_registry(registry: MetricsRegistry):
    """Temporarily swap the process-wide registry (tests, benches)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def stage_timer(stage: str, registry: MetricsRegistry | None = None):
    """Time one pipeline stage into ``syslogdigest_stage_seconds{stage=}``."""
    reg = registry if registry is not None else _REGISTRY
    return reg.timer(STAGE_SECONDS, stage=stage)
