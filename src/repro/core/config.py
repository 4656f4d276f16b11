"""All tunables of the SyslogDigest pipeline in one place (paper Table 6)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mining.temporal import TemporalParams
from repro.utils.timeutils import HOUR


@dataclass(frozen=True)
class DigestConfig:
    """Pipeline configuration.

    Defaults follow the paper's Table 6 (dataset A column); per-dataset
    values are produced by the offline fitting steps.
    """

    # Template learning.
    tree_k: int = 10
    tree_min_support: int = 3
    max_messages_per_code: int | None = 4000

    # Association-rule mining.
    window: float = 120.0
    sp_min: float = 0.0005
    conf_min: float = 0.8

    # Temporal grouping.
    temporal: TemporalParams = field(default_factory=TemporalParams)

    # Cross-router grouping: max timestamp skew between two ends of a
    # link/session observing the same condition.
    cross_router_window: float = 1.0

    # Grouping-pass toggles (Table 7 rows: T, T+R, T+R+C).
    enable_temporal: bool = True
    enable_rules: bool = True
    enable_cross_router: bool = True

    # Online mode: a group with no new message for this long is finalized.
    # Must be at least s_max or open temporal groups could still grow.
    idle_flush: float = 3 * HOUR

    # Collector clock-skew tolerance (seconds): timestamps up to this far
    # behind the stream clock are clamped instead of rejected, so a
    # jittery UDP collector path cannot kill a live digest.
    skew_tolerance: float = 2.0

    # Sharded engines: number of shards the grouping passes are spread
    # over (1 = serial, 0 = one per CPU core), in batch and streaming
    # alike.  The stream is always partitioned by router — the only
    # sound shard axis for the temporal and rule passes, which never
    # relate messages on different routers.
    n_workers: int = 1

    # Streaming executor lane (DESIGN.md §12): the transport that
    # delivers DigestStream's per-shard steps.  "serial" (the default)
    # steps shards inline, "threads" uses a thread pool (GIL-bound),
    # "processes" keeps one persistent worker process per shard that
    # owns its ShardState across batches.  All three group
    # byte-identically; see the ledger rows
    # (benchmarks/ledger/README.md) before choosing another lane — none
    # has been measured faster than serial.  The shard count itself
    # comes from ``n_workers``.
    stream_workers: str = "serial"

    # Fault tolerance (streaming).  ``checkpoint_path`` + a positive
    # ``checkpoint_interval`` (stream-clock seconds between snapshots)
    # make DigestStream persist its state atomically at sweep boundaries
    # so a crashed digest can resume from the last checkpoint plus a
    # replay of the log tail.
    checkpoint_path: str | None = None
    checkpoint_interval: float = 0.0

    # Bounded-memory load shedding: when more than this many messages
    # are open at once, whole groups are force-finalized early until the
    # bound holds again (0 = unbounded, the default — shedding changes
    # output and must be opted into).  ``shed_policy`` picks the victim
    # order: "oldest" closes the longest-idle groups first, "largest"
    # the biggest groups first.
    max_open_messages: int = 0
    shed_policy: str = "oldest"

    # Knowledge hot-swap policy (DESIGN.md §9): "defer" adopts a newly
    # promoted knowledge base at the next epoch boundary (no groups
    # open — output-preserving), "drain" force-finalizes all open groups
    # and swaps immediately (bounded staleness, changes output).
    swap_policy: str = "defer"

    @property
    def flush_after(self) -> float:
        """Idle horizon after which a group can no longer grow.

        Also the horizon past which per-key temporal rhythm state is
        reset; batch and streaming engines share it so their groupings
        stay identical.
        """
        return max(
            self.idle_flush,
            self.temporal.s_max + self.window + self.cross_router_window,
        )

    def __post_init__(self) -> None:
        if self.skew_tolerance < 0:
            raise ValueError("skew_tolerance must be >= 0")
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0 (0 = one per core)")
        if self.stream_workers not in ("serial", "threads", "processes"):
            raise ValueError(
                f"stream_workers must be 'serial', 'threads' or "
                f"'processes', got {self.stream_workers!r}"
            )
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.max_open_messages < 0:
            raise ValueError("max_open_messages must be >= 0 (0 = unbounded)")
        if self.shed_policy not in ("oldest", "largest"):
            raise ValueError(
                f"shed_policy must be 'oldest' or 'largest', "
                f"got {self.shed_policy!r}"
            )
        if self.swap_policy not in ("defer", "drain"):
            raise ValueError(
                f"swap_policy must be 'defer' or 'drain', "
                f"got {self.swap_policy!r}"
            )

    def __setstate__(self, state: dict) -> None:
        # Checkpoints written before ``shard_by_router`` was retired
        # (always True) still carry it in their pickled configs.
        state.pop("shard_by_router", None)
        self.__dict__.update(state)

    def with_temporal(self, params: TemporalParams) -> DigestConfig:
        """Copy with different temporal-grouping parameters."""
        return replace(self, temporal=params)

    def with_workers(self, n_workers: int) -> DigestConfig:
        """Copy with a different worker count for the sharded engine."""
        return replace(self, n_workers=n_workers)

    def with_stream_workers(self, stream_workers: str) -> DigestConfig:
        """Copy with a different streaming executor lane."""
        return replace(self, stream_workers=stream_workers)

    def with_window(self, window: float) -> DigestConfig:
        """Copy with a different association-rule window."""
        return replace(self, window=window)

    def with_checkpointing(
        self, path: str, interval: float
    ) -> DigestConfig:
        """Copy with periodic streaming checkpoints enabled."""
        return replace(
            self, checkpoint_path=path, checkpoint_interval=interval
        )

    def with_shedding(
        self, max_open_messages: int, shed_policy: str = "oldest"
    ) -> DigestConfig:
        """Copy with bounded-memory load shedding enabled."""
        return replace(
            self,
            max_open_messages=max_open_messages,
            shed_policy=shed_policy,
        )

    def with_swap_policy(self, swap_policy: str) -> DigestConfig:
        """Copy with a different knowledge hot-swap policy."""
        return replace(self, swap_policy=swap_policy)

    def only_passes(
        self, temporal: bool = True, rules: bool = True, cross: bool = True
    ) -> DigestConfig:
        """Copy with a subset of grouping passes enabled."""
        return replace(
            self,
            enable_temporal=temporal,
            enable_rules=rules,
            enable_cross_router=cross,
        )


@dataclass(frozen=True)
class IngestConfig:
    """Tunables of the resilient multi-source ingest front-end (DESIGN.md §10).

    :class:`~repro.syslog.ingest.MultiSourceIngest` sits between raw
    per-source feeds and :class:`~repro.core.stream.DigestStream`; these
    knobs bound how much disorder it absorbs and when it gives up on a
    source.  The defaults are a strict no-op for a single in-order
    source: dedup, stall detection, and admission control are opt-in,
    and the reorder buffer only *delays* emission, never changes it.
    """

    # Watermark reordering: a source's low watermark trails its newest
    # timestamp by this many seconds; buffered messages at or below the
    # min watermark across live sources are flushed in deterministic
    # (timestamp, router, error_code, source, arrival) order.  Arrivals
    # behind the already-flushed frontier are dropped as *late*.
    max_reorder_delay: float = 60.0

    # Hard bound on buffered messages; overflow force-flushes the oldest
    # entries past the watermark (0 = unbounded).
    max_buffer_messages: int = 10_000

    # Windowed duplicate suppression: a message whose full content
    # (timestamp, router, error_code, detail) was already admitted is
    # suppressed; entries are remembered for this many seconds past the
    # watermark (0 = dedup off — suppression changes output, opt in).
    dedup_window: float = 0.0

    # Circuit breaker: consecutive failures (parse errors, stalls) that
    # trip a source from closed to open.
    breaker_failure_threshold: int = 5

    # Half-open probe schedule, realized through
    # :class:`repro.syslog.resilient.RetryPolicy` — probe i after the
    # policy's i-th exponential delay; the final delay repeats once the
    # schedule is exhausted.  Stall-opened breakers probe immediately on
    # the next arrival (the arrival itself ends the stall).
    probe_base_delay: float = 60.0
    probe_max_retries: int = 6

    # A closed source whose last arrival trails the ingest clock by more
    # than this many seconds is opened with reason "stall" so it stops
    # holding back the global watermark (0 = stall detection off).
    stall_timeout: float = 0.0

    # Admission control: with buffered + stream-open messages at or past
    # the soft limit, arrivals from unhealthy sources (breaker not
    # closed, or consecutive failures pending) are shed; past the hard
    # limit every arrival is shed.  Both 0 = off.  Set these *below*
    # ``DigestConfig.max_open_messages`` so ingest sheds by source
    # health before the stream's whole-group shedding ever triggers.
    admit_soft_limit: int = 0
    admit_hard_limit: int = 0

    def __post_init__(self) -> None:
        if self.max_reorder_delay < 0:
            raise ValueError("max_reorder_delay must be >= 0")
        if self.max_buffer_messages < 0:
            raise ValueError("max_buffer_messages must be >= 0 (0 = unbounded)")
        if self.dedup_window < 0:
            raise ValueError("dedup_window must be >= 0 (0 = off)")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.probe_base_delay < 0:
            raise ValueError("probe_base_delay must be >= 0")
        if self.probe_max_retries < 0:
            raise ValueError("probe_max_retries must be >= 0")
        if self.stall_timeout < 0:
            raise ValueError("stall_timeout must be >= 0 (0 = off)")
        if self.admit_soft_limit < 0 or self.admit_hard_limit < 0:
            raise ValueError("admission limits must be >= 0 (0 = off)")
        if (
            self.admit_soft_limit
            and self.admit_hard_limit
            and self.admit_soft_limit > self.admit_hard_limit
        ):
            raise ValueError("admit_soft_limit must be <= admit_hard_limit")

    def for_stream(self, config: DigestConfig) -> IngestConfig:
        """Copy with admission limits derived from a stream's open bound.

        Places the soft limit at 80% and the hard limit at 95% of
        ``config.max_open_messages`` so ingest-side shedding (by source
        health) always engages before the stream's own whole-group
        shedding.  A stream without an open bound leaves admission off.
        """
        if not config.max_open_messages:
            return self
        return replace(
            self,
            admit_soft_limit=max(1, int(config.max_open_messages * 0.8)),
            admit_hard_limit=max(1, int(config.max_open_messages * 0.95)),
        )
