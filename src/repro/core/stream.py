"""Incremental, message-by-message digesting.

:class:`DigestStream` maintains the grouping state machines online and
finalizes a group once it has been idle longer than every horizon that
could still attach a message to it (``s_max`` for temporal grouping, ``W``
for rules, the cross-router skew).  Batch :meth:`SyslogDigest.digest` and a
push-everything-then-close stream produce identical groupings; a test pins
that equivalence.

Grouping state is factored into :class:`~repro.core.shards.ShardState`
instances holding the per-router machinery (temporal splitters, rule
windows).  Because the temporal and rule passes never relate messages
on different routers, the stream can be partitioned by router across
several shard states whose steps are independent; *how* they are stepped
is the business of the one :class:`~repro.core.shards.ShardExecutor`
(DESIGN.md §12) and can never change a digest.  ``serial`` is the
default lane; ``threads`` and ``processes`` stay selectable behind
``DigestConfig.stream_workers`` and group byte-identically.  The
cross-router window and the union-find stay global in every lane.
Long-running streams stay bounded: splitters idle past the flush horizon
are evicted (and lazily reset on next touch, mirroring the batch engine
exactly), and window entries of finalized messages are dropped at every
finalize sweep.

Fault tolerance (DESIGN.md §8): the full grouping state can be captured
with :meth:`DigestStream.snapshot` and rebuilt with
:meth:`DigestStream.restore` (periodic atomic checkpoints via
``DigestConfig.checkpoint_path``/``checkpoint_interval``, see
:mod:`repro.core.checkpoint`) — the process lane's worker states ride
through the same snapshot, so checkpoints restore across lanes.  A shard
whose step raises mid-batch is retried once and then resumed hook-free,
always from *exactly* the first unapplied message
(:func:`~repro.core.shards.run_ladder`).  ``max_open_messages`` turns on
load shedding (whole groups force-finalized early, oldest first).

Knowledge lifecycle (DESIGN.md §9): a promoted
:class:`~repro.core.knowledge.KnowledgeBase` can be hot-swapped into a
live stream with :meth:`DigestStream.request_swap`.  The swap is
deferred to an *epoch boundary* — the first moment no groups are open —
so no event ever mixes two knowledge versions; ``swap_policy="drain"``
force-finalizes the open groups instead of waiting.  A pending swap is
deliberately **not** checkpointed: a restored stream resumes under the
version it was checkpointed with, and the swap must be re-requested.
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Callable, Iterable
from itertools import chain

from repro.core.config import DigestConfig
from repro.core.events import NetworkEvent
from repro.core.grouping import Edge, build_rule_partners, cross_window
from repro.core.knowledge import KnowledgeBase
from repro.core.present import event_label
from repro.core.priority import Prioritizer

# StepItem and ShardState are re-exported: checkpoints written before
# the move to core/shards.py pickle ``repro.core.stream.StepItem`` by
# module path, and must keep loading.
from repro.core.shards import (  # noqa: F401
    ShardExecutor,
    ShardState,
    StepItem,
    resolve_workers,
)
from repro.core.syslogplus import Augmenter, SyslogPlus
from repro.obs import (
    CHECKPOINT_AGE,
    STREAM_EVICTED,
    STREAM_FINALIZED,
    STREAM_KB_SWAP_PENDING,
    STREAM_KB_SWAPS,
    STREAM_OPEN_MESSAGES,
    STREAM_PRUNED,
    STREAM_SHED_EVENTS,
    STREAM_SHED_MESSAGES,
    STREAM_SKEW_CLAMPED,
    STREAM_SKEW_REJECTED,
    STREAM_SPLITTERS,
    STREAM_WATERMARK_LAG,
    STREAM_WINDOW_ENTRIES,
    STREAM_WORKER_PROCS,
    MetricsRegistry,
    get_registry,
)
from repro.syslog.message import SyslogMessage
from repro.utils.unionfind import UnionFind

#: Snapshot format version, bumped whenever :meth:`DigestStream.snapshot`
#: changes shape; :mod:`repro.core.checkpoint` refuses mismatches.
#: v4: temporal splitter keys hold Location objects (not strings) and
#: cross-window entries carry each message's precomputed local locations.
#: v5: rule-window entries hold slim :class:`StepItem` tuples instead of
#: full Syslog+ objects (every executor lane steps on StepItems, so a
#: checkpoint written under one ``stream_workers`` lane restores
#: byte-identically under any other).
#: v6: an attached ingest snapshot carries live-tail committed cursors
#: (ingest snapshot v2), so checkpoints resume byte-offset tailing.
SNAPSHOT_VERSION = 6

def _step_item(plus: SyslogPlus) -> StepItem:
    return StepItem(
        plus.index,
        plus.timestamp,
        plus.router,
        plus.template_key,
        plus.primary_location,
    )


#: The cumulative health counters, by snapshot key, and the metric each
#: is flushed to.  The stream keeps them as one dict that a checkpoint
#: carries verbatim.
COUNTER_METRICS: dict[str, str] = {
    "evicted": STREAM_EVICTED,
    "pruned": STREAM_PRUNED,
    "skew_clamped": STREAM_SKEW_CLAMPED,
    "skew_rejected": STREAM_SKEW_REJECTED,
    "finalized": STREAM_FINALIZED,
    "shed_events": STREAM_SHED_EVENTS,
    "shed_messages": STREAM_SHED_MESSAGES,
    "swaps": STREAM_KB_SWAPS,
}

#: Every key :meth:`DigestStream.health` reports, documented in one
#: place (DESIGN.md §8 renders this table; tests pin the key set).
HEALTH_KEYS: dict[str, str] = {
    "open_messages": "messages admitted but not yet finalized",
    "splitters": "live temporal splitters across all shards",
    "window_entries": (
        "live rule + cross-router window entries "
        "(a matched bucket keeps only its newest)"
    ),
    "watermark_lag_seconds": "stream clock minus oldest open timestamp",
    "evicted_splitters": "idle splitters dropped by sweeps (cumulative)",
    "pruned_entries": (
        "window/tail entries of finalized messages dropped "
        "(cumulative; bucket collapses are not prunes)"
    ),
    "skew_clamped": "late-but-tolerated timestamps clamped (cumulative)",
    "skew_rejected": "pushes refused beyond skew tolerance (cumulative)",
    "finalized_events": "events emitted so far (cumulative)",
    "shed_events": "groups force-finalized by load shedding (cumulative)",
    "shed_messages": "messages inside shed groups (cumulative)",
    "quarantine_depth": "records held by the attached quarantine (0 if none)",
    "quarantine_total": "inputs ever quarantined (0 if none attached)",
    "checkpoint_age_seconds": (
        "monotonic seconds since last checkpoint (-1 if never)"
    ),
    "kb_swaps": "completed epoch-boundary knowledge swaps (cumulative)",
    "kb_swap_pending": "1 while a requested swap awaits its epoch boundary",
}


class DigestStream:
    """Online digester: ``push`` messages in time order, collect events.

    With ``config.n_workers`` other than 1 (0 = one per core) the
    per-router grouping state is partitioned across that many
    :class:`ShardState` instances, stepped on the executor lane selected
    by ``config.stream_workers`` — inline (the default), on a thread
    pool, or on persistent per-shard worker processes.  The grouping is
    identical for any worker count and any lane.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        config: DigestConfig | None = None,
        sweep_interval: float = 300.0,
        fault_hook: Callable[[int, int], None] | None = None,
        kb_version: int | str | None = None,
        step_fault_hook: Callable[[int, int, int], None] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._kb = kb
        self._config = config or DigestConfig()
        if self._config.temporal != kb.temporal:
            self._config = self._config.with_temporal(kb.temporal)
        self._augmenter = Augmenter(kb.templates, kb.dictionary)
        self._prioritizer = Prioritizer(kb)
        self._partners = build_rule_partners(kb.rule_pairs())

        self._uf: UnionFind = UnionFind()
        self._open: dict[int, SyslogPlus] = {}  # index -> message
        self._last_ts: float | None = None
        self._last_sweep: float | None = None
        self._sweep_interval = sweep_interval
        # Health accounting: plain ints on the hot path, flushed to the
        # metrics registry only at sweep granularity.
        self._counts: dict[str, int] = dict.fromkeys(COUNTER_METRICS, 0)
        self._emitted: dict[str, float] = {}
        self._quarantine = None  # attached via attach_quarantine()
        self._ingest = None  # attached via attach_ingest()
        self._restored_ingest: dict | None = None
        # Checkpoint bookkeeping runs on two clocks.  The *interval*
        # decision uses the stream clock (message time), so checkpoint
        # cadence is deterministic and replayable.  The *age* health key
        # uses an injected monotonic clock: message timestamps jump
        # backwards across supervisor restarts and NTP steps, so wiring
        # the age to them reported negative or absurd values.  The clock
        # is injectable so supervisors and tests can pin it.
        self._clock = clock if clock is not None else time.monotonic
        self._last_checkpoint_stream_ts: float | None = None
        self._last_checkpoint_mono: float | None = None

        # Knowledge lifecycle: the version id this stream serves (opaque
        # to the stream; the model store's integer when store-backed) and
        # the not-yet-adopted base of a deferred hot swap.
        self._kb_version = kb_version
        self._pending_kb: KnowledgeBase | None = None
        self._pending_kb_version: int | str | None = None

        self._n_shards = resolve_workers(self._config.n_workers)
        # fault_hook / step_fault_hook are ShardState's fault-injection
        # seams.  The process lane ships them to its workers at spawn,
        # so they must be picklable there (see
        # repro.netsim.faults.StreamWorkerFault / MidStepFault).
        self._exec = ShardExecutor(
            self._config.stream_workers,
            self._n_shards,
            kb,
            self._config,
            self._partners,
            fault_hook,
            step_fault_hook,
        )
        # router -> shard index, so the per-message hot path hashes the
        # router name once instead of crc32-ing it on every push.  Router
        # names are external input; clear-on-full bounds the table.
        self._router_shard: dict[str, int] = {}
        # (arrival ts, message, its local locations) entries; global
        # because the cross-router pass relates messages across shards.
        self._cross_window = cross_window(
            kb.dictionary, self._config.cross_router_window
        )

    @property
    def flush_after(self) -> float:
        """Idle horizon after which a group can no longer grow."""
        return self._config.flush_after

    @property
    def stream_lane(self) -> str:
        """The executor lane actually running — may differ from the
        configured one, see :class:`ShardExecutor`."""
        return self._exec.lane

    def shutdown_workers(self) -> None:
        """Stop the process lane's workers (no-op for in-process lanes).

        Daemon workers die with the interpreter anyway; this reclaims
        them promptly.  The stream must not be pushed to, swept, or
        snapshotted afterwards.
        """
        self._exec.shutdown()

    def set_shedding(
        self, max_open_messages: int, shed_policy: str = "oldest"
    ) -> list[NetworkEvent]:
        """Re-bound load shedding on a live stream (degraded mode).

        Shedding knobs are runtime memory bounds, not grouping
        parameters — tightening them mid-flight never invalidates open
        state, it only force-finalizes groups sooner from here on.  The
        serve supervisor uses this to restart a crash-looping tenant in
        shed mode from its unmodified checkpoint (a checkpoint restores
        only under a *matching* grouping config).  The new bound rides
        into subsequent snapshots, so a degraded tenant's checkpoints
        restore degraded.

        Sheds immediately when the restored state already exceeds the
        new bound, returning the force-finalized events — a degraded
        restart cannot wait for the next push, because the matching
        admission control refuses pushes until open count falls below
        the bound.
        """
        self._config = self._config.with_shedding(
            max_open_messages, shed_policy
        )
        return self._shed()

    def _shard_index(self, router: str) -> int:
        if self._n_shards == 1:
            return 0
        shard_id = self._router_shard.get(router)
        if shard_id is None:
            if len(self._router_shard) >= 1 << 16:
                self._router_shard.clear()
            shard_id = zlib.crc32(router.encode()) % self._n_shards
            self._router_shard[router] = shard_id
        return shard_id

    def _admit(self, message: SyslogMessage) -> tuple[SyslogPlus, float]:
        """Validate ordering/skew, augment, register; return (plus, now)."""
        tolerance = self._config.skew_tolerance
        if (
            self._last_ts is not None
            and message.timestamp < self._last_ts - tolerance
        ):
            self._counts["skew_rejected"] += 1
            raise ValueError(
                "messages must be pushed in non-decreasing time order "
                f"(got {message.timestamp}, stream clock {self._last_ts}, "
                f"skew tolerance {tolerance}s)"
            )
        if self._last_ts is not None and message.timestamp < self._last_ts:
            self._counts["skew_clamped"] += 1
        # The stream clock never runs backwards; a slightly-late message
        # is processed as if it arrived at the current clock.
        now = (
            message.timestamp
            if self._last_ts is None
            else max(message.timestamp, self._last_ts)
        )
        self._last_ts = now
        plus = self._augmenter.augment(message)
        self._uf.add(plus.index)
        self._open[plus.index] = plus
        return plus, now

    def push(self, message: SyslogMessage) -> list[NetworkEvent]:
        """Process one message; return any events finalized by its arrival.

        One hook-free :meth:`ShardState.step` over the transport: a
        single message has no prefix to resume, so it skips the ladder.
        """
        swapped: list[NetworkEvent] = []
        if self._pending_kb is not None:
            # Before admitting, see whether the gap up to this message
            # put every open group past its idle horizon — if so this
            # instant is an epoch boundary and the pending base adopts.
            swapped = self._swap_boundary(message.timestamp)
        plus, now = self._admit(message)
        shard_id = self._shard_index(plus.router)
        request = {shard_id: ("step", (_step_item(plus), now))}
        out = self._merge([(plus, now)], self._exec.call(request)[shard_id])
        return swapped + out if swapped else out

    def push_many(
        self, messages: Iterable[SyslogMessage]
    ) -> list[NetworkEvent]:
        """Push a time-ordered batch, sharding the per-router passes.

        One unit of work per shard, each stepping its messages in
        arrival order on the executor; the cross-router pass and the
        union-find merge then run once over the whole batch.  Produces
        the same grouping as message-by-message :meth:`push`.

        While a knowledge hot swap is pending, messages are processed
        one at a time through :meth:`push` until the swap adopts:
        :meth:`push` re-checks the epoch boundary before every message,
        so adoption lands at the same intra-batch instant it would under
        per-message pushing (a hot-swap test pins it).  Pending swaps
        are transient, so the per-message prefix ends at the adoption
        boundary and the batch path resumes.
        """
        incoming = list(messages)
        out: list[NetworkEvent] = []
        start = 0
        while start < len(incoming) and self._pending_kb is not None:
            out.extend(self.push(incoming[start]))
            start += 1
        if start == len(incoming):
            return out

        batch = [self._admit(message) for message in incoming[start:]]
        per_shard: dict[int, list[tuple[StepItem, float]]] = {}
        for plus, now in batch:
            per_shard.setdefault(
                self._shard_index(plus.router), []
            ).append((_step_item(plus), now))
        edge_lists = self._exec.step_many(per_shard)
        out.extend(
            self._merge(batch, chain.from_iterable(edge_lists.values()))
        )
        return out

    def _merge(
        self,
        batch: list[tuple[SyslogPlus, float]],
        shard_edges: Iterable[Edge],
    ) -> list[NetworkEvent]:
        """Union the shard edges, run the cross-router pass, sweep, shed."""
        for a, b in shard_edges:
            self._uf.union(a, b)
        if self._config.enable_cross_router:
            edges: list[Edge] = []
            for plus, now in batch:
                template = plus.template_key
                locs = plus.local_locations()
                self._cross_window.relate(
                    (template,),
                    template,
                    (plus.router, locs),
                    (now, plus, locs),
                    edges,
                )
            for a, b in edges:
                self._uf.union(a, b)
        events = self._maybe_sweep(batch[-1][1])
        shed = self._shed()
        return events + shed if shed else events

    def close(self) -> list[NetworkEvent]:
        """Finalize and return all remaining open groups."""
        events = self._collect_groups(lambda _last: True)
        if self._pending_kb is not None:
            self._adopt()  # everything finalized: trivially a boundary
        self.record_metrics()
        return events

    # ------------------------------------------------------ knowledge swap

    @property
    def kb_version(self) -> int | str | None:
        """Version id of the currently served knowledge base."""
        return self._kb_version

    @property
    def swap_pending(self) -> bool:
        """True while a requested swap awaits its epoch boundary."""
        return self._pending_kb is not None

    @property
    def n_swaps(self) -> int:
        """Completed knowledge swaps over this stream's lifetime."""
        return self._counts["swaps"]

    def request_swap(
        self,
        kb: KnowledgeBase,
        version: int | str | None = None,
    ) -> list[NetworkEvent]:
        """Hot-swap to a newly promoted base without mixing versions.

        Under the default ``swap_policy="defer"`` the swap happens at
        the next *epoch boundary* — the first instant no groups are open
        (checked before each subsequent push, so a quiet gap longer than
        the flush horizon becomes the boundary).  Until then the stream
        keeps serving its current base; a second request simply replaces
        the pending candidate.  Under ``swap_policy="drain"`` all open
        groups are force-finalized immediately instead.

        Returns whatever events the boundary search finalized (empty
        when the swap stays pending).
        """
        self._pending_kb = kb
        self._pending_kb_version = version
        if self._config.swap_policy == "drain":
            return self.swap_now()
        if self._last_ts is None:
            self._adopt()  # nothing admitted yet: trivially a boundary
            return []
        return self._swap_boundary(self._last_ts)

    def swap_now(self) -> list[NetworkEvent]:
        """Drain: force-finalize every open group, then adopt.

        Changes output relative to a never-swapped run (groups close
        before their idle horizon) — that is the price of an immediate
        swap; :meth:`request_swap` with the default deferred policy does
        not pay it.
        """
        if self._pending_kb is None:
            raise ValueError("no swap pending; call request_swap() first")
        events = self._collect_groups(lambda _last: True)
        self._adopt()
        self.record_metrics()
        return events

    def _swap_boundary(self, upcoming_ts: float) -> list[NetworkEvent]:
        """Finalize idle groups; adopt the pending base if none remain."""
        now = (
            upcoming_ts
            if self._last_ts is None
            else max(upcoming_ts, self._last_ts)
        )
        events = self._finalize_idle(now)
        if not self._open:
            self._adopt()
        return events

    def _adopt(self) -> None:
        """Switch every component over to the pending knowledge base.

        Only called when no groups are open, which also means the rule,
        cross-router, and temporal-tail windows are empty — no event can
        mix messages augmented under different versions.  The augmenter
        counter is preserved so global message indices stay unique, and
        shard splitters keep their learned rhythm unless the temporal
        parameters changed.
        """
        kb = self._pending_kb
        assert kb is not None
        reset_splitters = kb.temporal != self._kb.temporal
        self._pending_kb = None
        self._kb = kb
        self._kb_version = self._pending_kb_version
        self._pending_kb_version = None
        if self._config.temporal != kb.temporal:
            self._config = self._config.with_temporal(kb.temporal)
        counter = self._augmenter._counter
        self._augmenter = Augmenter(kb.templates, kb.dictionary)
        self._augmenter._counter = counter
        self._prioritizer = Prioritizer(kb)
        self._partners = build_rule_partners(kb.rule_pairs())
        self._cross_window = cross_window(  # empty here
            kb.dictionary, self._config.cross_router_window
        )
        # The one re-broadcast of the stream's lifetime: the process
        # lane ships the adopted base to every worker here.
        self._exec.broadcast(
            "adopt", kb, self._config, self._partners, reset_splitters
        )
        self._counts["swaps"] += 1

    # ------------------------------------------------------- snapshot/restore

    def snapshot(self) -> dict:
        """Capture the complete streaming state as a picklable dict.

        Everything the grouping depends on rides along: the stream
        clock, per-shard splitters and windows, the cross-router window,
        open messages, the union-find partition over them, the augmenter
        index counter, and the health counters.  A fresh stream restored
        from this snapshot continues *byte-identically* to one that was
        never interrupted (a test pins that).

        The served ``kb_version`` rides along so a store-backed resume
        can reload exactly the base this state was grouped under.  A
        *pending* swap does not: the knowledge lifecycle is the model
        store's domain, so a restored stream resumes under the
        checkpointed version and the swap must be re-requested.

        Only the partition over open indices is kept: once a group
        finalizes, every window/tail entry referencing it has been
        pruned, so finalized indices can never union with open ones
        again.
        """
        components: list[list[int]] = []
        for members in self._open_groups().values():
            components.append([plus.index for plus in members])
        return {
            "version": SNAPSHOT_VERSION,
            "config": self._config,
            "kb_version": self._kb_version,
            "n_shards": self._n_shards,
            "last_ts": self._last_ts,
            "last_sweep": self._last_sweep,
            "sweep_interval": self._sweep_interval,
            "n_admitted": self._augmenter._counter,
            "open": dict(self._open),
            "components": components,
            "shards": self._exec.broadcast("snapshot"),
            "cross_window": self._cross_window.flatten(),
            "counters": dict(self._counts),
            "emitted": dict(self._emitted),
            # An attached ingest front-end rides along so one checkpoint
            # captures the stream *and* its reorder buffer consistently.
            "ingest": (
                self._ingest.snapshot() if self._ingest is not None else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Rebuild a freshly constructed stream from a snapshot.

        The stream must not have been pushed to yet, and its config must
        match the snapshot's — grouping state under a different window,
        flush horizon, or shard count is not transplantable.
        """
        if state.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {state.get('version')!r} != "
                f"supported {SNAPSHOT_VERSION}"
            )
        if self._last_ts is not None or self._open:
            raise ValueError(
                "restore() requires a freshly constructed stream"
            )
        # The executor lane is an execution detail — all lanes group
        # byte-identically — so a checkpoint restores across lanes;
        # every other knob must match.
        snap_config = state["config"]
        if snap_config.with_stream_workers(
            self._config.stream_workers
        ) != self._config:
            raise ValueError(
                "snapshot config does not match this stream's config; "
                "construct the stream with the checkpointed config"
            )
        if state["n_shards"] != self._n_shards:
            raise ValueError(
                f"snapshot has {state['n_shards']} shards, "
                f"stream has {self._n_shards}"
            )
        self._last_ts = state["last_ts"]
        self._last_sweep = state["last_sweep"]
        self._sweep_interval = state["sweep_interval"]
        self._augmenter._counter = state["n_admitted"]
        self._open = dict(state["open"])
        self._uf = UnionFind()
        for component in state["components"]:
            first = component[0]
            self._uf.add(first)
            for index in component[1:]:
                self._uf.union(first, index)
        self._exec.call(
            {
                shard_id: ("restore", (captured,))
                for shard_id, captured in enumerate(state["shards"])
            }
        )
        self._cross_window.load(state["cross_window"])
        self._counts = dict(state["counters"])
        self._kb_version = state["kb_version"]
        self._emitted = dict(state["emitted"])
        # Stashed, not rebuilt: reconstructing the ingest front-end needs
        # the syslog layer, so checkpoint.restore_ingest() does it on
        # demand via restored_ingest_state().
        self._restored_ingest = state.get("ingest")
        # The restored state *is* the checkpoint: age restarts at zero,
        # on the restoring process's own monotonic clock — the writing
        # process's clock (and its wall time) are meaningless here.
        self.note_checkpoint()

    @property
    def n_admitted(self) -> int:
        """Messages admitted so far (= log lines to skip on resume)."""
        return self._augmenter._counter

    def attach_quarantine(self, quarantine) -> None:
        """Surface a :class:`~repro.syslog.resilient.Quarantine` in health."""
        self._quarantine = quarantine

    def attach_ingest(self, ingest) -> None:
        """Register a :class:`~repro.syslog.ingest.MultiSourceIngest`.

        The ingest constructor calls this; from then on the front-end's
        state (reorder buffer, source breakers, dedup table) is captured
        inside :meth:`snapshot` so kill-and-resume stays byte-identical
        through the full ingest → stream path.
        """
        self._ingest = ingest

    def restored_ingest_state(self) -> dict | None:
        """Ingest state stashed by :meth:`restore` (None if the
        checkpointed stream had no ingest front-end attached)."""
        return self._restored_ingest

    # ------------------------------------------------------------- internals

    def _maybe_sweep(self, now: float) -> list[NetworkEvent]:
        if (
            self._last_sweep is None
            or now - self._last_sweep >= self._sweep_interval
        ):
            self._last_sweep = now
            events = self._finalize_idle(now)
            self.record_metrics()
            self._maybe_checkpoint(now)
            return events
        return []

    def _maybe_checkpoint(self, now: float) -> None:
        cfg = self._config
        if not cfg.checkpoint_path or cfg.checkpoint_interval <= 0:
            return
        if (
            self._last_checkpoint_stream_ts is not None
            and now - self._last_checkpoint_stream_ts
            < cfg.checkpoint_interval
        ):
            return
        from repro.core.checkpoint import write_checkpoint

        write_checkpoint(cfg.checkpoint_path, self)

    def note_checkpoint(self) -> None:
        """Record that the current state was just checkpointed."""
        self._last_checkpoint_stream_ts = self._last_ts
        self._last_checkpoint_mono = self._clock()

    def _finalize_idle(self, now: float) -> list[NetworkEvent]:
        horizon = now - self.flush_after
        evicted = self._exec.broadcast("evict_idle", horizon)
        self._counts["evicted"] += sum(evicted)
        return self._collect_groups(lambda last: last < horizon)

    def _open_groups(self) -> dict[int, list[SyslogPlus]]:
        """Open messages bucketed by union-find root (admission order)."""
        by_root: dict[int, list[SyslogPlus]] = {}
        for index, plus in self._open.items():
            by_root.setdefault(self._uf.find(index), []).append(plus)
        return by_root

    def _collect_groups(self, should_close) -> list[NetworkEvent]:
        selected = [
            members
            for members in self._open_groups().values()
            if should_close(max(p.timestamp for p in members))
        ]
        return self._finalize_members(selected)

    def _shed(self) -> list[NetworkEvent]:
        """Force-finalize whole groups until the open bound holds again.

        Shedding is the bounded-memory escape hatch: it changes output
        (groups close before their idle horizon) and is therefore off by
        default (``max_open_messages = 0``).  Victim order follows
        ``shed_policy``: "oldest" closes the longest-idle groups first,
        "largest" the biggest first; ties break on the earliest member
        index so shedding is deterministic.
        """
        limit = self._config.max_open_messages
        if not limit or len(self._open) <= limit:
            return []
        groups = list(self._open_groups().values())
        if self._config.shed_policy == "largest":
            groups.sort(key=lambda m: (-len(m), m[0].index))
        else:
            groups.sort(
                key=lambda m: (max(p.timestamp for p in m), m[0].index)
            )
        victims: list[list[SyslogPlus]] = []
        excess = len(self._open) - limit
        removed = 0
        for members in groups:
            if removed >= excess:
                break
            victims.append(members)
            removed += len(members)
        events = self._finalize_members(victims)
        self._counts["shed_events"] += len(events)
        self._counts["shed_messages"] += removed
        return events

    def _finalize_members(
        self, groups: list[list[SyslogPlus]]
    ) -> list[NetworkEvent]:
        """Close the given groups: emit events, then prune dead state."""
        events: list[NetworkEvent] = []
        for members in groups:
            for plus in members:
                del self._open[plus.index]
            event = NetworkEvent(messages=members)
            event.score = self._prioritizer.score(event)
            event.label = event_label([p.template for p in members])
            events.append(event)
        # Drop state referencing finalized messages so long-running
        # streams stay bounded: temporal tails, rule windows (per shard)
        # and the cross-router window.
        open_indices = set(self._open)
        pruned = self._exec.broadcast("prune", open_indices)
        pruned.append(self._cross_window.prune(open_indices))
        self._counts["pruned"] += sum(pruned)
        self._counts["finalized"] += len(events)
        events.sort(key=lambda e: (e.start_ts, e.indices))
        return events

    # ------------------------------------------------------------ diagnostics

    @property
    def n_open_messages(self) -> int:
        """Messages not yet finalized into an event."""
        return len(self._open)

    def _live_counts(self) -> tuple[int, int]:
        """Live ``(splitters, window entries)`` from one ``counts``
        broadcast — on the process lane, one pipe round trip per shard."""
        pairs = self._exec.broadcast("counts")
        return (
            sum(n for n, _ in pairs),
            sum(n for _, n in pairs) + len(self._cross_window),
        )

    @property
    def n_splitters(self) -> int:
        """Live temporal splitters across all shards (leak diagnostics)."""
        return self._live_counts()[0]

    @property
    def n_window_entries(self) -> int:
        """Live rule + cross window entries (leak diagnostics)."""
        return self._live_counts()[1]

    @property
    def watermark_lag(self) -> float:
        """Stream clock minus the oldest still-open message timestamp.

        How far behind the live edge the slowest open group trails; 0.0
        when nothing is open.  Large values mean events are being held
        open a long time before finalizing.
        """
        if not self._open or self._last_ts is None:
            return 0.0
        return self._last_ts - min(p.timestamp for p in self._open.values())

    @property
    def checkpoint_age(self) -> float:
        """Monotonic seconds since the last checkpoint (-1 if never).

        Measured on the clock injected at construction (default
        :func:`time.monotonic`), *not* on message timestamps or wall
        time: a supervisor restart or an NTP step moves those, but can
        never make this age negative or absurd.  Clamped at zero in
        case a test injects a non-monotonic fake clock.
        """
        if self._last_checkpoint_mono is None:
            return -1.0
        return max(0.0, self._clock() - self._last_checkpoint_mono)

    def health(self) -> dict[str, float]:
        """One-call health snapshot of the live stream state.

        The returned keys are exactly :data:`HEALTH_KEYS`, which is the
        single place every key is documented.
        """
        quarantine_depth = quarantine_total = 0
        if self._quarantine is not None:
            quarantine_depth = len(self._quarantine)
            quarantine_total = self._quarantine.total
        splitters, window_entries = self._live_counts()
        return {
            "open_messages": self.n_open_messages,
            "splitters": splitters,
            "window_entries": window_entries,
            "watermark_lag_seconds": self.watermark_lag,
            "evicted_splitters": self._counts["evicted"],
            "pruned_entries": self._counts["pruned"],
            "skew_clamped": self._counts["skew_clamped"],
            "skew_rejected": self._counts["skew_rejected"],
            "finalized_events": self._counts["finalized"],
            "shed_events": self._counts["shed_events"],
            "shed_messages": self._counts["shed_messages"],
            "quarantine_depth": quarantine_depth,
            "quarantine_total": quarantine_total,
            "checkpoint_age_seconds": self.checkpoint_age,
            "kb_swaps": self._counts["swaps"],
            "kb_swap_pending": 1.0 if self._pending_kb is not None else 0.0,
        }

    def record_metrics(
        self, registry: MetricsRegistry | None = None
    ) -> None:
        """Flush the health snapshot into the metrics registry.

        Called automatically at every finalize sweep and on
        :meth:`close`; cheap enough that extra manual calls are fine.
        Cumulative counts are emitted as counter *deltas* since the last
        flush, so the registry's counters stay monotonic no matter how
        often this runs.
        """
        reg = registry if registry is not None else get_registry()
        if not reg.enabled:
            return
        splitters, window_entries = self._live_counts()
        reg.set_gauge(STREAM_OPEN_MESSAGES, self.n_open_messages)
        reg.set_gauge(STREAM_SPLITTERS, splitters)
        reg.set_gauge(STREAM_WINDOW_ENTRIES, window_entries)
        reg.set_gauge(STREAM_WATERMARK_LAG, self.watermark_lag)
        reg.set_gauge(CHECKPOINT_AGE, self.checkpoint_age)
        reg.set_gauge(STREAM_WORKER_PROCS, self._exec.n_worker_processes)
        reg.set_gauge(
            STREAM_KB_SWAP_PENDING,
            1.0 if self._pending_kb is not None else 0.0,
        )
        for key, name in COUNTER_METRICS.items():
            total = self._counts[key]
            delta = total - self._emitted.get(name, 0)
            if delta:
                reg.inc(name, delta)
                self._emitted[name] = total
