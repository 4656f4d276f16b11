"""Per-tenant pipeline runtime for the serve daemon (DESIGN.md §13).

A *tenant* is one independent network digested by one
:class:`~repro.core.stream.DigestStream` behind one
:class:`~repro.syslog.ingest.MultiSourceIngest`, with its own
checkpoint, quarantine, event journal, and (optionally) its own
:class:`~repro.core.modelstore.KnowledgeStore`.  Many tenants share one
daemon process; nothing is shared between them but the event loop.

:class:`TenantSpec` is the declarative half — plain data, JSON
round-trippable, what `repro serve --config` reads.  :class:`TenantRuntime`
is the operational half: it owns the start/restore, batch, checkpoint,
drain, and admin (promote/rollback/requeue) operations, all synchronous
— the daemon schedules them; the supervisor decides when.

Crash safety is the checkpoint + event-journal protocol spelled out in
:mod:`repro.serve.journal`: journal fsync *before* checkpoint write;
journal truncate to the checkpoint's ``finalized`` counter on restore;
tail replay resumes each source at its checkpointed byte cursor
(:class:`~repro.syslog.tail.TailSet`), just past the last pushed line.
Because :func:`~repro.syslog.collector.interleave_arrivals` is a
deterministic greedy merge, re-interleaving the per-source suffixes
reproduces the exact suffix of the uninterrupted arrival order — which
is what makes the kill -9 fingerprint gate hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.core.checkpoint import (
    CheckpointFormatError,
    load_resume_state,
    previous_checkpoint_path,
    restore_ingest,
    restore_stream_snapshot,
    write_checkpoint,
)
from repro.core.config import DigestConfig, IngestConfig
from repro.core.knowledge import KnowledgeBase
from repro.core.modelstore import KnowledgeStore
from repro.core.stream import DigestStream
from repro.obs import DURABLE_WRITE_FAILURES, get_registry, publish_health
from repro.syslog.collector import interleave_arrivals
from repro.syslog.ingest import BREAKER_STATES, MultiSourceIngest
from repro.syslog.resilient import (
    Quarantine,
    quarantine_files,
    requeue_records,
)
from repro.syslog.tail import TailSet
from repro.utils import inject

from .journal import EventJournal, TransitionJournal

CHECKPOINT_FILE = "checkpoint.ckpt"
EVENTS_FILE = "events.bin"
QUARANTINE_FILE = "quarantine.jsonl"
SUPERVISOR_FILE = "supervisor.jsonl"

PLACEMENTS = ("inline", "process")

#: Arrivals one :meth:`TenantRuntime.process_batch` pushes by default.
PUMP_BATCH = 64

#: A tenant cuts a checkpoint once its arrivals since the last cut reach
#: this share of its in-flight messages (reorder buffer plus open
#: messages, :attr:`MultiSourceIngest.n_inflight`), never fewer than
#: ``checkpoint_every``.  A cut re-pickles all open state, so this keeps
#: checkpoint cost proportional to ingest cost: a backlog in which
#: nothing finalizes cuts at 200, 400, 800, ... arrivals, not every 200.
#: It must stay below 1 — open state grows by one per backlog arrival,
#: so at 1 or above the count would never catch up and restart replay
#: would have no bound.
CHECKPOINT_OPEN_RATIO = 0.5

#: Every key of :meth:`TenantRuntime.budget_health`, documented — the
#: budget half of the health contract (DESIGN.md §15), same idiom as
#: ``repro.core.stream.HEALTH_KEYS``.  Limits of 0 mean *unbounded*.
BUDGET_HEALTH_KEYS: dict[str, str] = {
    "max_open_messages": "open-message budget (0 = unbounded)",
    "open_messages": "messages admitted but not yet finalized",
    "journal_max_bytes": "event-journal byte budget (0 = unbounded)",
    "journal_bytes": "event-journal bytes on disk + retry buffer",
    "quarantine_max_bytes": "quarantine dump rotation byte budget",
    "quarantine_records": "records currently held in the quarantine",
    "rpc_deadline_seconds": "parent-side reply deadline for worker RPCs",
    "breached": "budget names breached so far, in breach order",
    "over_budget": "1.0 while any budget stands breached",
}


#: Health keys that name a thing instead of measuring it: the worker's
#: pid, the tail file's inode, and the knowledge version (already the
#: ``syslogdigest_kb_active_version`` series).  The health JSON carries
#: them; ``/metrics`` does not make them gauges.
IDENTIFIER_KEYS = frozenset({"worker_pid", "tail_inode", "kb_version"})


def publish_tenant_health(registry, health: dict, **labels: str) -> None:
    """Publish a :meth:`TenantRuntime.health` dict (or any part of one)
    as gauges, through :func:`~repro.obs.publish_health`.

    The top level goes under ``tenant`` (its nested dicts are skipped
    there), ``stream``/``ingest``/``budgets`` under
    ``stream``/``ingest``/``budget``, and every ``sources`` row under
    ``source`` with a ``source=`` label and its breaker ``state`` as its
    :data:`~repro.syslog.ingest.BREAKER_STATES` index.
    :data:`IDENTIFIER_KEYS` are left out.
    """
    top = {
        k: v for k, v in health.items()
        if k != "sources" and k not in IDENTIFIER_KEYS
    }
    publish_health(registry, "tenant", top, **labels)
    for key, section in (
        ("stream", "stream"), ("ingest", "ingest"), ("budgets", "budget")
    ):
        publish_health(registry, section, health.get(key, {}), **labels)
    for row in health.get("sources", []):
        row = {k: v for k, v in row.items() if k not in IDENTIFIER_KEYS}
        publish_health(
            registry,
            "source",
            dict(row, state=BREAKER_STATES.index(row["state"])),
            source=row["source"],
            **labels,
        )


def reject_unknown_keys(data: dict, known, where: str) -> None:
    """Config input is external: name a stray key instead of letting a
    dataclass constructor die on it with a ``TypeError``."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}"
        )


@dataclass(frozen=True)
class TenantBudget:
    """Per-tenant resource budgets (JSON round-trippable; 0 = unbounded).

    Budgets are checked *deterministically* — after every batch, against
    exact counters, never against wall-clock sampling — so the same
    input always breaches at the same arrival.  A breached tenant is
    degraded into shed mode, not killed: the bulkhead contract is that
    an over-budget tenant loses throughput, never its neighbors'.

    ``rpc_deadline`` bounds how long the daemon waits for a worker's
    RPC reply before declaring it hung (``placement = "process"`` only).
    """

    max_open_messages: int = 0
    journal_max_bytes: int = 0
    rpc_deadline: float = 10.0

    def __post_init__(self) -> None:
        for key in ("max_open_messages", "journal_max_bytes"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0 (0 = unbounded)")
        if self.rpc_deadline <= 0:
            raise ValueError("rpc_deadline must be > 0")


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant (JSON round-trippable).

    Exactly one of ``kb_path`` (a saved
    :meth:`~repro.mining.knowledge.KnowledgeBase.save` file) or
    ``store_dir`` (a :class:`KnowledgeStore` directory, whose *active*
    version is served and whose versions back promote/rollback) must be
    set.  ``checkpoint_every`` is the floor, in *arrivals*, between
    checkpoints; above it a tenant waits for
    :data:`CHECKPOINT_OPEN_RATIO` × its in-flight messages (see
    :meth:`TenantRuntime.process_batch`) — a deterministic cadence,
    unlike wall time.  The stream always runs the default
    :class:`~repro.core.config.DigestConfig`.
    """

    name: str
    sources: tuple[str, ...]
    workdir: str
    kb_path: str | None = None
    store_dir: str | None = None
    checkpoint_every: int = 200
    max_reorder_delay: float = IngestConfig.max_reorder_delay
    dedup_window: float = 0.0
    degraded_max_open: int = 500
    quarantine_max_bytes: int = 1 << 20
    #: Where this tenant's pipeline runs: ``"inline"`` on the daemon's
    #: own event loop (the pre-placement behavior), or ``"process"`` in
    #: a supervised worker process of its own behind framed-pipe RPC —
    #: the bulkhead that keeps one tenant's crash, hang, or poison
    #: batch away from its neighbors (DESIGN.md §15).  Clean runs are
    #: fingerprint-byte-identical between the two.
    placement: str = "inline"
    #: Per-tenant resource budgets; breaches degrade, never kill.
    budget: TenantBudget = field(default_factory=TenantBudget)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"invalid tenant name {self.name!r}")
        if not self.sources:
            raise ValueError(f"tenant {self.name}: needs >= 1 source")
        if (self.kb_path is None) == (self.store_dir is None):
            raise ValueError(
                f"tenant {self.name}: set exactly one of kb_path / "
                "store_dir"
            )
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"tenant {self.name}: placement must be one of "
                f"{PLACEMENTS}, not {self.placement!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        data = dict(data)
        where = f"tenant {data.get('name')!r}"
        reject_unknown_keys(data, [f.name for f in fields(cls)], where)
        data["sources"] = tuple(data["sources"])
        if isinstance(data.get("budget"), dict):
            reject_unknown_keys(
                data["budget"],
                [f.name for f in fields(TenantBudget)],
                f"{where} budget block",
            )
            data["budget"] = TenantBudget(**data["budget"])
        return cls(**data)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["sources"] = list(self.sources)
        return data


@dataclass
class TenantRuntime:
    """The live pipeline for one tenant, restartable from checkpoint."""

    spec: TenantSpec
    stream: DigestStream | None = None
    ingest: MultiSourceIngest | None = None
    quarantine: Quarantine | None = None
    events: EventJournal | None = None
    transitions: TransitionJournal | None = None
    store: KnowledgeStore | None = None
    tails: TailSet | None = None
    degraded: bool = False
    #: A durable write (checkpoint / journal sync / quarantine dump)
    #: failed and is being retried; cleared when one lands again.
    durable_degraded: bool = False
    resumed: bool = False
    n_batches: int = 0
    #: Budget names breached this life, in breach order (deduplicated).
    budget_breached: list = field(default_factory=list)
    _arrivals: deque = field(default_factory=deque)
    _since_checkpoint: int = 0
    _arrivals_life: int = 0

    # ------------------------------------------------------------ paths

    @property
    def workdir(self) -> Path:
        return Path(self.spec.workdir)

    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / CHECKPOINT_FILE

    @property
    def events_path(self) -> Path:
        return self.workdir / EVENTS_FILE

    @property
    def quarantine_path(self) -> Path:
        return self.workdir / QUARANTINE_FILE

    @property
    def supervisor_path(self) -> Path:
        return self.workdir / SUPERVISOR_FILE

    # ------------------------------------------------------------ start

    def start(self, *, degraded: bool = False) -> None:
        """Boot the pipeline: restore from checkpoint if one exists.

        ``degraded`` restarts in shed mode: the stream restores from its
        unmodified checkpoint, then gets a tight open-message bound
        (:meth:`DigestStream.set_shedding`) plus the matching ingest
        admission limits — deterministic load shedding instead of the
        crash loop.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.degraded = degraded
        self.budget_breached = []
        self._arrivals_life = 0
        self.quarantine = Quarantine()
        self.transitions = TransitionJournal(self.supervisor_path)
        if self.events is not None:
            self.events.close()
        self.events = EventJournal(self.events_path)

        has_checkpoint = (
            self.checkpoint_path.exists()
            or previous_checkpoint_path(self.checkpoint_path).exists()
        )
        if has_checkpoint:
            self._restore()
        else:
            self._fresh()
        if degraded:
            # Shedding is applied post-construction/restore: it is a
            # runtime bound, not a grouping parameter, so the unmodified
            # checkpoint still restores (see DigestStream.set_shedding).
            # Restored state over the bound is shed right here — those
            # events are real output and belong in the journal.
            self._apply_shedding(self.shed_bound())
        self.refill()

    def _apply_shedding(self, bound: int) -> None:
        """Put the live pipeline into shed mode at ``bound`` open messages."""
        shed_cfg = DigestConfig().with_shedding(bound)
        shed_events = self.stream.set_shedding(bound)
        if shed_events:
            self.events.append(shed_events)
        self.ingest.set_admission(
            self._ingest_config().for_stream(shed_cfg)
        )

    def shed_bound(self) -> int:
        """The open-message bound shed mode enforces for this tenant.

        The spec's ``degraded_max_open``, tightened to the open-message
        budget when one is set — so a budget-degraded tenant can never
        shed *to* a level that still breaches the budget that degraded it.
        """
        bound = self.spec.degraded_max_open
        if self.spec.budget.max_open_messages:
            bound = min(bound, self.spec.budget.max_open_messages)
        return bound

    def _ingest_config(self) -> IngestConfig:
        return IngestConfig(
            max_reorder_delay=self.spec.max_reorder_delay,
            dedup_window=self.spec.dedup_window,
        )

    def _load_kb(self) -> tuple[KnowledgeBase, int | str | None]:
        if self.spec.store_dir is not None:
            self.store = KnowledgeStore(self.spec.store_dir)
            kb, info = self.store.load_active()
            return kb, info.version
        kb = KnowledgeBase.load(self.spec.kb_path)
        return kb, None

    def _fresh(self) -> None:
        kb, version = self._load_kb()
        self.stream = DigestStream(kb, DigestConfig(), kb_version=version)
        self.stream.attach_quarantine(self.quarantine)
        self.ingest = MultiSourceIngest(
            self.stream, self._ingest_config(), quarantine=self.quarantine
        )
        for source in self.spec.sources:
            self.ingest.register(source)
        self.tails = TailSet(self.spec.sources)
        self.ingest.attach_tails(self.tails)
        self.events.truncate(0)
        self.resumed = False

    def _restore(self) -> None:
        snapshot, used_path, fallback_error = load_resume_state(
            self.checkpoint_path
        )
        if self.spec.store_dir is not None:
            self.store = KnowledgeStore(self.spec.store_dir)
            self.stream = restore_stream_snapshot(
                snapshot, store=self.store
            )
        else:
            self.stream = restore_stream_snapshot(
                snapshot, kb=KnowledgeBase.load(self.spec.kb_path)
            )
        if fallback_error is not None:
            # Corrupt newest generation; restored from .prev.  Loud by
            # contract: the operator must learn the disk tore a write.
            self._journal_entry(
                kind="checkpoint-fallback",
                used=str(used_path),
                error=str(fallback_error),
            )
        self.stream.attach_quarantine(self.quarantine)
        try:
            self.ingest = restore_ingest(self.stream, self.quarantine)
            self._restore_tails()
        except CheckpointFormatError as exc:  # name the file refused
            raise CheckpointFormatError(f"{used_path}: {exc}") from exc
        # Resume consistency: cut the journal back to exactly what the
        # checkpoint accounts for — everything past it re-emerges from
        # the tail replay (see repro.serve.journal).
        finalized = int(self.stream.health()["finalized_events"])
        self.events.truncate(finalized)
        self.resumed = True

    def _restore_tails(self) -> None:
        """Rebuild tail cursors from the checkpoint's ingest payload.

        A checkpoint with no cursor state whose sources are already
        partly consumed cannot be resumed: the byte offsets of the
        consumed prefixes were never recorded, and guessing them would
        drop or double-push arrivals.  It is refused like any other
        unusable checkpoint (the supervisor journals the failure).
        """
        state = self.ingest.restored_tail_state()
        if state is not None:
            self.tails = TailSet.from_snapshot(
                state, sources=self.spec.sources
            )
        elif any(self.ingest.pushed_counts().values()):
            raise CheckpointFormatError(
                f"tenant {self.spec.name}: checkpoint records consumed "
                "arrivals but no tail cursors; it cannot be resumed "
                "without re-reading its sources"
            )
        else:
            self.tails = TailSet(self.spec.sources)
        self.ingest.attach_tails(self.tails)

    # ------------------------------------------------------------- input

    def refill(self) -> int:
        """Extend the pending-arrival queue from the source files.

        Polls every source's byte-offset cursor — rotation- and
        truncation-aware, no re-read of consumed bytes — takes the newly
        stamped lines, interleaves them, and *extends* the queue.  By
        the greedy-merge determinism of :func:`interleave_arrivals`
        (and, for live feeds, a positive ``max_reorder_delay``), the
        pushed sequence digests identically to an uninterrupted run.
        Called at start and whenever the daemon finds the queue empty.
        Returns the number of pending arrivals.
        """
        self.tails.poll()
        arrivals = interleave_arrivals(
            self.tails.take_new(), key=lambda pair: pair[0]
        )
        self._arrivals.extend(
            (source, line) for source, (_ts, line) in arrivals
        )
        return len(self._arrivals)

    @property
    def pending(self) -> int:
        return len(self._arrivals)

    # ------------------------------------------------------------- batch

    def process_batch(self, limit: int | None = None) -> int:
        """Push up to ``limit`` pending arrivals; returns how many.

        Finalized events are appended to the event journal as they
        emerge; a checkpoint is cut once the arrivals since the last cut
        reach max(``checkpoint_every``, :data:`CHECKPOINT_OPEN_RATIO` ×
        in-flight messages) (journal fsync first — the crash-safety
        ordering invariant).  A restart replays exactly the arrivals
        since the last cut, so the schedule bounds replay time, never
        correctness.
        The ``tenant.arrival`` injection point is read once per batch.
        """
        limit = PUMP_BATCH if limit is None else limit
        poison = inject.hook(inject.TENANT_ARRIVAL)
        n = 0
        while self._arrivals and n < limit:
            if poison is not None:
                poison(self.spec.name, self._arrivals_life, self.degraded)
            source, line = self._arrivals.popleft()
            self._arrivals_life += 1
            events = self.ingest.push_line(source, line)
            # Commit the tail cursor past this line: offsets in the
            # next checkpoint cover exactly the pushed arrivals.
            self.tails.note_pushed(source)
            if events:
                self.events.append(events)
            n += 1
            self._since_checkpoint += 1
            if self._since_checkpoint >= max(
                self.spec.checkpoint_every,
                self.ingest.n_inflight * CHECKPOINT_OPEN_RATIO,
            ):
                self.checkpoint()
        if n:
            self.n_batches += 1
            self.check_budgets()
        return n

    def check_budgets(self) -> list[str]:
        """Deterministic post-batch budget check; returns *new* breaches.

        Budgets compare exact counters — open messages in the stream,
        journal bytes on disk plus the retry buffer — never wall-clock
        samples, so the same input always breaches at the same arrival.
        A breach degrades the tenant into shed mode (bulkhead contract:
        an over-budget tenant loses throughput, never its life); each
        budget name is journaled once, in breach order.
        """
        budget = self.spec.budget
        usage = (
            ("max_open_messages", budget.max_open_messages,
             self.stream.n_open_messages),
            ("journal_max_bytes", budget.journal_max_bytes,
             self.events.size_bytes),
        )
        fresh = [
            name for name, limit, used in usage
            if limit and used > limit and name not in self.budget_breached
        ]
        if not fresh:
            return []
        for name in fresh:
            self.budget_breached.append(name)
            self._journal_entry(kind="budget-breach", budget=name)
        if not self.degraded:
            self.degraded = True
            self._apply_shedding(self.shed_bound())
        return fresh

    def checkpoint(self) -> None:
        """Journal-then-checkpoint, in that order (crash-safety).

        Disk faults degrade instead of crashing: a failed journal fsync
        *skips* the checkpoint (a checkpoint must never record events
        the journal does not durably hold), a failed checkpoint write
        keeps the previous generation; either way the failure is
        journaled, :attr:`durable_degraded` raises the health flag, and
        the next cadence retries.  Progress is never lost — unflushed
        events wait in the journal's retry buffer and unreflected
        arrivals simply replay from the older checkpoint.
        """
        try:
            self.events.sync()
            write_checkpoint(self.checkpoint_path, self.stream)
        except OSError as exc:
            self._note_durable_failure("checkpoint", exc)
            self._since_checkpoint = 0  # retry at the next cadence
            return
        self._since_checkpoint = 0
        if self.durable_degraded:
            self.durable_degraded = False
            self._journal_entry(kind="durable-write-recovered")

    def _note_durable_failure(self, what: str, exc: OSError) -> None:
        """Degrade on a failed durable write: flag, journal, count."""
        self.durable_degraded = True
        registry = get_registry()
        if registry.enabled:
            registry.inc(
                DURABLE_WRITE_FAILURES, tenant=self.spec.name, what=what
            )
        self._journal_entry(
            kind="durable-write-failed", what=what, error=str(exc)
        )

    def _journal_entry(self, **entry) -> None:
        """Best-effort transition-journal append (the disk may be full)."""
        entry.setdefault("tenant", self.spec.name)
        try:
            self.transitions.append(entry)
        except OSError:
            pass

    # ------------------------------------------------------------- drain

    def drain(self) -> int:
        """Graceful shutdown: flush, finalize, checkpoint, dump, stop.

        Stops intake (pending arrivals stay in the files for the next
        boot), flushes the reorder buffer and finalizes every open group
        (:meth:`MultiSourceIngest.close`), journals the tail, writes a
        final checkpoint, dumps the quarantine under the rotation byte
        budget, and shuts the executor lane down.  Returns the number of
        events finalized by the flush.
        """
        self._arrivals.clear()
        tail = self.ingest.close()
        if tail:
            self.events.append(tail)
        self.checkpoint()
        if len(self.quarantine):
            try:
                self.quarantine.dump(
                    self.quarantine_path,
                    max_bytes=self.spec.quarantine_max_bytes,
                )
            except OSError as exc:
                # Queue survives in memory (dump never drops it on
                # failure); the next drain or requeue retries.
                self._note_durable_failure("quarantine-dump", exc)
        self.stream.shutdown_workers()
        return len(tail)

    def halt(self) -> None:
        """Tear the pipeline down *without* draining (supervisor restart).

        Un-checkpointed progress is deliberately discarded — the next
        :meth:`start` restores from the last checkpoint exactly as a
        post-crash boot would, so a supervisor restart exercises the
        same recovery path the kill -9 gate pins.
        """
        self._arrivals.clear()
        if self.stream is not None:
            self.stream.shutdown_workers()

    def close(self) -> None:
        """End this life: :meth:`halt` (a no-op after a drain), then
        close the event journal."""
        self.halt()
        if self.events is not None:
            self.events.close()

    # ------------------------------------------------------------- admin

    def promote(self) -> dict:
        """Hot-swap to the store's *current* active version."""
        if self.store is None:
            raise ValueError(
                f"tenant {self.spec.name} is not store-backed; "
                "promote/rollback need store_dir"
            )
        version = self.store.active_version()
        if version == self.stream.kb_version:
            return {"swapped": False, "version": version}
        kb = self.store.load(version)
        events = self.stream.request_swap(kb, version)
        if events:
            self.events.append(events)
        return {
            "swapped": True,
            "version": version,
            "pending": self.stream.swap_pending,
        }

    def rollback(self, to: int | None = None) -> dict:
        """Roll the store back, then hot-swap to the restored version."""
        if self.store is None:
            raise ValueError(
                f"tenant {self.spec.name} is not store-backed; "
                "promote/rollback need store_dir"
            )
        info = self.store.rollback(to=to)
        result = self.promote()
        result["rolled_back_to"] = info.version
        return result

    def requeue(self) -> dict:
        """Replay the quarantine (in-memory + rotated dumps) into the stream.

        In-memory records are dumped first (under the rotation budget)
        so the replay covers both; files consumed by a fully successful
        replay are deleted so a later requeue cannot double-push them.
        """
        if len(self.quarantine):
            self.quarantine.dump(
                self.quarantine_path,
                max_bytes=self.spec.quarantine_max_bytes,
            )
            self.quarantine.drain()
        if not self.quarantine_path.exists():
            return {"events": 0, "requeued": 0, "failed": 0}
        parts = [p for p in quarantine_files(self.quarantine_path) if p.exists()]
        events, n_ok, n_failed = requeue_records(
            self.quarantine_path, self.stream, self.quarantine
        )
        if events:
            self.events.append(events)
        for part in parts:
            part.unlink(missing_ok=True)
        return {"events": len(events), "requeued": n_ok, "failed": n_failed}

    # ------------------------------------------------------------- health

    def budget_health(self) -> dict:
        """Budget usage vs. limits — exactly :data:`BUDGET_HEALTH_KEYS`."""
        budget = self.spec.budget
        return {
            "max_open_messages": budget.max_open_messages,
            "open_messages": self.stream.n_open_messages,
            "journal_max_bytes": budget.journal_max_bytes,
            "journal_bytes": self.events.size_bytes,
            "quarantine_max_bytes": self.spec.quarantine_max_bytes,
            "quarantine_records": len(self.quarantine),
            "rpc_deadline_seconds": budget.rpc_deadline,
            "breached": list(self.budget_breached),
            "over_budget": 1.0 if self.budget_breached else 0.0,
        }

    def health(self) -> dict:
        """Everything an operator asks a tenant, JSON-serializable."""
        tail_status = self.ingest.tail_status()  # one stat per source
        return {
            "tenant": self.spec.name,
            "placement": self.spec.placement,
            "degraded": self.degraded,
            "durable_degraded": self.durable_degraded,
            "resumed": self.resumed,
            "pending_arrivals": len(self._arrivals),
            "events_journaled": len(self.events),
            "n_batches": self.n_batches,
            "kb_version": self.stream.kb_version,
            "stream": self.stream.health(),
            "ingest": self.ingest.health(tail_status),
            "sources": self.ingest.source_summaries(tail_status),
            "budgets": self.budget_health(),
        }
