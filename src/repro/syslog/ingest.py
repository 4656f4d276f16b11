"""Resilient multi-source ingest front-end (DESIGN.md §10).

Real deployments aggregate feeds from hundreds of routers over lossy
transports: arrivals are skewed, duplicated, disordered, and individual
feeds flap or turn to garbage.  :class:`MultiSourceIngest` sits between
those raw sources and :class:`~repro.core.stream.DigestStream` and
provides four defenses:

* **Watermark reordering** — arrivals are buffered and released in
  deterministic ``(timestamp, router, error_code, source, arrival)``
  order once they fall at or below the *global watermark*: the minimum,
  over live sources, of each source's newest timestamp minus
  ``max_reorder_delay``.  Out-of-order arrivals inside that window are
  absorbed silently; arrivals behind the already-flushed frontier are
  dropped as *late* with explicit accounting (and a quarantine record
  when a quarantine is attached).  ``max_buffer_messages`` bounds the
  buffer; overflow force-flushes the oldest entries past the watermark.
* **Per-source circuit breakers** — each source runs a
  closed → open → half-open state machine:
  :data:`BREAKER_FAILURE_THRESHOLD` consecutive unparseable lines open
  it, the half-open probe schedule :data:`PROBE_DELAYS` comes from
  :class:`~repro.syslog.resilient.RetryPolicy` (exponential,
  deterministic, final delay repeating), and every transition is
  journaled.  Open sources are excluded from the watermark minimum so
  one dead feed never stalls the pipeline.
* **Duplicate suppression** — with ``dedup_window`` set, a message
  whose full content was already admitted inside the window is
  suppressed.
* **Admission control / backpressure** — past ``admit_soft_limit``
  in-flight messages, arrivals from unhealthy sources (breaker not
  closed, or failures pending) are shed; past ``admit_hard_limit``
  everything is shed.  Configured below the stream's
  ``max_open_messages``, ingest sheds by source health before the
  stream's output-changing whole-group shedding ever triggers.

The front-end is a **strict no-op for a single in-order clean source**
under the default :class:`~repro.core.config.IngestConfig`: messages
are emitted in exactly their arrival order, so the digest is
byte-identical to the direct path (pinned by tests and the ``make
check`` gate).

Ingest state (buffer, source machines, dedup table, journal) rides
along inside :meth:`DigestStream.snapshot` when attached, so
checkpointed kill-and-resume stays byte-identical — see
:func:`repro.core.checkpoint.restore_ingest`.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.core.config import IngestConfig
from repro.syslog.message import SyslogMessage
from repro.syslog.parse import SyslogParseError, format_line, parse_line
from repro.syslog.resilient import Quarantine, QuarantineRecord, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import NetworkEvent
    from repro.core.stream import DigestStream

#: Snapshot format version of the ingest state captured inside
#: :meth:`DigestStream.snapshot`; :meth:`MultiSourceIngest.from_snapshot`
#: refuses mismatches.  v2 added the live-tail committed cursors
#: (``"tails"``) so byte-offset resume rides inside checkpoints.
INGEST_SNAPSHOT_VERSION = 2

#: Breaker states, in escalation order; a source row's ``state`` is
#: published as its index (closed=0, half_open=1, open=2).
BREAKER_STATES = ("closed", "half_open", "open")

#: Consecutive unparseable lines that trip a source from closed to open.
BREAKER_FAILURE_THRESHOLD = 5

#: Half-open probe delays, in seconds: probe i waits the i-th delay of
#: ``RetryPolicy(6, 60 s)`` (60, 120, ..., 1920); the last one repeats
#: once the schedule is exhausted.
PROBE_DELAYS = tuple(RetryPolicy(max_retries=6, base_delay=60.0).delays())

#: Every key :meth:`MultiSourceIngest.health` reports, documented in one
#: place (DESIGN.md §10 renders this table; tests pin the key set).
INGEST_HEALTH_KEYS: dict[str, str] = {
    "sources": "registered sources",
    "buffered_messages": "messages held in the reorder buffer",
    "peak_buffered": "largest buffer size ever reached",
    "watermark_lag_seconds": "ingest clock minus the global watermark",
    "admitted": "arrivals accepted into the reorder buffer (cumulative)",
    "late_dropped": "arrivals behind the flushed frontier (cumulative)",
    "deduplicated": "arrivals suppressed as duplicates (cumulative)",
    "forced_flushes": "messages flushed early by the buffer bound (cumulative)",
    "admission_shed": "arrivals shed by admission control (cumulative)",
    "breaker_rejected": "arrivals rejected by open breakers (cumulative)",
    "breaker_open": "sources currently open",
    "breaker_half_open": "sources currently probing",
    "breaker_transitions": "breaker state changes across all sources (cumulative)",
    "tailed_sources": "sources followed live by an attached tail set",
    "tail_rotations": "log rotations detected across all tailed sources (cumulative)",
    "tail_truncations": "in-place truncations detected across all tailed sources (cumulative)",
    "tail_lag_bytes": "bytes on disk not yet consumed, summed over tailed sources",
}


class SourceState:
    """One source's ingest bookkeeping: clocks, breaker, counters.

    Plain attributes only, so :meth:`snapshot`/:meth:`restore` are a
    trivial dict round-trip and the whole thing pickles inside stream
    checkpoints.
    """

    __slots__ = (
        "name",
        "index",
        "max_ts",
        "n_pushed",
        "arrival_serial",
        "state",
        "consecutive_failures",
        "probe_idx",
        "next_probe_at",
        "admitted",
        "late_dropped",
        "deduplicated",
        "breaker_rejected",
        "admission_shed",
        "parse_failures",
        "transitions",
    )

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index
        self.max_ts: float | None = None
        self.n_pushed = 0
        self.arrival_serial = 0
        self.state = "closed"
        self.consecutive_failures = 0
        self.probe_idx = 0
        self.next_probe_at: float | None = None
        self.admitted = 0
        self.late_dropped = 0
        self.deduplicated = 0
        self.breaker_rejected = 0
        self.admission_shed = 0
        self.parse_failures = 0
        self.transitions = 0

    def snapshot(self) -> dict:
        """Plain-data capture of every field."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def restore(self, state: dict) -> None:
        """Rebuild from a :meth:`snapshot` capture (keys of retired
        slots in an older capture are ignored)."""
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def summary(self) -> dict:
        """Per-source health row (the ``sources`` CLI renders these)."""
        return {
            "source": self.name,
            "state": self.state,
            "pushed": self.n_pushed,
            "admitted": self.admitted,
            "late_dropped": self.late_dropped,
            "deduplicated": self.deduplicated,
            "parse_failures": self.parse_failures,
            "breaker_rejected": self.breaker_rejected,
            "admission_shed": self.admission_shed,
            "transitions": self.transitions,
        }


class MultiSourceIngest:
    """Watermark-reordering, breaker-guarded front-end over a stream.

    Drive it with :meth:`push` (parsed messages) or :meth:`push_line`
    (raw collector lines); both return whatever events the flush they
    triggered finalized.  :meth:`close` drains the buffer and closes the
    underlying stream.  ``last_outcome`` records what happened to the
    most recent arrival (``admitted``, ``late_dropped``,
    ``deduplicated``, ``breaker_rejected``, ``admission_shed``,
    ``parse_failed``) so benchmarks can score recall without peeking at
    internals.
    """

    def __init__(
        self,
        stream: DigestStream,
        config: IngestConfig | None = None,
        quarantine: Quarantine | None = None,
    ) -> None:
        self._stream = stream
        self._config = config or IngestConfig()
        self._quarantine = quarantine
        self._sources: dict[str, SourceState] = {}
        self._order: list[str] = []
        # Reorder buffer: heap of (order_key, message) with order_key =
        # (timestamp, router, error_code, source_index, arrival_serial)
        # — a strict total order, so flushes are fully deterministic.
        self._buffer: list[tuple[tuple, SyslogMessage]] = []
        self._emitted_key: tuple | None = None
        self._clock: float | None = None
        self._journal: list[dict] = []
        self._dedup: dict[tuple, float] = {}
        self._dedup_evicted_at: float | None = None
        self._peak_buffered = 0
        self._forced_flushes = 0
        self._tails = None
        self._restored_tails: dict | None = None
        self.last_outcome = ""
        stream.attach_ingest(self)

    # --------------------------------------------------------------- sources

    def register(self, source: str) -> SourceState:
        """Register a source explicitly (pushes auto-register too).

        Registration order fixes the source index used in the
        deterministic flush order, so register sources up front when
        reproducibility across runs matters.
        """
        state = self._sources.get(source)
        if state is None:
            state = SourceState(source, len(self._order))
            self._sources[source] = state
            self._order.append(source)
        return state

    def sources(self) -> list[SourceState]:
        """Registered sources, in registration order (read-only use)."""
        return [self._sources[name] for name in self._order]

    def pushed_counts(self) -> dict[str, int]:
        """Arrivals consumed per source (= inputs to skip on resume)."""
        return {name: self._sources[name].n_pushed for name in self._order}

    def attach_tails(self, tails) -> None:
        """Register a :class:`~repro.syslog.tail.TailSet` following the
        sources live.  From then on the committed tail cursors ride
        inside :meth:`snapshot` (so byte-offset resume is part of every
        checkpoint) and tail aggregates appear in :meth:`health` and
        :meth:`source_summaries`."""
        self._tails = tails

    def restored_tail_state(self) -> dict | None:
        """Tail cursors stashed by :meth:`from_snapshot` (None when the
        checkpointed run was not tailing)."""
        return self._restored_tails

    def tail_status(self) -> dict[str, dict]:
        """The attached tail set's per-source status rows ({} when none
        is attached).  Each read stats every source once: a caller that
        wants both :meth:`health` and :meth:`source_summaries` reads it
        once and hands it to both."""
        return self._tails.status() if self._tails is not None else {}

    def source_summaries(
        self, tail_status: dict[str, dict] | None = None
    ) -> list[dict]:
        """Per-source health rows, merged with live-tail status columns
        (offset, inode, rotation/truncation counts, lag) when a tail
        set is attached — the ``sources`` CLI table and the
        ``/tenants/<id>/sources`` endpoint render exactly these."""
        if tail_status is None:
            tail_status = self.tail_status()
        rows = []
        for src in self.sources():
            row = src.summary()
            row.update(tail_status.get(src.name, {}))
            rows.append(row)
        return rows

    def journal(self) -> list[dict]:
        """Every breaker transition so far, oldest first."""
        return list(self._journal)

    def set_admission(self, config: IngestConfig) -> None:
        """Swap the ingest tunables on a live front-end (degraded mode).

        Admission limits (and the other knobs) are backpressure policy,
        not reorder state — changing them mid-flight only alters which
        *future* arrivals are shed.  The serve supervisor pairs this
        with :meth:`DigestStream.set_shedding` when escalating a tenant
        to degraded mode.  The new config rides into subsequent
        snapshots.
        """
        self._config = config

    # ----------------------------------------------------------------- push

    def push_line(self, source: str, line: str) -> list[NetworkEvent]:
        """Parse and push one raw collector line from ``source``.

        Blank lines are ignored; unparseable ones are quarantined,
        counted as a breaker failure, and never kill the run.
        """
        if not line.strip():
            return []
        try:
            message = parse_line(line, source=source)
        except SyslogParseError as exc:
            src = self.register(source)
            src.n_pushed += 1
            src.parse_failures += 1
            if self._quarantine is not None:
                self._quarantine.add_parse_error(line, exc)
            self._note_failure(src)
            self.last_outcome = "parse_failed"
            return []
        return self.push(source, message)

    def push(self, source: str, message: SyslogMessage) -> list[NetworkEvent]:
        """Ingest one parsed message; return any events it finalized."""
        src = self.register(source)
        ts = message.timestamp
        self._clock = ts if self._clock is None else max(self._clock, ts)
        src.n_pushed += 1

        if not self._breaker_admits(src):
            src.breaker_rejected += 1
            self.last_outcome = "breaker_rejected"
            self._quarantine_message(message, src, "breaker")
            return []

        # Admission control runs on the state *at arrival* — a probing
        # or recently-failing source is shed first under pressure.
        inflight = self.n_inflight
        cfg = self._config
        if cfg.admit_hard_limit and inflight >= cfg.admit_hard_limit:
            src.admission_shed += 1
            self.last_outcome = "admission_shed"
            return self._flush()
        if (
            cfg.admit_soft_limit
            and inflight >= cfg.admit_soft_limit
            and (src.state != "closed" or src.consecutive_failures > 0)
        ):
            src.admission_shed += 1
            self.last_outcome = "admission_shed"
            return self._flush()

        if src.state == "half_open":
            self._transition(src, "closed", "probe succeeded")
            src.consecutive_failures = 0
            src.probe_idx = 0
            src.next_probe_at = None
        elif src.consecutive_failures:
            src.consecutive_failures = 0

        # Even a duplicate or late arrival is evidence of source
        # progress: the watermark advances on every parsed timestamp.
        if src.max_ts is None or ts > src.max_ts:
            src.max_ts = ts

        if cfg.dedup_window > 0:
            content = (ts, message.router, message.error_code, message.detail)
            if content in self._dedup:
                src.deduplicated += 1
                self.last_outcome = "deduplicated"
                return self._flush()
            self._dedup[content] = ts

        src.arrival_serial += 1
        order_key = (
            ts,
            message.router,
            message.error_code,
            src.index,
            src.arrival_serial,
        )
        if self._emitted_key is not None and order_key <= self._emitted_key:
            src.late_dropped += 1
            self.last_outcome = "late_dropped"
            self._quarantine_message(message, src, "late")
            return self._flush()

        heapq.heappush(self._buffer, (order_key, message))
        src.admitted += 1
        self.last_outcome = "admitted"
        events = self._flush()
        # Peak is measured after the flush: the bound holds between
        # pushes, which is what "bounded buffer memory" promises.
        if len(self._buffer) > self._peak_buffered:
            self._peak_buffered = len(self._buffer)
        return events

    def close(self) -> list[NetworkEvent]:
        """Drain the reorder buffer, close the stream, return the rest."""
        events = self._flush(force_all=True)
        events.extend(self._stream.close())
        return events

    # -------------------------------------------------------------- breaker

    def _breaker_admits(self, src: SourceState) -> bool:
        if src.state != "open":
            return True
        if (
            src.next_probe_at is not None
            and self._clock is not None
            and self._clock >= src.next_probe_at
        ):
            self._transition(src, "half_open", "probe window reached")
            return True
        return False

    def _note_failure(self, src: SourceState) -> None:
        """Count one unparseable line against the source's breaker."""
        if src.state == "open":
            # Garbage from an already-open source: once the probe window
            # is reached it *is* the probe, and it just failed.
            if self._breaker_admits(src):
                self._note_failure(src)
            return
        src.consecutive_failures += 1
        if src.state == "half_open":
            self._open_breaker(src, "probe failed (parse)")
        elif src.consecutive_failures >= BREAKER_FAILURE_THRESHOLD:
            self._open_breaker(src, "parse")

    def _open_breaker(self, src: SourceState, reason: str) -> None:
        clock = self._clock if self._clock is not None else 0.0
        delay = PROBE_DELAYS[min(src.probe_idx, len(PROBE_DELAYS) - 1)]
        src.probe_idx += 1
        src.next_probe_at = clock + delay
        self._transition(src, "open", reason)

    def _transition(self, src: SourceState, to: str, reason: str) -> None:
        entry = {
            "clock": self._clock,
            "source": src.name,
            "from": src.state,
            "to": to,
            "reason": reason,
        }
        src.state = to
        src.transitions += 1
        self._journal.append(entry)

    # ---------------------------------------------------------------- flush

    def watermark(self) -> float | None:
        """The global low watermark: min over live sources of
        (newest timestamp − ``max_reorder_delay``).

        Open sources are excluded — a dead feed must not stall the
        pipeline; a recovering one naturally holds the watermark back
        until its backlog catches up.  None until any live source has
        produced a timestamp.
        """
        eligible = [
            src.max_ts
            for src in self._sources.values()
            if src.max_ts is not None and src.state != "open"
        ]
        if not eligible:
            return None
        return min(eligible) - self._config.max_reorder_delay

    def _flush(self, force_all: bool = False) -> list[NetworkEvent]:
        ready: list[SyslogMessage] = []
        last_key: tuple | None = None
        if force_all:
            while self._buffer:
                last_key, message = heapq.heappop(self._buffer)
                ready.append(message)
        else:
            watermark = self.watermark()
            if watermark is not None:
                while self._buffer and self._buffer[0][0][0] <= watermark:
                    last_key, message = heapq.heappop(self._buffer)
                    ready.append(message)
                self._evict_dedup(watermark)
            bound = self._config.max_buffer_messages
            overflow = len(self._buffer) - bound if bound else 0
            if overflow > 0:
                for _ in range(overflow):
                    last_key, message = heapq.heappop(self._buffer)
                    ready.append(message)
                self._forced_flushes += overflow
        if last_key is not None:
            self._emitted_key = last_key
        if not ready:
            return []
        return self._stream.push_many(ready)

    def _evict_dedup(self, watermark: float) -> None:
        window = self._config.dedup_window
        if not window or not self._dedup:
            return
        horizon = watermark - window
        # Amortized: one scan per window span, not per flush.
        if (
            self._dedup_evicted_at is not None
            and horizon - self._dedup_evicted_at < window
        ):
            return
        self._dedup_evicted_at = horizon
        self._dedup = {
            content: ts
            for content, ts in self._dedup.items()
            if ts >= horizon
        }

    def _quarantine_message(
        self, message: SyslogMessage, src: SourceState, kind: str
    ) -> None:
        if self._quarantine is None:
            return
        self._quarantine.add(
            QuarantineRecord(
                line=format_line(message),
                error=f"ingest {kind} drop (source {src.name})",
                source=src.name,
                kind=kind,
            )
        )

    # ------------------------------------------------------- snapshot/restore

    def snapshot(self) -> dict:
        """Plain-data capture of the complete ingest state.

        Rides along inside :meth:`DigestStream.snapshot` (the stream
        calls this when an ingest is attached), so one checkpoint file
        captures the stream *and* its front-end consistently: an
        arrival is either still in this buffer or already inside the
        stream state, never both, never neither.
        """
        return {
            "version": INGEST_SNAPSHOT_VERSION,
            "config": self._config,
            "clock": self._clock,
            "emitted_key": self._emitted_key,
            "buffer": sorted(self._buffer),
            "dedup": dict(self._dedup),
            "dedup_evicted_at": self._dedup_evicted_at,
            "peak_buffered": self._peak_buffered,
            "forced_flushes": self._forced_flushes,
            "journal": list(self._journal),
            "order": list(self._order),
            "sources": {
                name: self._sources[name].snapshot() for name in self._order
            },
            # Live-tail committed cursors (inode + byte offset + stamp
            # clock per source) — what lets a kill -9 mid-tail resume
            # with no re-read and no duplicate push.
            "tails": (
                self._tails.snapshot() if self._tails is not None else None
            ),
        }

    @classmethod
    def from_snapshot(
        cls,
        stream: DigestStream,
        state: dict,
        quarantine: Quarantine | None = None,
    ) -> MultiSourceIngest:
        """Rebuild an ingest front-end over a freshly restored stream."""
        if state.get("version") != INGEST_SNAPSHOT_VERSION:
            raise ValueError(
                f"ingest snapshot version {state.get('version')!r} != "
                f"supported {INGEST_SNAPSHOT_VERSION}"
            )
        ingest = cls(stream, state["config"], quarantine=quarantine)
        ingest._clock = state["clock"]
        ingest._emitted_key = state["emitted_key"]
        ingest._buffer = list(state["buffer"])
        heapq.heapify(ingest._buffer)
        ingest._dedup = dict(state["dedup"])
        ingest._dedup_evicted_at = state["dedup_evicted_at"]
        ingest._peak_buffered = state["peak_buffered"]
        ingest._forced_flushes = state["forced_flushes"]
        ingest._journal = list(state["journal"])
        ingest._order = list(state["order"])
        ingest._sources = {}
        for name in ingest._order:
            src = SourceState(name, 0)
            src.restore(state["sources"][name])
            ingest._sources[name] = src
        # Stashed, not rebuilt: the owner (TenantRuntime, CLI) turns the
        # cursors back into a TailSet via restored_tail_state() and
        # re-attaches it.
        ingest._restored_tails = state.get("tails")
        return ingest

    # ---------------------------------------------------------- diagnostics

    @property
    def n_buffered(self) -> int:
        """Messages currently held in the reorder buffer."""
        return len(self._buffer)

    @property
    def n_inflight(self) -> int:
        """Messages admitted but not yet in an event: the reorder buffer
        plus the stream's open messages."""
        return len(self._buffer) + self._stream.n_open_messages

    @property
    def watermark_lag(self) -> float:
        """Ingest clock minus the global watermark (0.0 before both)."""
        watermark = self.watermark()
        if watermark is None or self._clock is None:
            return 0.0
        return self._clock - watermark

    def health(
        self, tail_status: dict[str, dict] | None = None
    ) -> dict[str, float]:
        """One-call health snapshot; keys are exactly
        :data:`INGEST_HEALTH_KEYS`.  ``tail_status`` is a
        :meth:`tail_status` read to reuse instead of a fresh one."""
        states = [src.state for src in self._sources.values()]
        total = lambda field: sum(  # noqa: E731 - tiny local reducer
            getattr(src, field) for src in self._sources.values()
        )
        if tail_status is None:
            tail_status = self.tail_status()
        tail_total = lambda key: sum(  # noqa: E731 - tiny local reducer
            row[key] for row in tail_status.values()
        )
        return {
            "sources": len(self._sources),
            "buffered_messages": len(self._buffer),
            "peak_buffered": self._peak_buffered,
            "watermark_lag_seconds": self.watermark_lag,
            "admitted": total("admitted"),
            "late_dropped": total("late_dropped"),
            "deduplicated": total("deduplicated"),
            "forced_flushes": self._forced_flushes,
            "admission_shed": total("admission_shed"),
            "breaker_rejected": total("breaker_rejected"),
            "breaker_open": states.count("open"),
            "breaker_half_open": states.count("half_open"),
            "breaker_transitions": total("transitions"),
            "tailed_sources": len(tail_status),
            "tail_rotations": tail_total("rotations"),
            "tail_truncations": tail_total("truncations"),
            "tail_lag_bytes": tail_total("lag_bytes"),
        }
