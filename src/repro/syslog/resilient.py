"""Resilient ingest: the quarantine dead-letter queue and backoff policy.

Operational collector feeds are lossy, duplicated, bursty, and sometimes
plain garbage; a production digester must never die because one router
emitted an unparseable line or one feed flapped.  This module provides
the ingestion-side defenses:

* :class:`Quarantine` — a bounded dead-letter queue.  Lines that fail
  :func:`repro.syslog.parse.parse_line` (or messages the stream rejects,
  e.g. beyond skew tolerance) are recorded with their source, line
  number, and error instead of raised; the queue can be dumped as JSONL
  for offline triage and replayed by :func:`requeue_records`.
* :class:`RetryPolicy` — the deterministic exponential-backoff schedule
  (no jitter: schedules must be reproducible under test) behind the
  ingest breakers' half-open probes and the serve supervisor's restarts.

Every failure mode emits counters through :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import QUARANTINED, get_registry
from repro.syslog.message import SyslogMessage
from repro.syslog.parse import SyslogParseError, parse_line
from repro.syslog.stream import log_lines
from repro.utils.fsio import atomic_write_text


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined input with enough context to triage it offline."""

    line: str
    error: str
    source: str | None = None
    line_no: int | None = None
    kind: str = "parse"

    def to_json(self) -> str:
        """Render as one JSONL line."""
        return json.dumps(
            {
                "kind": self.kind,
                "source": self.source,
                "line_no": self.line_no,
                "error": self.error,
                "line": self.line,
            }
        )


class Quarantine:
    """Bounded dead-letter queue for lines the pipeline cannot digest.

    Keeps at most ``max_records`` most-recent records (older ones are
    dropped and counted as overflow); totals keep counting past the
    bound so operators can see the real damage, not just the retained
    window.
    """

    def __init__(self, max_records: int = 10_000) -> None:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        self.max_records = max_records
        self._records: deque[QuarantineRecord] = deque(maxlen=max_records)
        self._total = 0
        self._overflow = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def total(self) -> int:
        """Every quarantined input ever, including overflowed ones."""
        return self._total

    @property
    def overflow(self) -> int:
        """Records dropped because the queue was full."""
        return self._overflow

    def add(self, record: QuarantineRecord) -> None:
        """Quarantine one input."""
        if len(self._records) == self.max_records:
            self._overflow += 1
        self._records.append(record)
        self._total += 1
        registry = get_registry()
        if registry.enabled:
            registry.inc(QUARANTINED, kind=record.kind)

    def add_parse_error(
        self, line: str, error: SyslogParseError
    ) -> None:
        """Quarantine a line that failed :func:`parse_line`."""
        self.add(
            QuarantineRecord(
                line=line.rstrip("\n"),
                error=str(error),
                source=error.source,
                line_no=error.line_no,
                kind="parse",
            )
        )

    def records(self) -> list[QuarantineRecord]:
        """Snapshot of the retained records, oldest first."""
        return list(self._records)

    def dump(self, path: str | Path, max_bytes: int = 0) -> int:
        """Write the retained records as JSONL; returns how many.

        With ``max_bytes`` set, an existing dump is *rotated* instead of
        overwritten — ``path`` shifts to ``path.1``, ``path.1`` to
        ``path.2``, and so on — and the oldest rotations are then
        deleted until the whole family fits inside the byte budget
        (the freshly written base file always survives, even alone over
        budget).  A crash-looping source that dumps on every restart can
        therefore never grow the quarantine spill without bound.
        ``max_bytes=0`` keeps the legacy overwrite-in-place behavior.

        Disk-fault safe: the base file is written atomically, and a
        failed write (ENOSPC mid-rotation) unwinds the renames so the
        rotation family is exactly as before; the in-memory queue is
        never touched, so the next dump interval retries with nothing
        lost.  The ``OSError`` propagates for the caller to note.
        """
        path = Path(path)
        renames: list[tuple[Path, Path]] = []
        if max_bytes > 0 and path.exists():
            rotated = rotated_quarantine_paths(path)
            for old in reversed(rotated):  # highest index first
                index = int(old.suffix[1:])
                target = path.with_name(f"{path.name}.{index + 1}")
                old.rename(target)
                renames.append((old, target))
            target = path.with_name(f"{path.name}.1")
            path.rename(target)
            renames.append((path, target))
        records = self.records()
        text = "".join(record.to_json() + "\n" for record in records)
        try:
            atomic_write_text(path, text)
        except OSError:
            for original, target in reversed(renames):
                target.rename(original)
            raise
        if max_bytes > 0:
            total = path.stat().st_size
            for old in rotated_quarantine_paths(path):
                total += old.stat().st_size
            # Oldest first (highest rotation index) until inside budget.
            for old in reversed(rotated_quarantine_paths(path)):
                if total <= max_bytes:
                    break
                total -= old.stat().st_size
                old.unlink()
        return len(records)

    def drain(self) -> list[QuarantineRecord]:
        """Remove and return the retained records, oldest first.

        Totals keep counting — draining hands the records to a replayer
        (dump + requeue), it does not erase the damage record.
        """
        records = list(self._records)
        self._records.clear()
        return records

    def summary(self) -> dict[str, int]:
        """Depth/total/overflow in one dict (mirrors the health keys)."""
        return {
            "depth": len(self._records),
            "total": self._total,
            "overflow": self._overflow,
        }


def rotated_quarantine_paths(path: str | Path) -> list[Path]:
    """Existing rotations of a quarantine dump, newest (``.1``) first.

    Only contiguous numeric suffixes produced by :meth:`Quarantine.dump`
    count; an unrelated ``foo.jsonl.bak`` next door is never touched.
    """
    path = Path(path)
    out: list[Path] = []
    index = 1
    while True:
        candidate = path.with_name(f"{path.name}.{index}")
        if not candidate.exists():
            break
        out.append(candidate)
        index += 1
    return out


def quarantine_files(path: str | Path) -> list[Path]:
    """Every file of a (possibly rotated) quarantine dump, oldest first.

    The replay order :func:`requeue_records` wants: highest rotation
    index down to ``.1``, then the base file — so requeued messages
    reach the stream in roughly the order they were quarantined.
    Includes the base path even when it does not exist (the caller gets
    its open() error instead of a silent no-op).
    """
    path = Path(path)
    return list(reversed(rotated_quarantine_paths(path))) + [path]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential-backoff schedule for flaky sources.

    Attempt ``i`` (0-based) failing waits ``base_delay * 2**i`` seconds
    before attempt ``i + 1``; after ``max_retries`` retries the source is
    given up on.  No jitter on purpose: retry schedules in tests and
    fault benches must be reproducible.
    """

    max_retries: int = 3
    base_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")

    def delays(self) -> Iterator[float]:
        """The backoff delays, in order."""
        for attempt in range(self.max_retries):
            yield self.base_delay * (2**attempt)


def resilient_parse(
    lines: Iterable[str],
    quarantine: Quarantine,
    source: str | None = None,
) -> Iterator[SyslogMessage]:
    """Parse collector lines, quarantining the unparseable ones."""
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield parse_line(line, line_no=line_no, source=source)
        except SyslogParseError as exc:
            quarantine.add_parse_error(line, exc)


def push_safe(stream, message: SyslogMessage, quarantine: Quarantine):
    """Push one message, quarantining a rejection instead of raising.

    ``DigestStream.push`` refuses messages beyond the skew tolerance;
    under feed stalls and replay bursts that is expected input, not a
    crash.  Returns the finalized events (empty on quarantine).
    """
    from repro.syslog.parse import format_line

    try:
        return stream.push(message)
    except ValueError as exc:
        quarantine.add(
            QuarantineRecord(
                line=format_line(message),
                error=str(exc),
                source=message.router,
                kind="rejected",
            )
        )
        return []


def requeue_records(
    path: str | Path, stream, quarantine: Quarantine
) -> tuple[list, int, int]:
    """Replay a dumped quarantine JSONL through :func:`push_safe`.

    Quarantined lines are often salvageable once conditions change — a
    skew-rejected burst replays fine after the stream clock catches up,
    and operators fix garbled lines offline.  Each record's ``line`` is
    re-parsed and pushed; anything that fails again (unparseable, or
    re-rejected by the stream) lands in ``quarantine`` — the round trip
    never raises.  Rotated dumps (``path.2``, ``path.1``, …, written by
    :meth:`Quarantine.dump` under a byte budget) are replayed too,
    oldest file first.  Returns ``(events, n_ok, n_failed)``.
    """
    events: list = []
    n_ok = 0
    n_failed = 0
    for part in quarantine_files(path):
        for line_no, raw in enumerate(log_lines(part), start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
                line = record["line"]
            except (ValueError, KeyError, TypeError):
                n_failed += 1
                quarantine.add(
                    QuarantineRecord(
                        line=raw,
                        error="not a quarantine JSONL record",
                        source=str(part),
                        line_no=line_no,
                        kind="requeue",
                    )
                )
                continue
            try:
                message = parse_line(line, line_no=line_no, source=str(part))
            except SyslogParseError as exc:
                n_failed += 1
                quarantine.add_parse_error(line, exc)
                continue
            before = quarantine.total
            events.extend(push_safe(stream, message, quarantine))
            if quarantine.total > before:
                n_failed += 1
            else:
                n_ok += 1
    return events, n_ok, n_failed
