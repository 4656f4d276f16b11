"""Rotation-safe live tailing of collector logs (DESIGN.md §14).

Production syslog feeds are files that *move*: appenders grow them,
logrotate renames them aside (``feed.log`` → ``feed.log.1``) and starts
a fresh file, disk pressure truncates them, and the whole daemon can be
SIGKILLed between any two of those.  :class:`SourceTailer` follows one
such file with a protocol built around two cursors:

* the **read cursor** — how far polling has consumed the current file.
  It lives only in memory and is rebuilt from the committed cursor
  after a restart, so it never needs to be crash-consistent.
* the **committed cursor** — ``(inode, byte offset, stamp clock)`` of
  the last line actually *pushed* into the pipeline
  (:meth:`note_pushed`).  This is the only state that rides inside
  checkpoints: at any instant it points exactly at the frontier the
  stream state accounts for, so a kill -9 resumes with no re-read of
  the consumed prefix and no duplicate push.

Polling is stateless between calls — no file descriptor is held open.
Each poll stats the path and compares the inode and size against the
read cursor:

* **same inode, size grew** — read the appended bytes; complete lines
  become pending entries, a trailing fragment is carried over and
  completed by a later poll.
* **same inode, same size** — nothing was appended: an idle poll costs
  one ``stat`` and opens nothing.
* **different inode** — the file was rotated.  The old file is found
  among its numbered siblings by inode match, its remainder is drained
  (a trailing fragment becomes the old file's final line — rotation
  means no more bytes are coming), any intermediate rotations are
  replayed oldest-first, then reading restarts at offset 0 of the new
  file.  Because crash recovery re-runs this same search from the
  committed cursor, live rotation handling and post-crash restore are
  one code path.
* **same inode, size shrank below the read cursor** — the file was
  truncated in place.  Reading restarts at offset 0; the carry and any
  not-yet-handed-out lines of that generation are discarded (their
  bytes no longer exist).

Read errors (a failing disk, a vanished file mid-rotation) are counted
and retried on the next poll — a sick source degrades, it never kills
the pipeline.  Lines decode through
:func:`repro.syslog.stream.decode_line`, the policy file reads share.
Timestamp stamping is the CLI feed reader's contract:
blank lines are skipped (they would not count as arrivals downstream
either), unparseable lines ride at the last readable timestamp so they
reach the ingest — and its breakers — in position instead of vanishing.
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path

from repro.syslog.stream import decode_line
from repro.utils import inject
from repro.utils.timeutils import parse_ts

#: Format version of :meth:`TailSet.snapshot` payloads (they ride inside
#: the ingest snapshot, which rides inside stream checkpoints).
TAIL_SNAPSHOT_VERSION = 1

#: The committed-cursor fields one tailer persists.
_CURSOR_FIELDS = (
    "inode",
    "offset",
    "last_ts",
    "rotations",
    "truncations",
    "io_errors",
)


class TailEntry:
    """One complete line read but not yet committed.

    ``end_offset`` is the absolute byte position just past the line's
    newline in the file identified by ``inode`` — committing the entry
    moves the committed cursor there, implicitly consuming any blank
    lines that preceded it.
    """

    __slots__ = ("inode", "end_offset", "ts", "line")

    def __init__(
        self, inode: int, end_offset: int, ts: float, line: str
    ) -> None:
        self.inode = inode
        self.end_offset = end_offset
        self.ts = ts
        self.line = line


class SourceTailer:
    """Committed-cursor, rotation-aware tailer for one source log."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.name = str(path)
        # Committed cursor (rides in snapshots).
        self.inode: int | None = None
        self.offset = 0
        self.last_ts = 0.0
        self.rotations = 0
        self.truncations = 0
        self.io_errors = 0
        # Read-side state (rebuilt by polling, never persisted).
        self._pending: deque[TailEntry] = deque()
        self._handed = 0
        self._read_inode: int | None = None
        self._read_offset = 0
        self._read_ts = 0.0
        self._carry = b""
        self._last_size: int | None = None

    # ------------------------------------------------------------ polling

    def poll(self) -> int:
        """Consume newly appended complete lines; returns how many.

        Every failure mode (missing file, EIO, rotation race) is
        absorbed: the poll returns 0 and the next one retries from the
        same cursor.
        """
        fault = inject.hook(inject.DURABLE)
        try:
            if fault is not None:
                fault("read", str(self.path))
            st = os.stat(self.path)
        except FileNotFoundError:
            return 0  # mid-rotation gap: the new file is not there yet
        except OSError:
            self.io_errors += 1
            return 0
        self._last_size = st.st_size
        if self._read_inode is None:
            # First poll of this life: resume at the committed cursor
            # (fresh tailers commit-start at offset 0 of the live file).
            if self.inode is None:
                self.inode = st.st_ino
            self._read_inode = self.inode
            self._read_offset = self.offset
            self._read_ts = self.last_ts
        before = len(self._pending)
        try:
            if st.st_ino != self._read_inode:
                self._consume_rotation(st.st_ino)
            else:
                if st.st_size < self._read_offset:
                    self._restart_truncated()
                if st.st_size > self._read_offset:
                    self._read_lines(self.path, live=True)
        except OSError:
            self.io_errors += 1
        return len(self._pending) - before

    def _consume_rotation(self, new_inode: int) -> None:
        """Drain the rotated-away file(s), then restart at the new one."""
        for old_path, ino in self._rotated_chain():
            if ino != self._read_inode:
                # Hop to the next (never-read) generation in the chain.
                self._read_inode = ino
                self._read_offset = 0
                self._carry = b""
            self._read_lines(old_path, live=False)
        self.rotations += 1
        self._read_inode = new_inode
        self._read_offset = 0
        self._carry = b""
        self._read_lines(self.path, live=True)

    def _rotated_chain(self) -> list[tuple[Path, int]]:
        """Dead files still owed to the reader, oldest first.

        The file holding the read cursor's inode is located among the
        numbered rotation siblings (``path.1`` is the newest rotation,
        so a higher index is an older file); anything rotated *after*
        it (lower index) has never been read and is owed in full.  A
        vanished old file yields an empty chain — its unread tail is
        gone, which rotation-with-deletion genuinely loses.
        """
        siblings: list[tuple[int, Path, int]] = []
        index = 1
        while True:
            candidate = self.path.with_name(f"{self.path.name}.{index}")
            try:
                ino = os.stat(candidate).st_ino
            except OSError:
                break
            siblings.append((index, candidate, ino))
            index += 1
        found_at: int | None = None
        for index, candidate, ino in siblings:
            if ino == self._read_inode:
                found_at = index
                break
        if found_at is None:
            return []
        return [
            (candidate, ino)
            for index, candidate, ino in sorted(siblings, reverse=True)
            if index <= found_at
        ]

    def _restart_truncated(self) -> None:
        """The live file shrank under the read cursor: start over at 0."""
        self.truncations += 1
        generation = self._read_inode
        kept: deque[TailEntry] = deque()
        for i, entry in enumerate(self._pending):
            if i >= self._handed and entry.inode == generation:
                continue  # its bytes were destroyed before anyone saw them
            kept.append(entry)
        self._pending = kept
        self._carry = b""
        self._read_offset = 0
        # With nothing of the old generation left in flight, the
        # committed cursor must restart too — a checkpoint cut now has
        # to resume reading the *new* content from byte 0.
        if self.inode == generation and not any(
            entry.inode == generation for entry in self._pending
        ):
            self.offset = 0

    def _read_lines(self, path: Path, live: bool) -> None:
        """Read from the read cursor to EOF of ``path``.

        ``live=False`` marks a rotated-away file: its trailing fragment
        is emitted as a final line (no more bytes are coming) instead of
        being carried, and the read cursor does not advance past it —
        the caller repoints the cursor at the next generation.
        """
        inode = self._read_inode
        assert inode is not None
        with open(path, "rb") as fh:
            fh.seek(self._read_offset)
            chunk = fh.read()
        if chunk:
            # Absolute offset where the carry + chunk starts in this file.
            pos = self._read_offset - len(self._carry)
            pieces = (self._carry + chunk).split(b"\n")
            for piece in pieces[:-1]:
                pos += len(piece) + 1
                self._stamp_and_queue(inode, pos, piece)
            self._carry = pieces[-1]
            self._read_offset += len(chunk)
        if not live:
            # Rotation: the old file's final, newline-less line is
            # still a real line.
            self.flush()

    def flush(self) -> None:
        """End of input: queue the carried fragment as a final line.

        A live poll carries it until its newline arrives; rotation and a
        one-shot reader know no more bytes are coming.
        """
        if self._carry:
            self._stamp_and_queue(
                self._read_inode, self._read_offset, self._carry
            )
            self._carry = b""

    def _stamp_and_queue(
        self, inode: int, end_offset: int, raw: bytes
    ) -> None:
        line = decode_line(raw)
        if not line.strip():
            return  # blank lines never become arrivals
        try:
            self._read_ts = parse_ts(line[:19])
        except ValueError:
            pass  # unparseable lines ride at the last readable timestamp
        self._pending.append(
            TailEntry(inode, end_offset, self._read_ts, line)
        )

    # ----------------------------------------------------------- hand-off

    def take_new(self) -> list[tuple[float, str]]:
        """Stamped ``(ts, line)`` pairs polled since the last take."""
        fresh = list(self._pending)[self._handed:]
        self._handed = len(self._pending)
        return [(entry.ts, entry.line) for entry in fresh]

    def note_pushed(self) -> None:
        """Advance the committed cursor past the oldest handed-out line.

        Called once per line actually pushed into the ingest, in hand-out
        order; the committed cursor therefore always equals the pushed
        frontier, which is what makes mid-batch checkpoints (and kill
        -9 between any two pushes) resume exactly.
        """
        if not self._pending:
            raise RuntimeError(
                f"{self.name}: note_pushed with no pending tail line"
            )
        entry = self._pending.popleft()
        if self._handed > 0:
            self._handed -= 1
        self.inode = entry.inode
        self.offset = entry.end_offset
        self.last_ts = entry.ts

    # ----------------------------------------------------- snapshot/health

    def snapshot(self) -> dict:
        """The committed cursor alone — all a resume needs."""
        return {field: getattr(self, field) for field in _CURSOR_FIELDS}

    def restore(self, state: dict) -> None:
        """Adopt a committed cursor captured by :meth:`snapshot`."""
        for field in _CURSOR_FIELDS:
            setattr(self, field, state[field])
        self._pending.clear()
        self._handed = 0
        self._read_inode = None
        self._carry = b""

    def lag_bytes(self) -> int:
        """Bytes on disk the committed cursor has not consumed yet."""
        try:
            st = os.stat(self.path)
        except OSError:
            return 0
        if self.inode is not None and st.st_ino == self.inode:
            return max(0, st.st_size - self.offset)
        return st.st_size  # rotated: the whole new file is unconsumed

    def status(self) -> dict:
        """One operator-facing row (the ``sources`` table/endpoint)."""
        return {
            "tail_offset": self.offset,
            "tail_inode": self.inode,
            "rotations": self.rotations,
            "truncations": self.truncations,
            "lag_bytes": self.lag_bytes(),
            "carry_bytes": len(self._carry),
            "pending_lines": len(self._pending),
            "io_errors": self.io_errors,
        }


class TailSet:
    """The per-tenant bundle of tailers, one per configured source."""

    def __init__(self, sources) -> None:
        self._order = [str(source) for source in sources]
        self._tailers = {
            name: SourceTailer(name) for name in self._order
        }

    def tailer(self, source: str) -> SourceTailer:
        return self._tailers[str(source)]

    def poll(self) -> int:
        """Poll every source; returns total new complete lines."""
        return sum(
            self._tailers[name].poll() for name in self._order
        )

    def flush(self) -> None:
        """End of input on every source (see :meth:`SourceTailer.flush`)."""
        for tailer in self._tailers.values():
            tailer.flush()

    def take_new(self) -> dict[str, list[tuple[float, str]]]:
        """Per-source stamped feeds of everything polled but not handed
        out yet, in source registration order."""
        return {
            name: self._tailers[name].take_new() for name in self._order
        }

    def note_pushed(self, source: str) -> None:
        self._tailers[str(source)].note_pushed()

    def status(self) -> dict[str, dict]:
        """Per-source status rows keyed by source name."""
        return {
            name: self._tailers[name].status() for name in self._order
        }

    def snapshot(self) -> dict:
        return {
            "version": TAIL_SNAPSHOT_VERSION,
            "sources": {
                name: self._tailers[name].snapshot()
                for name in self._order
            },
        }

    @classmethod
    def from_snapshot(cls, state: dict, sources=None) -> "TailSet":
        """Rebuild a tail set from a checkpoint capture.

        ``sources`` (the tenant spec's list) wins for ordering and may
        add sources the checkpoint never saw; cursors are restored for
        every source the capture knows.
        """
        if state.get("version") != TAIL_SNAPSHOT_VERSION:
            raise ValueError(
                f"tail snapshot version {state.get('version')!r} != "
                f"supported {TAIL_SNAPSHOT_VERSION}"
            )
        names = (
            [str(s) for s in sources]
            if sources is not None
            else list(state["sources"])
        )
        tails = cls(names)
        for name, cursor in state["sources"].items():
            if name in tails._tailers:
                tails._tailers[name].restore(cursor)
        return tails
