"""Durable per-tenant journals for the serve daemon (DESIGN.md §13).

Two append-only files back every tenant a daemon serves:

* :class:`EventJournal` — the finalized-event log.  Checkpoints capture
  grouping *state*; the events already emitted before a crash live only
  here.  Records are length-prefixed pickle frames, so the journal
  round-trips full :class:`~repro.core.events.NetworkEvent` objects and
  the smoke gate can recompute :func:`repro.hotpath.stream_fingerprint`
  over exactly what the daemon served.

  Crash consistency is a two-invariant protocol with the checkpoint:

  1. the journal is fsynced *before* every checkpoint write, so it
     always holds at least the ``finalized`` count the checkpoint
     records;
  2. on restore, :meth:`truncate` cuts the journal back to exactly that
     count — events finalized after the checkpoint will be re-emitted
     by the tail replay, and keeping the journaled copies would
     duplicate them.

  Together: journal ∪ replay = the uninterrupted event sequence, with
  no event lost and none doubled.  A torn final frame (the crash landed
  mid-append) is detected by the length prefix and dropped at open.

  Disk faults degrade instead of crashing (DESIGN.md §14): a failed
  write parks the frames in an in-memory retry buffer, rolls the file
  back to the last complete frame boundary, and retries on the next
  append/sync.  :meth:`append` therefore never raises; :meth:`sync`
  does — which is what keeps invariant (1) honest, because a
  checkpoint is skipped whenever its journal fsync could not land.

* :class:`TransitionJournal` — the supervisor's JSONL log of state
  transitions (healthy → restarting → degraded → drained), one object
  per line, append-only, human-greppable.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import struct
from pathlib import Path

from repro.utils import inject
from repro.utils.fsio import fsync_dir

_LEN = struct.Struct("<I")


class EventJournal:
    """Append-only, truncatable log of pickled finalized events.

    The file is a sequence of ``<u32 little-endian length><pickle>``
    frames.  Frame offsets are kept in memory (rebuilt by one scan at
    open) so cursor-paginated reads seek straight to a record.

    Writes are unbuffered and all-or-rolled-back: ``_file_end`` always
    sits on a frame boundary, any failed flush truncates the file back
    to it, and the unflushed frames wait in ``_buffer`` (served
    transparently by :meth:`read`) until a later flush succeeds.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._offsets: list[int] = []
        #: End of the last complete frame on disk; flush rollback point.
        self._file_end = 0
        #: Frames accepted by append() but not yet on disk.
        self._buffer = bytearray()
        #: The OSError from the most recent failed flush, until one lands.
        self.last_error: OSError | None = None
        self._fh = None
        created = not self.path.exists()
        self._scan()
        self._fh = open(self.path, "ab", buffering=0)
        if created:
            fsync_dir(self.path.parent)

    def _scan(self) -> None:
        """Index the existing frames; drop a torn final frame."""
        self._offsets = []
        if not self.path.exists():
            self.path.touch()
            return
        size = self.path.stat().st_size
        good_end = 0
        with open(self.path, "rb") as fh:
            pos = 0
            while pos + _LEN.size <= size:
                head = fh.read(_LEN.size)
                (length,) = _LEN.unpack(head)
                if pos + _LEN.size + length > size:
                    break  # torn frame: the crash landed mid-append
                self._offsets.append(pos)
                pos += _LEN.size + length
                fh.seek(pos)
                good_end = pos
        if good_end < size:
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)
        self._file_end = good_end

    def __len__(self) -> int:
        return len(self._offsets)

    @property
    def buffered_bytes(self) -> int:
        """Bytes parked in the in-memory retry buffer (0 when healthy)."""
        return len(self._buffer)

    @property
    def size_bytes(self) -> int:
        """Total journal footprint: flushed frames + the retry buffer.

        The counter the ``journal_max_bytes`` tenant budget compares
        against — exact and deterministic for a given event sequence,
        never a wall-clock sample of the file system.
        """
        return self._file_end + len(self._buffer)

    def append(self, events) -> int:
        """Append events; returns the new record count.  Never raises.

        Frames go into the retry buffer first, then one flush is
        attempted; on a disk fault the frames stay buffered (readable,
        truncatable) and the error is held in :attr:`last_error`.
        Durability is deferred to :meth:`sync` — call it before every
        checkpoint write so invariant (1) in the module docstring holds.
        """
        for event in events:
            blob = pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL)
            self._offsets.append(self._file_end + len(self._buffer))
            self._buffer += _LEN.pack(len(blob))
            self._buffer += blob
        try:
            self._flush_buffer()
        except OSError as exc:
            self.last_error = exc
        return len(self._offsets)

    def _flush_buffer(self) -> None:
        """Write the retry buffer to disk; all-or-rolled-back.

        On any failure the file is truncated back to ``_file_end`` (a
        partial frame on disk would read as torn at the next open) and
        the buffer is left intact for the next attempt.
        """
        if not self._buffer:
            return
        data = bytes(self._buffer)
        fault = inject.hook(inject.DURABLE)
        try:
            if fault is not None:
                fault("write", str(self.path))
            pos = 0
            while pos < len(data):
                n = self._fh.write(data[pos:])
                if not n:
                    raise OSError(
                        errno.EIO, "short write", str(self.path)
                    )
                pos += n
        except OSError:
            try:
                os.ftruncate(self._fh.fileno(), self._file_end)
            except OSError:
                pass
            raise
        self._file_end += len(data)
        del self._buffer[:]
        self.last_error = None

    def sync(self) -> None:
        """Flush the retry buffer and fsync; raises on disk fault.

        The one raising durability call: the serve tenant skips its
        checkpoint when this fails, so a checkpoint can never record a
        ``finalized`` count the journal does not durably hold.
        """
        self._flush_buffer()
        os.fsync(self._fh.fileno())

    def truncate(self, count: int) -> int:
        """Cut the journal back to its first ``count`` records.

        The resume-consistency step: called with the checkpoint's
        ``finalized`` counter before replay, so re-finalized events are
        never doubled.  Returns how many records were dropped.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if count >= len(self._offsets):
            return 0
        dropped = len(self._offsets) - count
        end = self._offsets[count]
        if end >= self._file_end:
            # Cut lands inside the retry buffer: drop buffered frames
            # from the cut point on, disk untouched.
            del self._buffer[end - self._file_end :]
        else:
            del self._buffer[:]
            self._fh.close()
            with open(self.path, "r+b") as fh:
                fh.truncate(end)
                fh.flush()
                os.fsync(fh.fileno())
            self._file_end = end
            self._fh = open(self.path, "ab", buffering=0)
        self._offsets = self._offsets[:count]
        return dropped

    def read(self, cursor: int = 0, limit: int | None = None) -> list:
        """Unpickle records ``[cursor, cursor + limit)``, oldest first.

        Serves flushed frames from the file and unflushed ones from the
        retry buffer — a degraded journal reads exactly like a healthy
        one (a frame is always wholly in one or the other, because
        flushes are all-or-rolled-back).
        """
        if cursor < 0:
            raise ValueError("cursor must be >= 0")
        stop = (
            len(self._offsets)
            if limit is None
            else min(len(self._offsets), cursor + limit)
        )
        if cursor >= stop:
            return []
        out = []
        fh = None
        try:
            for i in range(cursor, stop):
                offset = self._offsets[i]
                if offset >= self._file_end:
                    base = offset - self._file_end
                    (length,) = _LEN.unpack(
                        self._buffer[base : base + _LEN.size]
                    )
                    start = base + _LEN.size
                    out.append(
                        pickle.loads(
                            bytes(self._buffer[start : start + length])
                        )
                    )
                else:
                    if fh is None:
                        fh = open(self.path, "rb")
                    fh.seek(offset)
                    (length,) = _LEN.unpack(fh.read(_LEN.size))
                    out.append(pickle.loads(fh.read(length)))
        finally:
            if fh is not None:
                fh.close()
        return out

    def read_all(self) -> list:
        """Every journaled event, oldest first."""
        return self.read(0, None)

    def close(self) -> None:
        try:
            self._flush_buffer()
        except OSError as exc:
            self.last_error = exc
        self._fh.close()


class TransitionJournal:
    """Append-only JSONL log of supervisor state transitions."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        created = not self.path.exists()
        self.path.touch(exist_ok=True)
        if created:
            fsync_dir(self.path.parent)

    def append(self, entry: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def read(self) -> list[dict]:
        out = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    out.append(json.loads(line))
        return out
