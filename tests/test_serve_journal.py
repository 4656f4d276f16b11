"""Serve journals: framed event log crash semantics + transition JSONL.

The EventJournal is half of the serve crash-safety protocol (the
checkpoint is the other half): fsync-before-checkpoint means the
journal always covers the checkpoint's ``finalized`` count, and
truncate-to-finalized on restore means replayed events are never
doubled.  These tests pin the file-format behaviors that protocol
leans on — torn-frame recovery, truncation, cursor reads — without
booting a daemon.
"""

from __future__ import annotations

import pytest

from repro.serve.journal import EventJournal, TransitionJournal

pytestmark = pytest.mark.serve


class TestEventJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = EventJournal(tmp_path / "events.bin")
        journal.append(["a", ("b", 2), {"c": 3.0}])
        assert len(journal) == 3
        assert journal.read_all() == ["a", ("b", 2), {"c": 3.0}]
        journal.close()

    def test_cursor_pagination(self, tmp_path):
        journal = EventJournal(tmp_path / "events.bin")
        journal.append(list(range(10)))
        assert journal.read(0, 4) == [0, 1, 2, 3]
        assert journal.read(4, 4) == [4, 5, 6, 7]
        assert journal.read(8, 4) == [8, 9]
        assert journal.read(10, 4) == []
        with pytest.raises(ValueError):
            journal.read(-1)
        journal.close()

    def test_reopen_rebuilds_index(self, tmp_path):
        path = tmp_path / "events.bin"
        journal = EventJournal(path)
        journal.append(["x", "y"])
        journal.sync()
        journal.close()
        reopened = EventJournal(path)
        assert len(reopened) == 2
        reopened.append(["z"])
        assert reopened.read_all() == ["x", "y", "z"]
        reopened.close()

    def test_torn_final_frame_is_dropped_at_open(self, tmp_path):
        path = tmp_path / "events.bin"
        journal = EventJournal(path)
        journal.append(["keep-1", "keep-2"])
        journal.sync()
        journal.close()
        good_size = path.stat().st_size
        # A crash mid-append: length prefix promises more bytes than
        # the file holds.
        with open(path, "ab") as fh:
            fh.write(b"\xff\x00\x00\x00partial")
        reopened = EventJournal(path)
        assert len(reopened) == 2
        assert reopened.read_all() == ["keep-1", "keep-2"]
        # The torn bytes are physically gone, so appends extend a
        # clean frame sequence.
        assert path.stat().st_size == good_size
        reopened.append(["keep-3"])
        assert reopened.read_all() == ["keep-1", "keep-2", "keep-3"]
        reopened.close()

    def test_torn_multi_record_tail_drops_every_cut_frame(self, tmp_path):
        import struct

        path = tmp_path / "events.bin"
        journal = EventJournal(path)
        journal.append([f"rec-{i}" for i in range(5)])
        journal.sync()
        # Frame boundaries, straight from the length prefixes.
        offsets = []
        data = path.read_bytes()
        pos = 0
        while pos < len(data):
            offsets.append(pos)
            (length,) = struct.unpack_from("<I", data, pos)
            pos += 4 + length
        journal.close()
        # The crash tears *inside record N-1's length prefix* — two
        # bytes into frame 3's header — so both frame 3 and the intact
        # frame 4 bytes after it must be dropped: a scan cannot trust
        # anything past a torn header.
        with open(path, "r+b") as fh:
            fh.truncate(offsets[3] + 2)
        reopened = EventJournal(path)
        assert reopened.read_all() == ["rec-0", "rec-1", "rec-2"]
        assert path.stat().st_size == offsets[3]
        reopened.append(["rec-3b"])
        assert reopened.read_all() == ["rec-0", "rec-1", "rec-2", "rec-3b"]
        reopened.close()

    def test_disk_fault_parks_frames_in_the_retry_buffer(self, tmp_path):
        import errno

        from repro.utils import inject

        path = tmp_path / "events.bin"
        journal = EventJournal(path)
        journal.append(["before"])
        journal.sync()
        on_disk = path.stat().st_size

        class Always:
            def __call__(self, op, p):
                if op == "write" and "events.bin" in p:
                    raise OSError(errno.ENOSPC, "injected", p)

        with inject.arm({inject.DURABLE: Always()}):
            # append never raises; the frames wait in memory and every
            # read serves them transparently.
            assert journal.append(["during-1", "during-2"]) == 3
            assert journal.last_error is not None
            assert journal.buffered_bytes > 0
            assert path.stat().st_size == on_disk  # rolled back cleanly
            assert journal.read_all() == ["before", "during-1", "during-2"]
            assert journal.read(1, 1) == ["during-1"]
            # sync is the raising call — the checkpoint-skip signal.
            with pytest.raises(OSError):
                journal.sync()
            # truncate into the buffered region never touches the disk.
            assert journal.truncate(2) == 1
            assert journal.read_all() == ["before", "during-1"]
        # Disk recovered: the next sync flushes the parked frames.
        journal.sync()
        assert journal.last_error is None
        assert journal.buffered_bytes == 0
        journal.close()
        assert EventJournal(path).read_all() == ["before", "during-1"]

    def test_truncate_to_finalized_count(self, tmp_path):
        path = tmp_path / "events.bin"
        journal = EventJournal(path)
        journal.append(["a", "b", "c", "d"])
        journal.sync()
        assert journal.truncate(2) == 2
        assert journal.read_all() == ["a", "b"]
        # Idempotent past the end; appends continue from the cut.
        assert journal.truncate(5) == 0
        journal.append(["c2"])
        journal.close()
        assert EventJournal(path).read_all() == ["a", "b", "c2"]
        with pytest.raises(ValueError):
            journal.truncate(-1)


class TestTransitionJournal:
    def test_append_read_survives_reopen(self, tmp_path):
        path = tmp_path / "supervisor.jsonl"
        journal = TransitionJournal(path)
        journal.append({"from": "starting", "to": "healthy"})
        journal.append({"from": "healthy", "to": "restarting"})
        assert TransitionJournal(path).read() == [
            {"from": "starting", "to": "healthy"},
            {"from": "healthy", "to": "restarting"},
        ]
