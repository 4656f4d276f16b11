"""Unit gate for the rotation-safe tailing layer (DESIGN.md §14).

Pins the :class:`~repro.syslog.tail.SourceTailer` protocol pieces one
by one — append follow, partial-line carry, rotation (single and
chained) with the old file's remainder drained, in-place truncation
restart, committed-cursor snapshot/restore mid-stream, read-fault
degradation — plus the :class:`TailSet` bundle the serve tenant
actually wires in.  The end-to-end fingerprint identity these pieces
add up to is gated separately by ``tests/test_chaos_smoke.py``.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.syslog.tail import (
    TAIL_SNAPSHOT_VERSION,
    SourceTailer,
    TailSet,
)
from repro.utils import fsio

pytestmark = pytest.mark.ingest


def _line(second: int, text: str = "event") -> str:
    return f"2024-01-01 00:00:{second:02d} r1 CODE-{second}: {text}"


def _write(path, seconds, mode="w"):
    with open(path, mode, encoding="utf-8") as fh:
        for second in seconds:
            fh.write(_line(second) + "\n")


def _drain(tailer: SourceTailer) -> list[str]:
    """Poll, hand out, and commit everything — the tenant loop's shape."""
    tailer.poll()
    lines = [line for _ts, line in tailer.take_new()]
    for _ in lines:
        tailer.note_pushed()
    return lines


class TestFollow:
    def test_reads_whole_file_then_appended_tail(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1, 2, 3])
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1), _line(2), _line(3)]
        assert _drain(tailer) == []  # nothing new: polls are idempotent
        _write(path, [4, 5], mode="a")
        assert _drain(tailer) == [_line(4), _line(5)]
        assert tailer.offset == path.stat().st_size

    def test_partial_line_carried_until_completed(self, tmp_path):
        path = tmp_path / "s.log"
        half = _line(7)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_line(1) + "\n" + half[:10])
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1)]
        assert tailer.status()["carry_bytes"] == 10
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(half[10:] + "\n")
        assert _drain(tailer) == [_line(7)]
        assert tailer.status()["carry_bytes"] == 0

    def test_blank_lines_never_become_arrivals(self, tmp_path):
        path = tmp_path / "s.log"
        path.write_text(f"{_line(1)}\n\n   \n{_line(2)}\n")
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1), _line(2)]
        # Committing line 2 consumed the blank bytes before it too.
        assert tailer.offset == path.stat().st_size

    def test_unparseable_lines_ride_the_last_timestamp(self, tmp_path):
        path = tmp_path / "s.log"
        path.write_text(f"{_line(5)}\ngarbage with no stamp\n")
        tailer = SourceTailer(path)
        tailer.poll()
        stamped = tailer.take_new()
        assert [ts for ts, _ in stamped] == [stamped[0][0]] * 2

    def test_blank_lines_skipped_unparseable_ride_last_ts(self, tmp_path):
        """The feed-reader contract on one file, start to end."""
        path = tmp_path / "feed.log"
        path.write_text(
            "2010-01-10 00:00:15 r1 LINK-3-UPDOWN: Interface up\n"
            "\n"
            "### garbage ###\n"
            "2010-01-10 00:00:30 r1 LINK-3-UPDOWN: Interface down\n"
        )
        tailer = SourceTailer(path)
        tailer.poll()
        stamped = tailer.take_new()
        assert len(stamped) == 3
        assert stamped[0][0] == stamped[1][0]  # garbage rides ts of line 1
        assert stamped[2][0] > stamped[0][0]
        assert stamped[1][1] == "### garbage ###"

    def test_missing_file_is_a_quiet_zero(self, tmp_path):
        tailer = SourceTailer(tmp_path / "not-there.log")
        assert tailer.poll() == 0
        assert tailer.io_errors == 0  # absence is normal mid-rotation


class TestRotation:
    def test_rotation_drains_old_file_then_follows_new(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1, 2])
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1), _line(2)]
        _write(path, [3], mode="a")  # unread remainder in the old file
        os.replace(path, tmp_path / "s.log.1")
        _write(path, [4, 5])
        assert _drain(tailer) == [_line(3), _line(4), _line(5)]
        assert tailer.rotations == 1
        assert tailer.inode == os.stat(path).st_ino

    def test_rotation_flushes_the_carry_as_a_final_line(self, tmp_path):
        path = tmp_path / "s.log"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_line(1) + "\n" + _line(2))  # no trailing newline
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1)]
        os.replace(path, tmp_path / "s.log.1")
        _write(path, [3])
        # Rotation means the old file gets no more bytes: its dangling
        # fragment is a real (complete) final line.
        assert _drain(tailer) == [_line(2), _line(3)]

    def test_multi_rotation_chain_replays_oldest_first(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1])
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1)]
        # Two rotations land between polls: the first old file (read
        # up to line 1) ends at .2, a whole never-read file at .1.
        _write(path, [2], mode="a")
        os.replace(path, tmp_path / "s.log.1")
        _write(path, [3, 4])
        os.replace(tmp_path / "s.log.1", tmp_path / "s.log.2")
        os.replace(path, tmp_path / "s.log.1")
        _write(path, [5])
        assert _drain(tailer) == [
            _line(2),
            _line(3),
            _line(4),
            _line(5),
        ]
        assert tailer.rotations == 1  # one detection, however deep

    def test_deleted_old_file_loses_only_its_unread_tail(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1, 2])
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1), _line(2)]
        _write(path, [3], mode="a")
        path.unlink()  # rotation *with deletion*: line 3 is truly gone
        _write(path, [4])
        assert _drain(tailer) == [_line(4)]


class TestTruncation:
    def test_truncate_to_zero_restarts_at_new_content(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1, 2, 3])
        tailer = SourceTailer(path)
        assert _drain(tailer) == [_line(1), _line(2), _line(3)]
        with open(path, "r+b") as fh:
            fh.truncate(0)
        assert tailer.poll() == 0
        assert tailer.truncations == 1
        assert tailer.offset == 0  # committed cursor restarted too
        _write(path, [4])
        assert _drain(tailer) == [_line(4)]

    def test_truncation_discards_unhanded_destroyed_lines(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1, 2])
        tailer = SourceTailer(path)
        tailer.poll()  # both lines pending, none handed out
        with open(path, "r+b") as fh:
            fh.truncate(0)
        _write(path, [9])
        tailer.poll()
        assert [line for _ts, line in tailer.take_new()] == [_line(9)]


class TestResume:
    def test_snapshot_restore_resumes_byte_exact(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1, 2, 3, 4])
        first = SourceTailer(path)
        first.poll()
        handed = first.take_new()
        first.note_pushed()
        first.note_pushed()  # committed through line 2, lines 3-4 in flight
        assert len(handed) == 4
        state = first.snapshot()

        second = SourceTailer(path)
        second.restore(state)
        assert _drain(second) == [_line(3), _line(4)]

    def test_restore_survives_rotation_while_down(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1, 2])
        first = SourceTailer(path)
        _drain(first)
        state = first.snapshot()
        # While "crashed": the file gains a line, rotates, gains more.
        _write(path, [3], mode="a")
        os.replace(path, tmp_path / "s.log.1")
        _write(path, [4])
        second = SourceTailer(path)
        second.restore(state)
        assert _drain(second) == [_line(3), _line(4)]
        assert second.rotations == 1

    def test_note_pushed_without_pending_is_a_bug(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1])
        tailer = SourceTailer(path)
        with pytest.raises(RuntimeError, match="no pending"):
            tailer.note_pushed()


class TestReadFaults:
    def test_injected_read_error_counts_and_retries(self, tmp_path):
        path = tmp_path / "s.log"
        _write(path, [1])
        tailer = SourceTailer(path)

        class FailOnce:
            fired = False

            def __call__(self, op, p):
                if op == "read" and not self.fired:
                    self.fired = True
                    raise OSError(errno.EIO, "injected", p)

        fsio.install_fault_hook(FailOnce())
        try:
            assert tailer.poll() == 0
            assert tailer.io_errors == 1
            assert _drain(tailer) == [_line(1)]  # next poll recovers
        finally:
            fsio.clear_fault_hook()


class TestTailSet:
    def test_snapshot_round_trip_preserves_cursors(self, tmp_path):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        _write(a, [1, 3])
        _write(b, [2])
        tails = TailSet([str(a), str(b)])
        tails.poll()
        feeds = tails.take_new()
        assert [line for _, line in feeds[str(a)]] == [_line(1), _line(3)]
        tails.note_pushed(str(a))
        state = tails.snapshot()
        assert state["version"] == TAIL_SNAPSHOT_VERSION

        restored = TailSet.from_snapshot(state, sources=[str(a), str(b)])
        restored.poll()
        fresh = restored.take_new()
        assert [line for _, line in fresh[str(a)]] == [_line(3)]
        assert [line for _, line in fresh[str(b)]] == [_line(2)]

    def test_from_snapshot_refuses_unknown_version(self, tmp_path):
        with pytest.raises(ValueError, match="version"):
            TailSet.from_snapshot({"version": 99, "sources": {}})

    def test_spec_sources_win_and_may_add(self, tmp_path):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        _write(a, [1])
        _write(b, [2])
        tails = TailSet([str(a)])
        tails.poll()
        tails.take_new()
        tails.note_pushed(str(a))
        grown = TailSet.from_snapshot(
            tails.snapshot(), sources=[str(a), str(b)]
        )
        grown.poll()
        fresh = grown.take_new()
        assert fresh[str(a)] == []  # cursor survived
        assert [line for _, line in fresh[str(b)]] == [_line(2)]

    def test_status_rows_surface_offsets_and_lag(self, tmp_path):
        a = tmp_path / "a.log"
        _write(a, [1, 2])
        tails = TailSet([str(a)])
        tails.poll()
        tails.take_new()
        tails.note_pushed(str(a))
        row = tails.status()[str(a)]
        assert row["tail_offset"] > 0
        assert row["lag_bytes"] == a.stat().st_size - row["tail_offset"]
        assert row["rotations"] == 0
