"""Stream helper tests."""

from __future__ import annotations

from repro.syslog.message import SyslogMessage
from repro.syslog.resilient import Quarantine
from repro.syslog.stream import (
    decode_line,
    log_lines,
    read_log,
    sort_messages,
    write_log,
)

LINE = "1970-01-01 00:00:01 r1 LINK-3-UPDOWN: ok"


def _msg(ts: float, router: str = "r1") -> SyslogMessage:
    return SyslogMessage(
        timestamp=ts, router=router, error_code="LINK-3-UPDOWN", detail="x"
    )


class TestSortMerge:
    def test_sort_orders_by_time(self):
        out = sort_messages([_msg(5.0), _msg(1.0), _msg(3.0)])
        assert [m.timestamp for m in out] == [1.0, 3.0, 5.0]

    def test_sort_is_deterministic_for_ties(self):
        a, b = _msg(1.0, "rb"), _msg(1.0, "ra")
        assert sort_messages([a, b]) == sort_messages([b, a])


class TestFileIo:
    def test_write_then_read_roundtrip(self, tmp_path):
        msgs = [_msg(1.0), _msg(2.0, "r2")]
        path = tmp_path / "log.txt"
        assert write_log(path, msgs) == 2
        back = list(read_log(path))
        assert [(m.timestamp, m.router) for m in back] == [
            (1.0, "r1"),
            (2.0, "r2"),
        ]

    def test_read_skips_garbage_by_default(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text(
            "garbage line\n\n1970-01-01 00:00:01 r1 LINK-3-UPDOWN: ok\n"
        )
        assert len(list(read_log(path))) == 1

    def test_read_quarantines_garbage_naming_line_and_file(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text(f"{LINE}\n\ngarbage\n")
        quarantine = Quarantine()
        assert len(read_log(path, quarantine)) == 1
        (record,) = quarantine.records()
        assert record.line == "garbage"
        assert record.line_no == 3  # blank lines still count
        assert record.source == str(path)

    def test_read_returns_time_sorted_messages(self, tmp_path):
        msgs = [_msg(5.0), _msg(1.0, "r2"), _msg(3.0)]
        path = tmp_path / "log.txt"
        write_log(path, msgs)
        assert read_log(path) == sort_messages(msgs)


class TestDecode:
    def test_bad_byte_is_replaced_not_raised(self):
        assert decode_line(b"a\xffb") == "a\ufffdb"

    def test_one_trailing_carriage_return_is_stripped(self):
        assert decode_line(b"x\r") == "x"
        assert decode_line(b"x\r\r") == "x\r"

    def test_log_lines_keeps_blanks_and_a_newline_less_tail(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_bytes(b"a\r\n\nb\xff\nlast")
        assert list(log_lines(path)) == ["a", "", "b\ufffd", "last"]

    def test_bad_byte_in_free_text_keeps_the_message(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_bytes(LINE.encode() + b" \xff\n")
        (message,) = read_log(path)
        assert message.detail == "ok \ufffd"
