"""Resilient ingest: quarantine, retry policy, and safe pushes."""

from __future__ import annotations

import json

import pytest

from repro.core.stream import DigestStream
from repro.obs import (
    QUARANTINED,
    MetricsRegistry,
    scoped_registry,
)
from repro.syslog.parse import SyslogParseError, parse_line
from repro.syslog.resilient import (
    Quarantine,
    QuarantineRecord,
    RetryPolicy,
    push_safe,
    quarantine_files,
    requeue_records,
    resilient_parse,
    rotated_quarantine_paths,
)

GOOD = "2010-01-10 00:00:15 r1 LINK-3-UPDOWN: Interface up"
BAD = "### not syslog at all ###"


class TestQuarantine:
    def test_records_keep_context(self):
        quarantine = Quarantine()
        try:
            parse_line(BAD, line_no=7, source="feed-a")
        except SyslogParseError as exc:
            quarantine.add_parse_error(BAD + "\n", exc)
        (record,) = quarantine.records()
        assert record.kind == "parse"
        assert record.line == BAD  # newline stripped
        assert record.line_no == 7
        assert record.source == "feed-a"
        assert "feed-a" in record.error and "line 7" in record.error

    def test_bounded_with_overflow_accounting(self):
        quarantine = Quarantine(max_records=3)
        for i in range(5):
            quarantine.add(QuarantineRecord(line=f"l{i}", error="e"))
        assert len(quarantine) == 3
        assert quarantine.total == 5
        assert quarantine.overflow == 2
        # Oldest records are the ones dropped.
        assert [r.line for r in quarantine.records()] == ["l2", "l3", "l4"]
        assert quarantine.summary() == {
            "depth": 3,
            "total": 5,
            "overflow": 2,
        }

    def test_dump_is_jsonl(self, tmp_path):
        quarantine = Quarantine()
        quarantine.add(
            QuarantineRecord(line="x", error="boom", source="s", line_no=1)
        )
        quarantine.add(QuarantineRecord(line="y", error="bam"))
        path = tmp_path / "dead.jsonl"
        assert quarantine.dump(path) == 2
        rows = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert rows[0]["line"] == "x" and rows[0]["line_no"] == 1
        assert rows[1]["error"] == "bam"

    def test_quarantined_counter_by_kind(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            quarantine = Quarantine()
            quarantine.add(QuarantineRecord(line="x", error="e"))
            quarantine.add(
                QuarantineRecord(line="y", error="e", kind="rejected")
            )
        assert registry.counter_value(QUARANTINED, kind="parse") == 1.0
        assert registry.counter_value(QUARANTINED, kind="rejected") == 1.0


class TestRetryPolicy:
    def test_deterministic_exponential_schedule(self):
        policy = RetryPolicy(max_retries=4, base_delay=0.5)
        assert list(policy.delays()) == [0.5, 1.0, 2.0, 4.0]
        # No jitter: the schedule never varies between calls.
        assert list(policy.delays()) == list(policy.delays())

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)


class TestResilientParse:
    def test_good_lines_pass_bad_lines_quarantine(self):
        quarantine = Quarantine()
        messages = list(
            resilient_parse(
                [GOOD, BAD, "", GOOD], quarantine, source="feed"
            )
        )
        assert len(messages) == 2
        (record,) = quarantine.records()
        assert record.line_no == 2
        assert record.source == "feed"


class TestPushSafe:
    def test_rejected_messages_quarantine_instead_of_raising(
        self, system_a
    ):
        stream = DigestStream(system_a.kb, system_a.config)
        quarantine = Quarantine()
        stream.attach_quarantine(quarantine)
        late = parse_line("2010-01-10 00:00:00 r1 LINK-3-UPDOWN: first")
        push_safe(stream, late, quarantine)
        # Far beyond skew tolerance behind the stream clock.
        ahead = parse_line("2010-01-10 12:00:00 r1 LINK-3-UPDOWN: later")
        push_safe(stream, ahead, quarantine)
        replay = parse_line("2010-01-10 00:30:00 r1 LINK-3-UPDOWN: replay")
        events = push_safe(stream, replay, quarantine)
        assert events == []
        (record,) = quarantine.records()
        assert record.kind == "rejected"
        assert record.source == "r1"
        health = stream.health()
        assert health["quarantine_depth"] == 1
        assert health["quarantine_total"] == 1
        assert health["skew_rejected"] == 1


class TestDumpRotation:
    def _dump(self, quarantine_dir, lines, max_bytes):
        quarantine = Quarantine()
        for line in lines:
            quarantine.add(QuarantineRecord(line=line, error="e"))
        return quarantine.dump(
            quarantine_dir / "dead.jsonl", max_bytes=max_bytes
        )

    def test_existing_dump_rotates_instead_of_overwriting(self, tmp_path):
        self._dump(tmp_path, ["first"], max_bytes=1 << 20)
        self._dump(tmp_path, ["second"], max_bytes=1 << 20)
        self._dump(tmp_path, ["third"], max_bytes=1 << 20)
        base = tmp_path / "dead.jsonl"
        assert "third" in base.read_text()
        assert "second" in (tmp_path / "dead.jsonl.1").read_text()
        assert "first" in (tmp_path / "dead.jsonl.2").read_text()
        assert rotated_quarantine_paths(base) == [
            tmp_path / "dead.jsonl.1",
            tmp_path / "dead.jsonl.2",
        ]

    def test_byte_budget_deletes_oldest_rotations(self, tmp_path):
        # Each dump is ~60 bytes; a 150-byte budget keeps at most the
        # fresh base file plus one rotation.
        for i in range(5):
            self._dump(tmp_path, [f"gen-{i}"], max_bytes=150)
        base = tmp_path / "dead.jsonl"
        family = [base] + rotated_quarantine_paths(base)
        assert sum(p.stat().st_size for p in family) <= 150
        assert "gen-4" in base.read_text()
        assert not (tmp_path / "dead.jsonl.4").exists()

    def test_fresh_base_survives_even_alone_over_budget(self, tmp_path):
        self._dump(tmp_path, ["x" * 500], max_bytes=10)
        assert (tmp_path / "dead.jsonl").exists()
        assert rotated_quarantine_paths(tmp_path / "dead.jsonl") == []

    def test_max_bytes_zero_keeps_overwrite_in_place(self, tmp_path):
        self._dump(tmp_path, ["first"], max_bytes=0)
        self._dump(tmp_path, ["second"], max_bytes=0)
        assert "second" in (tmp_path / "dead.jsonl").read_text()
        assert rotated_quarantine_paths(tmp_path / "dead.jsonl") == []

    def test_enospc_unwinds_rotation_and_keeps_the_queue(self, tmp_path):
        import errno

        from repro.utils import inject

        base = tmp_path / "dead.jsonl"
        self._dump(tmp_path, ["gen-0"], max_bytes=1 << 20)
        self._dump(tmp_path, ["gen-1"], max_bytes=1 << 20)
        quarantine = Quarantine()
        quarantine.add(QuarantineRecord(line="held", error="e"))

        class Full:
            def __call__(self, op, p):
                if op == "write" and "dead.jsonl" in p:
                    raise OSError(errno.ENOSPC, "injected", p)

        with inject.arm({inject.DURABLE: Full()}):
            with pytest.raises(OSError):
                quarantine.dump(base, max_bytes=1 << 20)
        # The rotation family is exactly as before the failed dump...
        assert "gen-1" in base.read_text()
        assert "gen-0" in (tmp_path / "dead.jsonl.1").read_text()
        assert not (tmp_path / "dead.jsonl.2").exists()
        # ...and the in-memory queue still holds the record, so the
        # next dump interval retries with nothing lost.
        assert [r.line for r in quarantine.records()] == ["held"]
        quarantine.dump(base, max_bytes=1 << 20)
        assert "held" in base.read_text()
        assert "gen-1" in (tmp_path / "dead.jsonl.1").read_text()
        assert "gen-0" in (tmp_path / "dead.jsonl.2").read_text()

    def test_quarantine_files_orders_oldest_first(self, tmp_path):
        for i in range(3):
            self._dump(tmp_path, [f"gen-{i}"], max_bytes=1 << 20)
        base = tmp_path / "dead.jsonl"
        texts = [p.read_text() for p in quarantine_files(base)]
        assert "gen-0" in texts[0]
        assert "gen-1" in texts[1]
        assert "gen-2" in texts[2]


class TestDrain:
    def test_drain_removes_records_but_keeps_totals(self):
        quarantine = Quarantine()
        quarantine.add(QuarantineRecord(line="a", error="e"))
        quarantine.add(QuarantineRecord(line="b", error="e"))
        drained = quarantine.drain()
        assert [r.line for r in drained] == ["a", "b"]
        assert len(quarantine) == 0
        assert quarantine.total == 2


class TestRequeueRotated:
    def test_requeue_replays_rotated_dumps_oldest_first(
        self, system_a, tmp_path
    ):
        base = tmp_path / "dead.jsonl"
        # Three dump generations of salvageable lines, oldest in .2.
        for i, ts in enumerate(("00:00:10", "00:00:20", "00:00:30")):
            quarantine = Quarantine()
            quarantine.add(
                QuarantineRecord(
                    line=f"2010-01-10 {ts} r1 LINK-3-UPDOWN: retry {i}",
                    error="was rejected",
                )
            )
            quarantine.dump(base, max_bytes=1 << 20)
        stream = DigestStream(system_a.kb, system_a.config)
        survivors = Quarantine()
        events, n_ok, n_failed = requeue_records(base, stream, survivors)
        # Oldest-first replay means timestamps arrive in order, so every
        # line re-admits cleanly.
        assert (n_ok, n_failed) == (3, 0)
        assert len(survivors) == 0
        stream.close()

    def test_refailing_lines_land_back_in_quarantine(
        self, system_a, tmp_path
    ):
        base = tmp_path / "dead.jsonl"
        quarantine = Quarantine()
        quarantine.add(QuarantineRecord(line="### garbage ###", error="e"))
        quarantine.dump(base)
        stream = DigestStream(system_a.kb, system_a.config)
        survivors = Quarantine()
        events, n_ok, n_failed = requeue_records(base, stream, survivors)
        assert (n_ok, n_failed) == (0, 1)
        (record,) = survivors.records()
        assert record.line == "### garbage ###"
        stream.close()
