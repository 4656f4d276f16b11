"""Baseline implementation tests."""

from __future__ import annotations

from repro.baselines.drain import DrainMiner
from repro.baselines.severity_filter import severity_filter
from repro.syslog.message import SyslogMessage


def _msg(ts, code="LINK-3-UPDOWN", router="r1", detail="x"):
    return SyslogMessage(
        timestamp=ts, router=router, error_code=code, detail=detail
    )


class TestSeverityFilter:
    def test_keeps_severe_v1(self):
        msgs = [
            _msg(0.0, code="SYS-1-CPURISINGTHRESHOLD"),
            _msg(1.0, code="LINK-3-UPDOWN"),
            _msg(2.0, code="NTP-6-PEERSYNC"),
        ]
        kept = severity_filter(msgs, max_severity=3)
        assert [m.error_code for m in kept] == [
            "SYS-1-CPURISINGTHRESHOLD",
            "LINK-3-UPDOWN",
        ]

    def test_drops_unparseable(self):
        kept = severity_filter([_msg(0.0, code="MYSTERY")], max_severity=7)
        assert kept == []

    def test_paper_critique_cpu_beats_link(self):
        """The vendor ranks a CPU alarm above a link-down — the inversion
        Section 2 warns about survives any severity cutoff."""
        cpu = _msg(0.0, code="SYS-1-CPURISINGTHRESHOLD")
        link = _msg(1.0, code="LINK-3-UPDOWN")
        assert severity_filter([cpu, link], max_severity=2) == [cpu]


class TestDrain:
    def test_identical_messages_one_cluster(self):
        miner = DrainMiner()
        miner.fit([_msg(0.0, detail="state changed to down")] * 5)
        assert len(miner.clusters()) == 1

    def test_variable_token_becomes_wildcard(self):
        miner = DrainMiner(depth=2, sim_threshold=0.4)
        miner.fit(
            [
                _msg(0.0, detail=f"Interface eth{i} changed state to down")
                for i in range(10)
            ]
        )
        clusters = miner.clusters()
        assert len(clusters) == 1
        assert "<*>" in clusters[0]

    def test_token_count_partitions(self):
        miner = DrainMiner()
        miner.fit([_msg(0.0, detail="a b c"), _msg(1.0, detail="a b c d")])
        assert len(miner.clusters()) == 2

    def test_constant_words_of(self):
        miner = DrainMiner()
        pattern = "CODE Interface <*> changed"
        assert miner.constant_words_of(pattern) == ("Interface", "changed")

    def test_add_returns_pattern(self):
        miner = DrainMiner()
        pattern = miner.add(_msg(0.0, detail="hello world"))
        assert "hello world" in pattern
