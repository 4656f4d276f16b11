"""Rhythm classification tests."""

from __future__ import annotations

import random

import pytest

from repro.mining.periodicity import (
    RhythmKind,
    analyze_rhythm,
    rhythm_report,
)


class TestAnalyzeRhythm:
    def test_singleton(self):
        profile = analyze_rhythm([1.0, 2.0])
        assert profile.kind is RhythmKind.SINGLETON

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            analyze_rhythm([5.0, 1.0, 2.0, 3.0, 4.0, 6.0])

    def test_strict_timer_is_periodic(self):
        profile = analyze_rhythm([i * 60.0 for i in range(50)])
        assert profile.kind is RhythmKind.PERIODIC
        assert profile.period == pytest.approx(60.0)
        assert profile.cv == pytest.approx(0.0)

    def test_jittered_timer_is_periodic(self):
        rng = random.Random(1)
        ts, out = 0.0, []
        for _ in range(100):
            out.append(ts)
            ts += 60.0 * rng.uniform(0.9, 1.1)
        profile = analyze_rhythm(out)
        assert profile.kind is RhythmKind.PERIODIC
        assert 50.0 < profile.period < 70.0

    def test_bursts_are_bursty(self):
        out = []
        for burst in range(6):
            base = burst * 10000.0
            out.extend(base + i * 2.0 for i in range(30))
        profile = analyze_rhythm(out)
        assert profile.kind is RhythmKind.BURSTY
        assert profile.burst_fraction is None or profile.burst_fraction >= 0

    def test_random_arrivals_are_not_periodic(self):
        rng = random.Random(2)
        ts, out = 0.0, []
        for _ in range(200):
            out.append(ts)
            ts += rng.expovariate(1 / 60.0)
        profile = analyze_rhythm(out)
        assert profile.kind is not RhythmKind.PERIODIC

    def test_simultaneous_arrivals(self):
        profile = analyze_rhythm([5.0] * 10)
        assert profile.kind is RhythmKind.BURSTY


class TestRhythmReport:
    def test_report_orders_by_size(self):
        series = {
            ("big",): [float(i) for i in range(100)],
            ("small",): [float(i) for i in range(10)],
        }
        report = rhythm_report(series)
        assert report[0][0] == ("big",)
        assert all(isinstance(p.kind, RhythmKind) for _, p in report)

    def test_ties_do_not_depend_on_insertion_order(self):
        """Equal-size series rank by key: the same series built in two
        insertion orders give the same report, cut included."""
        items = [
            ((router, "LINK-3-UPDOWN"), [float(i) for i in range(n)])
            for router, n in (("r3", 5), ("r1", 5), ("r2", 8), ("r0", 5))
        ]
        forward = rhythm_report(dict(items), top=3)
        backward = rhythm_report(dict(reversed(items)), top=3)
        assert forward == backward
        assert [key[0] for key, _ in forward] == ["r2", "r0", "r1"]

    def test_scan_pattern_reports_periodic(self):
        """The Figure 5 pattern shows up as PERIODIC in the report."""
        import random as _random

        from repro.netsim.events import tcp_scan
        from repro.netsim.topology import build_network

        net = build_network("V1", 8, seed=3)
        incident = tcp_scan(net, _random.Random(4), "e", 0.0)
        ts = [
            m.timestamp
            for m in incident.messages
            if m.template_id == "v1.tcp_badauth"
        ]
        profile = analyze_rhythm(ts)
        assert profile.kind is RhythmKind.PERIODIC
