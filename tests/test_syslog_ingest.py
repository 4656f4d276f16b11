"""Resilient multi-source ingest: watermarks, breakers, dedup, admission.

The contracts under test (DESIGN.md §10):

* **Clean-feed no-op** — a single in-order source pushed through
  :class:`MultiSourceIngest` under the default config produces output
  byte-identical to the direct ``DigestStream`` path, serial and with
  ``--workers 4``-style sharding (the ``make check`` gate re-runs the
  serial half of this).
* **Bounded disorder is absorbed** — arrivals skewed by less than
  ``max_reorder_delay`` regroup to the clean digest; arrivals beyond it
  are dropped as *late*, counted, quarantined, never fatal.
* **Per-source circuit breakers** — consecutive parse failures open a
  source, probes reuse the RetryPolicy schedule, every transition is
  journaled, and an open source neither stalls the watermark nor
  reaches the stream.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import DigestConfig, IngestConfig
from repro.core.present import present_event
from repro.core.stream import DigestStream
from repro.syslog.collector import interleave_arrivals
from repro.syslog.ingest import (
    BREAKER_FAILURE_THRESHOLD,
    INGEST_HEALTH_KEYS,
    PROBE_DELAYS,
    MultiSourceIngest,
)
from repro.syslog.message import SyslogMessage
from repro.syslog.parse import format_line
from repro.syslog.resilient import Quarantine
from repro.syslog.stream import sort_messages
from repro.utils.timeutils import parse_ts

pytestmark = pytest.mark.ingest

T0 = parse_ts("2010-01-10 00:00:00")


def _msg(
    offset: float,
    router: str = "r1",
    code: str = "LINK-3-UPDOWN",
    detail: str = "Interface down",
) -> SyslogMessage:
    return SyslogMessage(
        timestamp=T0 + offset,
        router=router,
        error_code=code,
        detail=detail,
        vendor="unknown",
    )


def _rendered(events):
    return [present_event(e) for e in events]


@pytest.fixture(scope="module")
def ordered_a(live_a):
    return sort_messages(m.message for m in live_a.messages)


def _run_direct(stream, messages):
    events = []
    for message in messages:
        events.extend(stream.push(message))
    events.extend(stream.close())
    return events


def _run_ingest(ingest, arrivals):
    events = []
    for source, message in arrivals:
        events.extend(ingest.push(source, message))
    events.extend(ingest.close())
    return events


class TestCleanFeedNoOp:
    def test_single_source_is_byte_identical_serial(
        self, system_a, ordered_a
    ):
        direct = _run_direct(
            DigestStream(system_a.kb, system_a.config), ordered_a
        )
        stream = DigestStream(system_a.kb, system_a.config)
        ingest = MultiSourceIngest(stream)
        fed = _run_ingest(
            ingest, [("collector", m) for m in ordered_a]
        )
        assert _rendered(fed) == _rendered(direct)
        health = ingest.health()
        assert health["admitted"] == len(ordered_a)
        assert health["late_dropped"] == 0
        assert health["deduplicated"] == 0
        assert health["breaker_transitions"] == 0

    def test_single_source_is_byte_identical_workers4(
        self, system_a, ordered_a
    ):
        config = system_a.config.with_workers(4)
        direct = _run_direct(DigestStream(system_a.kb, config), ordered_a)

        stream = DigestStream(system_a.kb, config)
        ingest = MultiSourceIngest(stream)
        fed = _run_ingest(
            ingest, [("collector", m) for m in ordered_a]
        )
        assert _rendered(fed) == _rendered(direct)


class TestWatermarkReordering:
    def test_bounded_disorder_regroups_to_clean(self, system_a, ordered_a):
        """Arrival skew under max_reorder_delay is fully absorbed."""
        import random

        clean = _run_direct(
            DigestStream(system_a.kb, system_a.config), ordered_a
        )
        rng = random.Random(11)
        skewed = sorted(
            ordered_a,
            key=lambda m: (m.timestamp + rng.uniform(0.0, 30.0)),
        )
        assert skewed != ordered_a  # the shuffle actually reorders
        stream = DigestStream(system_a.kb, system_a.config)
        ingest = MultiSourceIngest(
            stream, IngestConfig(max_reorder_delay=60.0)
        )
        fed = _run_ingest(ingest, [("collector", m) for m in skewed])
        assert _rendered(fed) == _rendered(clean)
        assert ingest.health()["late_dropped"] == 0

    def test_late_arrivals_dropped_counted_quarantined(self):
        quarantine = Quarantine()
        stream = _tiny_stream()
        ingest = MultiSourceIngest(
            stream,
            IngestConfig(max_reorder_delay=10.0),
            quarantine=quarantine,
        )
        for offset in range(0, 200, 20):
            ingest.push("s0", _msg(float(offset)))
        # 180 - 10 = 170 is the watermark; everything <= 170 flushed.
        late = _msg(5.0, detail="straggler")
        ingest.push("s0", late)
        assert ingest.last_outcome == "late_dropped"
        health = ingest.health()
        assert health["late_dropped"] == 1
        kinds = [r.kind for r in quarantine.records()]
        assert kinds == ["late"]
        assert quarantine.records()[0].line == format_line(late)
        ingest.close()

    def test_multi_source_watermark_is_min_over_sources(self):
        stream = _tiny_stream()
        ingest = MultiSourceIngest(
            stream, IngestConfig(max_reorder_delay=10.0)
        )
        ingest.push("fast", _msg(100.0, router="rf"))
        ingest.push("slow", _msg(20.0, router="rs"))
        # The slow source holds the global watermark at 20 - 10 = 10.
        assert ingest.watermark() == pytest.approx(T0 + 10.0)
        assert ingest.n_buffered == 2
        ingest.push("slow", _msg(120.0, router="rs"))
        assert ingest.watermark() == pytest.approx(T0 + 90.0)
        ingest.close()

    def test_buffer_bound_forces_flushes(self):
        stream = _tiny_stream()
        ingest = MultiSourceIngest(
            stream,
            IngestConfig(
                max_reorder_delay=1e6, max_buffer_messages=5
            ),
        )
        for i in range(20):
            ingest.push("s0", _msg(float(i)))
            assert ingest.n_buffered <= 5
        health = ingest.health()
        assert health["forced_flushes"] == 15
        assert health["peak_buffered"] == 5
        ingest.close()


class TestCircuitBreaker:
    def _breaker_ingest(self):
        quarantine = Quarantine()
        ingest = MultiSourceIngest(
            _tiny_stream(),
            IngestConfig(max_reorder_delay=10.0),
            quarantine=quarantine,
        )
        return ingest, quarantine

    def test_breaker_constants(self):
        assert BREAKER_FAILURE_THRESHOLD == 5
        # RetryPolicy(6, 60 s): exponential from 60 s, six probes.
        assert PROBE_DELAYS == (60.0, 120.0, 240.0, 480.0, 960.0, 1920.0)

    def test_consecutive_parse_failures_open_then_probe_recloses(self):
        ingest, quarantine = self._breaker_ingest()
        ingest.push("good", _msg(0.0, router="rg"))
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            ingest.push_line("bad", "\x15garbage")
            assert ingest.last_outcome == "parse_failed"
        (bad,) = [s for s in ingest.sources() if s.name == "bad"]
        assert bad.state == "closed"
        ingest.push_line("bad", "\x15garbage")
        assert bad.state == "open"
        assert bad.parse_failures == BREAKER_FAILURE_THRESHOLD
        assert bad.next_probe_at == T0 + PROBE_DELAYS[0]

        # Before the probe window the source is rejected outright.
        ingest.push("bad", _msg(1.0, router="rb"))
        assert ingest.last_outcome == "breaker_rejected"
        assert bad.breaker_rejected == 1
        assert "breaker" in [r.kind for r in quarantine.records()]

        # Advance the clock past the 60s probe delay via the healthy
        # source; the next arrival is the probe and it succeeds.
        ingest.push("good", _msg(120.0, router="rg"))
        ingest.push("bad", _msg(121.0, router="rb"))
        assert ingest.last_outcome == "admitted"
        assert bad.state == "closed"
        transitions = [
            (e["from"], e["to"]) for e in ingest.journal()
        ]
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        ingest.close()

    def test_failed_probe_reopens_with_longer_delay(self):
        ingest, _ = self._breaker_ingest()
        ingest.push("good", _msg(0.0, router="rg"))
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            ingest.push_line("bad", "\x15garbage")
        (bad,) = [s for s in ingest.sources() if s.name == "bad"]
        first_probe_at = bad.next_probe_at
        ingest.push("good", _msg(120.0, router="rg"))
        ingest.push_line("bad", "\x15still garbage")  # the probe fails
        assert bad.state == "open"
        # RetryPolicy backoff: the second probe waits twice as long.
        first_delay = first_probe_at - T0
        assert first_delay == PROBE_DELAYS[0]
        assert bad.next_probe_at - (T0 + 120.0) == pytest.approx(
            2 * first_delay
        )
        ingest.close()

    def test_probe_schedule_repeats_its_last_delay(self):
        ingest, _ = self._breaker_ingest()
        ingest.push("good", _msg(0.0, router="rg"))
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            ingest.push_line("bad", "\x15garbage")
        (bad,) = [s for s in ingest.sources() if s.name == "bad"]
        waits = []
        for _ in range(len(PROBE_DELAYS) + 2):
            # Reach the probe window via the healthy source, then fail
            # the probe: the breaker reopens with the next delay.
            clock = bad.next_probe_at
            ingest.push("good", _msg(clock - T0, router="rg"))
            ingest.push_line("bad", "\x15still garbage")
            assert bad.state == "open"
            waits.append(bad.next_probe_at - clock)
        assert waits == [*PROBE_DELAYS[1:], *[PROBE_DELAYS[-1]] * 3]
        ingest.close()

    def test_open_source_excluded_from_watermark(self):
        ingest, _ = self._breaker_ingest()
        ingest.push("bad", _msg(0.0, router="rb"))
        ingest.push("good", _msg(1.0, router="rg"))
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            ingest.push_line("bad", "\x15garbage")
        ingest.push("good", _msg(100.0, router="rg"))
        # Were "bad" still eligible, the watermark would sit back at
        # its last timestamp minus the delay.
        assert ingest.watermark() == pytest.approx(T0 + 90.0)
        ingest.close()


class TestDedupAndSequence:
    def test_dedup_window_suppresses_identical_content(self):
        ingest = MultiSourceIngest(
            _tiny_stream(),
            IngestConfig(max_reorder_delay=10.0, dedup_window=300.0),
        )
        ingest.push("s0", _msg(0.0))
        ingest.push("s1", _msg(0.0))  # same content, different source
        assert ingest.last_outcome == "deduplicated"
        ingest.push("s0", _msg(0.0, detail="different detail"))
        assert ingest.last_outcome == "admitted"
        assert ingest.health()["deduplicated"] == 1
        ingest.close()

    def test_dedup_off_by_default(self):
        ingest = MultiSourceIngest(_tiny_stream())
        ingest.push("s0", _msg(0.0))
        ingest.push("s1", _msg(0.0))
        assert ingest.last_outcome == "admitted"
        assert ingest.health()["deduplicated"] == 0
        ingest.close()


class TestAdmissionControl:
    def test_soft_limit_sheds_unhealthy_sources_only(self):
        ingest = MultiSourceIngest(
            _tiny_stream(),
            IngestConfig(
                max_reorder_delay=1e6,
                admit_soft_limit=2,
                admit_hard_limit=100,
            ),
        )
        ingest.push("shaky", _msg(0.0, router="rs"))
        ingest.push("steady", _msg(1.0, router="rt"))
        ingest.push_line("shaky", "\x15garbage")  # now has failures pending
        ingest.push("steady", _msg(2.0, router="rt"))
        assert ingest.last_outcome == "admitted"  # healthy passes
        ingest.push("shaky", _msg(3.0, router="rs"))
        assert ingest.last_outcome == "admission_shed"
        (shaky,) = [s for s in ingest.sources() if s.name == "shaky"]
        assert shaky.admission_shed == 1
        ingest.close()

    def test_hard_limit_sheds_everything(self):
        ingest = MultiSourceIngest(
            _tiny_stream(),
            IngestConfig(
                max_reorder_delay=1e6,
                admit_soft_limit=1,
                admit_hard_limit=2,
            ),
        )
        ingest.push("s0", _msg(0.0))
        ingest.push("s0", _msg(1.0, detail="b"))
        ingest.push("s0", _msg(2.0, detail="c"))
        assert ingest.last_outcome == "admission_shed"
        ingest.close()

    def test_for_stream_places_limits_under_the_stream_bound(self):
        config = DigestConfig(max_open_messages=100)
        derived = IngestConfig().for_stream(config)
        assert derived.admit_soft_limit == 80
        assert derived.admit_hard_limit == 95
        # Unbounded stream: admission stays off.
        assert IngestConfig().for_stream(DigestConfig()) == IngestConfig()


class TestHealthAndConfig:
    def test_health_keys_are_pinned(self):
        ingest = MultiSourceIngest(_tiny_stream())
        ingest.push("s0", _msg(0.0))
        assert set(ingest.health()) == set(INGEST_HEALTH_KEYS)
        ingest.close()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_reorder_delay=-1.0),
            dict(max_buffer_messages=-1),
            dict(dedup_window=-0.5),
            dict(breaker_failure_threshold=5),  # retired
            dict(probe_base_delay=60.0),  # retired
            dict(admit_hard_limit=-1),
            dict(stall_timeout=0.0),  # retired
            dict(admit_soft_limit=-1),
            dict(admit_soft_limit=10, admit_hard_limit=5),
        ],
    )
    def test_config_validation(self, bad):
        # A retired knob (the breaker schedule is a constant, stall
        # detection is gone) is no field at all: a TypeError.
        retired = {"breaker_failure_threshold", "probe_base_delay",
                   "stall_timeout"}
        with pytest.raises(TypeError if retired & set(bad) else ValueError):
            IngestConfig(**bad)

    def test_snapshot_roundtrip_mid_buffer(self, system_a, ordered_a):
        """Pickled ingest+stream state resumes byte-identically."""
        arrivals = [("collector", m) for m in ordered_a]
        full = _run_ingest(
            MultiSourceIngest(DigestStream(system_a.kb, system_a.config)),
            arrivals,
        )

        half = len(arrivals) // 2
        first_stream = DigestStream(system_a.kb, system_a.config)
        first = MultiSourceIngest(first_stream)
        events = []
        for source, message in arrivals[:half]:
            events.extend(first.push(source, message))
        assert first.n_buffered > 0  # the cut lands mid-buffer
        state = pickle.loads(pickle.dumps(first_stream.snapshot()))

        twin_stream = DigestStream(system_a.kb, system_a.config)
        twin_stream.restore(state)
        twin = MultiSourceIngest.from_snapshot(
            twin_stream, twin_stream.restored_ingest_state()
        )
        skip = twin.pushed_counts()["collector"]
        for source, message in arrivals[skip:]:
            events.extend(twin.push(source, message))
        events.extend(twin.close())
        assert _rendered(events) == _rendered(full)


class TestInterleave:
    def test_preserves_per_feed_order_and_is_deterministic(self):
        feeds = {
            "a": [_msg(0.0, router="ra"), _msg(3.0, router="ra")],
            "b": [_msg(1.0, router="rb"), _msg(2.0, router="rb")],
        }
        out = interleave_arrivals(feeds)
        assert [s for s, _ in out] == ["a", "b", "b", "a"]
        assert out == interleave_arrivals(feeds)

    def test_ties_break_by_registration_order(self):
        feeds = {
            "second": [_msg(0.0, router="r2")],
            "first": [_msg(0.0, router="r1")],
        }
        out = interleave_arrivals(feeds)
        # dict order is registration order: "second" was added first.
        assert [s for s, _ in out] == ["second", "first"]


def _tiny_kb():
    from repro.core.knowledge import KnowledgeBase
    from repro.mining.temporal import TemporalParams
    from tests.test_core_grouping import (
        _toy_dictionary,
        _toy_rules,
        _toy_templates,
    )

    return KnowledgeBase(
        templates=_toy_templates(),
        dictionary=_toy_dictionary(),
        temporal=TemporalParams(alpha=0.05, beta=5.0),
        rules=_toy_rules(),
        frequencies={},
        history_days=30.0,
    )


def _tiny_stream() -> DigestStream:
    """A stream over a toy knowledge base: fine for ingest-side tests
    that never assert on grouping output."""
    return DigestStream(_tiny_kb())
