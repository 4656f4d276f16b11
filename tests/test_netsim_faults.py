"""Fault-injection profiles and the recovery paths they exercise."""

from __future__ import annotations

import pickle

import pytest

from repro.core.grouping import GroupingEngine
from repro.core.parallel import ParallelGroupingEngine, timed_shard_edge_task
from repro.core.stream import DigestStream
from repro.netsim.faults import (
    Compose,
    CorruptLines,
    DuplicateBurst,
    FaultProfile,
    FeedStall,
    LateLines,
    ReorderLines,
    ShardFault,
    SourceFlap,
    TruncateLines,
    WorkerFaults,
)
from repro.obs import (
    FAULTS_INJECTED,
    SHARD_FALLBACKS,
    SHARD_RETRIES,
    MetricsRegistry,
    scoped_registry,
)
from repro.syslog.parse import SyslogParseError, parse_line
from repro.syslog.stream import sort_messages
from repro.utils import inject
from repro.utils.inject import InjectedWorkerFault
from repro.utils.timeutils import parse_ts

LINES = [
    f"2010-01-10 00:{m:02d}:00 r{m % 3} LINK-3-UPDOWN: Interface {m} down"
    for m in range(30)
]
PAIRS = [(line, i) for i, line in enumerate(LINES)]


class TestProfiles:
    def test_clean_profile_is_strict_noop(self):
        profile = FaultProfile()
        out = profile.apply(PAIRS)
        assert out == PAIRS
        assert out is not PAIRS  # a copy, never an alias
        assert profile.points() == {}

    @pytest.mark.parametrize(
        "profile",
        [
            CorruptLines(rate=0.3, seed=3),
            TruncateLines(rate=0.3, seed=4),
            FeedStall(start_fraction=0.3, duration=300.0),
            DuplicateBurst(rate=0.2, copies=3, seed=5),
            ReorderLines(rate=0.5, max_skew=90.0, seed=8),
            LateLines(rate=0.2, delay=3600.0, seed=9),
            SourceFlap(period=600.0, garbage=3, silence=120.0),
            Compose(
                profiles=(
                    CorruptLines(rate=0.2, seed=6),
                    DuplicateBurst(rate=0.1, seed=7),
                )
            ),
        ],
    )
    def test_profiles_are_deterministic(self, profile):
        assert profile.apply(PAIRS) == profile.apply(PAIRS)

    def test_corrupt_lines_never_parse_but_keep_labels(self):
        out = CorruptLines(rate=1.0, seed=0).apply(PAIRS)
        assert [label for _line, label in out] == list(range(len(PAIRS)))
        for line, _label in out:
            with pytest.raises(SyslogParseError):
                parse_line(line)

    def test_truncate_keeps_head(self):
        out = TruncateLines(rate=1.0, keep_fraction=0.5, seed=0).apply(PAIRS)
        for (line, _), (orig, _) in zip(out, PAIRS):
            assert orig.startswith(line)
            assert 1 <= len(line) < len(orig)

    def test_feed_stall_holds_then_replays(self):
        profile = FeedStall(start_fraction=0.5, duration=300.0)
        out = profile.apply(PAIRS)
        # Nothing lost, nothing invented — just reordered.
        assert sorted(out) == sorted(PAIRS)
        assert out != PAIRS
        times = [parse_ts(line[:19]) for line, _ in out]
        assert times != sorted(times)  # the replayed burst arrives late

    def test_duplicate_burst_multiplies(self):
        profile = DuplicateBurst(rate=1.0, copies=3, seed=0)
        out = profile.apply(PAIRS)
        assert len(out) == 3 * len(PAIRS)
        assert out[0] == out[1] == out[2] == PAIRS[0]

    def test_compose_applies_in_order(self):
        composed = Compose(
            profiles=(
                DuplicateBurst(rate=1.0, copies=2, seed=0),
                TruncateLines(rate=0.0),
                WorkerFaults(fail_shards=(2,)),
            )
        )
        assert len(composed.apply(PAIRS)) == 2 * len(PAIRS)
        points = composed.points()
        assert isinstance(points[inject.SHARD_TASK], ShardFault)
        assert points[inject.SHARD_TASK].fail_shards == (2,)
        assert points[inject.SHARD_ATTEMPT] is points[inject.SHARD_TASK]

    def test_injection_counter(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            CorruptLines(rate=1.0, seed=0).apply(PAIRS)
        assert registry.counter_value(
            FAULTS_INJECTED, kind="corrupt"
        ) == float(len(PAIRS))


class TestIngestProfiles:
    """The disorder profiles feeding DESIGN.md §10's ingest layer."""

    def test_reorder_is_bounded_and_lossless(self):
        out = ReorderLines(rate=1.0, max_skew=90.0, seed=0).apply(PAIRS)
        assert sorted(out) == sorted(PAIRS)  # nothing lost or invented
        assert out != PAIRS  # disorder actually happened
        assert [label for _, label in out] != list(range(len(PAIRS)))
        # Bounded: no line falls more than max_skew behind the running
        # maximum timestamp of everything delivered before it.
        times = [parse_ts(line[:19]) for line, _ in out]
        high = times[0]
        for ts in times:
            assert ts >= high - 90.0
            high = max(high, ts)

    def test_late_lines_fall_behind_any_reorder_window(self):
        out = LateLines(rate=0.2, delay=3600.0, seed=4).apply(PAIRS)
        assert sorted(out) == sorted(PAIRS)
        times = [parse_ts(line[:19]) for line, _ in out]
        # The 30-line trace spans ~29 minutes; a 3600 s delay pushes the
        # stragglers past everything, so somewhere the timestamp jumps
        # backward by far more than any bounded skew could.
        assert any(
            times[i] < times[i - 1] - 1000.0 for i in range(1, len(times))
        )

    def test_source_flap_injects_garbage_then_goes_silent(self):
        profile = SourceFlap(period=600.0, garbage=3, silence=120.0)
        out = profile.apply(PAIRS)
        garbage = [(line, label) for line, label in out if label is None]
        # Flaps at 00:10 and 00:20 → two bursts of 3 garbage lines, and
        # the two real lines inside each 120 s silence window are gone.
        assert len(garbage) == 6
        for line, _ in garbage:
            with pytest.raises(SyslogParseError):
                parse_line(line)
        kept = [label for _, label in out if label is not None]
        assert kept == [
            i for i in range(30) if i not in (10, 11, 20, 21)
        ]

    def test_source_flap_without_parseable_lines_is_noop(self):
        junk = [("\x15nonsense", 0), ("\x15more", 1)]
        assert SourceFlap().apply(junk) == junk


class TestFlakyShardTask:
    """The ``shard.task`` hook rides with each batch task and fires
    before the production work."""

    def test_picklable(self):
        fault = ShardFault((0, 2), fail_attempts=2)
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.fail_shards == (0, 2)
        assert clone.fail_attempts == 2

    def test_raises_then_recovers(self):
        fault = ShardFault((1,), fail_attempts=1)
        payload = ([], None, 0.0, {}, 0.0, None, False, False)
        with pytest.raises(InjectedWorkerFault):
            timed_shard_edge_task(payload, 1, 0, fault)
        edges, active, _seconds = timed_shard_edge_task(payload, 1, 1, fault)
        assert edges == [] and active == set()
        # Unaffected shards never raise.
        timed_shard_edge_task(payload, 0, 0, fault)


@pytest.fixture(scope="module")
def plus_a(system_a, live_a):
    from repro.core.syslogplus import Augmenter

    augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
    ordered = sort_messages(m.message for m in live_a.messages)
    return augmenter.augment_all(ordered)


def _group_sig(outcome):
    return [[p.index for p in group] for group in outcome.groups]


@pytest.mark.faults
class TestWorkerRecovery:
    def test_batch_retry_then_identical_output(self, system_a, plus_a):
        config = system_a.config.with_workers(2)
        baseline = GroupingEngine(system_a.kb, config).group(plus_a)
        registry = MetricsRegistry()
        with scoped_registry(registry):
            with inject.arm({inject.SHARD_TASK: ShardFault((0,), 1)}):
                engine = ParallelGroupingEngine(system_a.kb, config)
            outcome = engine.group(plus_a)
        assert _group_sig(outcome) == _group_sig(baseline)
        assert registry.counter_value(SHARD_RETRIES, engine="batch") >= 1.0

    def test_batch_fallback_then_identical_output(self, system_a, plus_a):
        config = system_a.config.with_workers(2)
        baseline = GroupingEngine(system_a.kb, config).group(plus_a)
        registry = MetricsRegistry()
        with scoped_registry(registry):
            fault = ShardFault((0, 1), fail_attempts=99)
            with inject.arm({inject.SHARD_TASK: fault}):
                engine = ParallelGroupingEngine(system_a.kb, config)
            outcome = engine.group(plus_a)
        assert _group_sig(outcome) == _group_sig(baseline)
        assert (
            registry.counter_value(SHARD_FALLBACKS, engine="batch") >= 1.0
        )


@pytest.mark.faults
class TestStreamWorkerRecovery:
    def _run_chunks(self, system_a, messages, points):
        with inject.arm(points):
            stream = DigestStream(system_a.kb, system_a.config.with_workers(4))
        events = []
        for i in range(0, len(messages), 200):
            events.extend(stream.push_many(messages[i : i + 200]))
        events.extend(stream.close())
        return events

    def _sig(self, events):
        return [(e.indices, e.score, e.label) for e in events]

    def test_push_many_retry_is_deterministic(self, system_a, live_a):
        ordered = sort_messages(m.message for m in live_a.messages)
        baseline = self._run_chunks(system_a, ordered, {})
        registry = MetricsRegistry()
        with scoped_registry(registry):
            retried = self._run_chunks(
                system_a, ordered, WorkerFaults(fail_shards=(0,)).points()
            )
        assert self._sig(retried) == self._sig(baseline)
        assert registry.counter_value(SHARD_RETRIES, engine="stream") >= 1.0

    def test_push_many_serial_fallback_is_deterministic(
        self, system_a, live_a
    ):
        ordered = sort_messages(m.message for m in live_a.messages)
        baseline = self._run_chunks(system_a, ordered, {})
        registry = MetricsRegistry()
        with scoped_registry(registry):
            profile = WorkerFaults(fail_shards=(0, 1, 2, 3), fail_attempts=99)
            fallen = self._run_chunks(system_a, ordered, profile.points())
        assert self._sig(fallen) == self._sig(baseline)
        assert (
            registry.counter_value(SHARD_FALLBACKS, engine="stream") >= 1.0
        )


@pytest.mark.faults
class TestLoadShedding:
    def test_bound_holds_and_nothing_is_lost(self, system_a, live_a):
        limit = 60
        config = system_a.config.with_shedding(limit)
        stream = DigestStream(system_a.kb, config)
        ordered = sort_messages(m.message for m in live_a.messages)
        events = []
        for message in ordered:
            events.extend(stream.push(message))
            assert stream.n_open_messages <= limit
        events.extend(stream.close())
        health = stream.health()
        assert health["shed_events"] > 0
        assert health["shed_messages"] > 0
        # Every admitted message still reaches exactly one event.
        assert sum(e.n_messages for e in events) == len(ordered)

    def test_shedding_is_deterministic(self, system_a, live_a):
        ordered = sort_messages(m.message for m in live_a.messages)

        def run():
            config = system_a.config.with_shedding(60)
            stream = DigestStream(system_a.kb, config)
            events = []
            for message in ordered:
                events.extend(stream.push(message))
            events.extend(stream.close())
            return [(e.indices, e.score) for e in events]

        assert run() == run()


def test_fault_smoke():
    """Tier-1-safe smoke: one tiny profile end to end, no fixtures."""
    profile = Compose(
        profiles=(
            CorruptLines(rate=0.5, seed=1),
            DuplicateBurst(rate=0.5, copies=2, seed=2),
        )
    )
    out = profile.apply(PAIRS)
    parsed = quarantined = 0
    for line, _label in out:
        try:
            parse_line(line)
            parsed += 1
        except SyslogParseError:
            quarantined += 1
    assert parsed > 0 and quarantined > 0
    assert parsed + quarantined == len(out)
