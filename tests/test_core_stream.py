"""Streaming digest tests: equivalence with batch mode, flush behavior,
clock-skew tolerance and long-running state bounds."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.stream import DigestStream
from repro.obs import MetricsRegistry
from repro.syslog.message import SyslogMessage
from repro.utils.timeutils import HOUR


def replace_ts(message: SyslogMessage, timestamp: float) -> SyslogMessage:
    return replace(message, timestamp=timestamp)


@pytest.fixture(scope="module")
def stream_events(system_a, live_a):
    """Push one live day through the stream and close it."""
    stream = DigestStream(system_a.kb, system_a.config)
    collected = []
    for lm in live_a.messages:
        collected.extend(stream.push(lm.message))
    collected.extend(stream.close())
    return collected


class TestEquivalenceWithBatch:
    def test_same_grouping_as_batch(self, system_a, live_a, stream_events):
        batch = system_a.digest(m.message for m in live_a.messages)
        batch_groups = {frozenset(e.indices) for e in batch.events}
        stream_groups = {frozenset(e.indices) for e in stream_events}
        assert stream_groups == batch_groups

    def test_same_scores_as_batch(self, system_a, live_a, stream_events):
        batch = system_a.digest(m.message for m in live_a.messages)
        batch_scores = {
            frozenset(e.indices): e.score for e in batch.events
        }
        for event in stream_events:
            assert event.score == pytest.approx(
                batch_scores[frozenset(event.indices)]
            )

    def test_labels_filled(self, stream_events):
        assert all(e.label for e in stream_events)


class TestStreamMechanics:
    def test_out_of_order_beyond_tolerance_rejected(self, system_a, live_a):
        stream = DigestStream(system_a.kb, system_a.config)
        first = live_a.messages[0].message
        stream.push(first)
        late = replace_ts(
            first, first.timestamp - system_a.config.skew_tolerance - 1.0
        )
        with pytest.raises(ValueError):
            stream.push(late)

    def test_events_finalize_before_close_when_idle(self, system_a, live_a):
        """Events from early traffic surface once enough idle time passes."""
        stream = DigestStream(system_a.kb, system_a.config)
        early = 0
        horizon = live_a.messages[0].timestamp + stream.flush_after + 2 * HOUR
        for lm in live_a.messages:
            events = stream.push(lm.message)
            if lm.timestamp > horizon:
                early += len(events)
        # Two days of traffic with a ~3h flush horizon must finalize some
        # events mid-stream, not only at close.
        assert early > 0

    def test_finalized_events_are_never_reopened(self, system_a, live_a):
        stream = DigestStream(system_a.kb, system_a.config)
        seen: set[frozenset] = set()
        for lm in live_a.messages:
            for event in stream.push(lm.message):
                key = frozenset(event.indices)
                assert key not in seen
                seen.add(key)
        for event in stream.close():
            key = frozenset(event.indices)
            assert key not in seen
            seen.add(key)

    def test_flush_after_covers_all_horizons(self, system_a):
        stream = DigestStream(system_a.kb, system_a.config)
        cfg = system_a.config
        assert stream.flush_after >= cfg.temporal.s_max
        assert stream.flush_after >= cfg.window


class TestClockSkewTolerance:
    """Collector clock skew within tolerance is clamped, not fatal."""

    def test_small_skew_accepted(self, system_a, live_a):
        stream = DigestStream(system_a.kb, system_a.config)
        first = live_a.messages[0].message
        stream.push(first)
        tolerance = system_a.config.skew_tolerance
        assert tolerance > 0
        late = replace_ts(first, first.timestamp - tolerance / 2)
        stream.push(late)  # must not raise
        events = stream.close()
        assert sum(e.n_messages for e in events) == 2

    def test_skewed_stream_digests_everything(self, system_a, live_a):
        """A jittery feed (each message up to tolerance late) digests
        without loss."""
        rng_shift = [0.0, -1.5, -0.7, 0.0, -1.9]  # within the 2 s default
        messages = []
        clock = None
        for i, lm in enumerate(live_a.messages[:600]):
            ts = lm.message.timestamp + rng_shift[i % len(rng_shift)]
            if clock is not None:
                ts = max(ts, clock - system_a.config.skew_tolerance)
            clock = max(ts, clock) if clock is not None else ts
            messages.append(replace_ts(lm.message, ts))
        stream = DigestStream(system_a.kb, system_a.config)
        events = []
        for message in messages:
            events.extend(stream.push(message))
        events.extend(stream.close())
        assert sum(e.n_messages for e in events) == len(messages)

    def test_zero_tolerance_restores_strictness(self, system_a, live_a):
        from dataclasses import replace as cfg_replace

        config = cfg_replace(system_a.config, skew_tolerance=0.0)
        stream = DigestStream(system_a.kb, config)
        first = live_a.messages[0].message
        stream.push(first)
        with pytest.raises(ValueError):
            stream.push(replace_ts(first, first.timestamp - 0.5))


class TestStateBounds:
    """Long-running streams must not leak grouping state."""

    def test_windows_pruned_after_close(self, system_a, live_a):
        stream = DigestStream(system_a.kb, system_a.config)
        for lm in live_a.messages:
            stream.push(lm.message)
        stream.close()
        assert stream.n_open_messages == 0
        assert stream.n_window_entries == 0

    def test_idle_splitters_evicted(self, system_a, live_a):
        """Keys quiet past the flush horizon drop their splitter state."""
        stream = DigestStream(system_a.kb, system_a.config)
        for lm in live_a.messages[:2000]:
            stream.push(lm.message)
        peak = stream.n_splitters
        assert peak > 0
        # A lone message far in the future forces a sweep whose horizon
        # exceeds every earlier key's last activity.
        last = live_a.messages[1999].message
        far = replace_ts(last, last.timestamp + 10 * stream.flush_after)
        stream.push(far)
        assert stream.n_splitters <= 1

    def test_window_entries_bounded_mid_stream(self, system_a, live_a):
        """Finalize sweeps keep window entries near the open-message set."""
        stream = DigestStream(system_a.kb, system_a.config)
        for lm in live_a.messages:
            stream.push(lm.message)
        assert stream.n_window_entries <= 3 * max(stream.n_open_messages, 1)


class TestDiagnostics:
    def test_health_and_metrics_read_shard_counts_once(self, system_a):
        """``counts`` is a pipe round trip per shard on the process
        lane: one broadcast per health read and per metrics flush."""
        stream = DigestStream(system_a.kb, system_a.config.with_workers(2))
        broadcast = stream._exec.broadcast
        calls = []

        def counting(method, *args):
            calls.append(method)
            return broadcast(method, *args)

        stream._exec.broadcast = counting
        health = stream.health()
        assert calls == ["counts"]
        assert health["splitters"] == stream.n_splitters
        assert health["window_entries"] == stream.n_window_entries
        calls.clear()
        stream.record_metrics(MetricsRegistry())
        assert calls == ["counts"]


class TestPushMany:
    """Batched sharded pushes group exactly like message-by-message."""

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_push_many_equals_batch(self, system_a, live_a, n_workers):
        config = system_a.config.with_workers(n_workers)
        stream = DigestStream(system_a.kb, config)
        messages = [m.message for m in live_a.messages]
        events = []
        for i in range(0, len(messages), 700):
            events.extend(stream.push_many(messages[i : i + 700]))
        events.extend(stream.close())
        batch = system_a.digest(messages)
        assert {frozenset(e.indices) for e in events} == {
            frozenset(e.indices) for e in batch.events
        }

    def test_push_many_empty(self, system_a):
        stream = DigestStream(system_a.kb, system_a.config.with_workers(2))
        assert stream.push_many([]) == []

    def test_push_and_push_many_interoperate(self, system_a, live_a):
        config = system_a.config.with_workers(2)
        stream = DigestStream(system_a.kb, config)
        messages = [m.message for m in live_a.messages[:900]]
        events = list(stream.push_many(messages[:300]))
        for message in messages[300:600]:
            events.extend(stream.push(message))
        events.extend(stream.push_many(messages[600:]))
        events.extend(stream.close())
        batch = system_a.digest(messages)
        assert {frozenset(e.indices) for e in events} == {
            frozenset(e.indices) for e in batch.events
        }
