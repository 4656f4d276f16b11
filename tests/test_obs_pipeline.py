"""Observability wiring tests: the pipeline reports what it does.

Covers stage timers through ``SyslogDigest.digest``/``learn``, shard
gauges from the parallel engine, ``DigestStream`` health, collector
counters, and the metrics-overhead smoke (no-op vs enabled registry on
a small synthetic trace).
"""

from __future__ import annotations

import time

import pytest

from repro.core.pipeline import SyslogDigest
from repro.core.stream import DigestStream
from repro.obs import (
    COLLECTOR_DROPPED,
    COLLECTOR_DUPLICATED,
    COLLECTOR_JITTERED,
    DIGEST_EVENTS,
    DIGEST_MESSAGES,
    DIGEST_RUNS,
    MetricsRegistry,
    NullRegistry,
    SHARD_IMBALANCE,
    SHARD_MESSAGES,
    SHARD_SECONDS,
    SHARD_TASK_SECONDS,
    STAGE_SECONDS,
    STREAM_FINALIZED,
    STREAM_OPEN_MESSAGES,
    STREAM_PRUNED,
    STREAM_SKEW_CLAMPED,
    STREAM_SPLITTERS,
    STREAM_WATERMARK_LAG,
    STREAM_WINDOW_ENTRIES,
    scoped_registry,
)
from repro.syslog.collector import CollectorProfile, degrade_stream
from repro.syslog.message import SyslogMessage


@pytest.fixture
def registry():
    with scoped_registry(MetricsRegistry()) as reg:
        yield reg


def _stages(reg) -> set[str]:
    return {
        dict(labels).get("stage")
        for (name, labels) in reg.histograms()
        if name == STAGE_SECONDS
    }


class TestDigestStages:
    def test_batch_digest_times_every_stage(
        self, registry, system_a, live_a
    ):
        system_a.digest(m.message for m in live_a.messages[:600])
        assert {
            "sort",
            "signature_match",
            "location_parse",
            "temporal_pass",
            "rule_pass",
            "cross_router_pass",
            "collect",
            "prioritize",
            "present",
        } <= _stages(registry)

    def test_digest_totals(self, registry, system_a, live_a):
        result = system_a.digest(m.message for m in live_a.messages[:600])
        assert registry.counter_value(DIGEST_RUNS) == 1
        assert registry.counter_value(DIGEST_MESSAGES) == 600
        assert registry.counter_value(DIGEST_EVENTS) == result.n_events

    def test_learn_times_offline_stages(self, registry, data_a, history_a):
        SyslogDigest.learn(
            [m.message for m in history_a.messages[:2000]],
            list(data_a.configs.values()),
            fit_temporal=False,
        )
        assert {
            "learn_templates",
            "learn_configs",
            "learn_rules",
        } <= _stages(registry)


class TestShardMetrics:
    def test_parallel_digest_reports_shards(
        self, registry, system_a, live_a
    ):
        system = SyslogDigest(system_a.kb, system_a.config.with_workers(2))
        system.digest(m.message for m in live_a.messages[:600])
        shard_sizes = {
            dict(labels)["shard"]: value
            for (name, labels), value in registry.gauges().items()
            if name == SHARD_MESSAGES
        }
        shard_times = {
            dict(labels)["shard"]: value
            for (name, labels), value in registry.gauges().items()
            if name == SHARD_SECONDS
        }
        assert len(shard_sizes) == 2
        assert sum(shard_sizes.values()) == 600
        assert set(shard_times) == set(shard_sizes)
        assert all(t >= 0.0 for t in shard_times.values())
        imbalance = registry.gauge_value(SHARD_IMBALANCE)
        assert imbalance is not None and imbalance >= 1.0
        task_hist = registry.histogram(SHARD_TASK_SECONDS)
        assert task_hist is not None and task_hist.count == 2
        assert "shard_passes" in _stages(registry)


class TestStreamHealth:
    def test_health_snapshot_and_gauges(self, registry, system_a, live_a):
        stream = DigestStream(system_a.kb, system_a.config)
        for m in live_a.messages[:800]:
            stream.push(m.message)
        stream.close()
        health = stream.health()
        assert health["finalized_events"] > 0
        assert health["open_messages"] == 0
        assert registry.gauge_value(STREAM_OPEN_MESSAGES) == 0
        assert registry.gauge_value(STREAM_SPLITTERS) is not None
        assert registry.gauge_value(STREAM_WINDOW_ENTRIES) is not None
        assert registry.gauge_value(STREAM_WATERMARK_LAG) is not None
        assert (
            registry.counter_value(STREAM_FINALIZED)
            == health["finalized_events"]
        )
        assert (
            registry.counter_value(STREAM_PRUNED)
            == health["pruned_entries"]
        )

    def test_watermark_lag_tracks_oldest_open(self, system_a, live_a):
        stream = DigestStream(system_a.kb, system_a.config)
        assert stream.watermark_lag == 0.0
        for m in live_a.messages[:50]:
            stream.push(m.message)
        first = live_a.messages[0].timestamp
        last = live_a.messages[49].timestamp
        assert stream.watermark_lag == pytest.approx(last - first)

    def test_skew_counters(self, registry, system_a, live_a):
        stream = DigestStream(system_a.kb, system_a.config)
        base = live_a.messages[0].message
        later = SyslogMessage(
            timestamp=base.timestamp + 100.0,
            router=base.router,
            error_code=base.error_code,
            detail=base.detail,
        )
        stream.push(later)
        # Within tolerance: clamped, counted, not rejected.
        clamped = SyslogMessage(
            timestamp=later.timestamp - system_a.config.skew_tolerance / 2,
            router=base.router,
            error_code=base.error_code,
            detail=base.detail,
        )
        stream.push(clamped)
        # Beyond tolerance: rejected and counted.
        with pytest.raises(ValueError):
            stream.push(
                SyslogMessage(
                    timestamp=later.timestamp - 1000.0,
                    router=base.router,
                    error_code=base.error_code,
                    detail=base.detail,
                )
            )
        health = stream.health()
        assert health["skew_clamped"] == 1
        assert health["skew_rejected"] == 1
        stream.record_metrics()
        assert registry.counter_value(STREAM_SKEW_CLAMPED) == 1

    def test_record_metrics_deltas_stay_monotonic(
        self, registry, system_a, live_a
    ):
        stream = DigestStream(system_a.kb, system_a.config)
        for m in live_a.messages[:400]:
            stream.push(m.message)
        stream.close()
        once = registry.counter_value(STREAM_FINALIZED)
        stream.record_metrics()
        stream.record_metrics()
        assert registry.counter_value(STREAM_FINALIZED) == once


class TestCollectorCounters:
    def _messages(self, n):
        return [
            SyslogMessage(
                timestamp=float(i),
                router="r1",
                error_code="LINK-3-UPDOWN",
                detail=f"Interface Serial{i % 4}/0/10:0 down",
            )
            for i in range(n)
        ]

    def test_loss_dup_jitter_counted(self, registry):
        messages = self._messages(500)
        out = degrade_stream(
            messages,
            CollectorProfile(
                loss_rate=0.1, duplicate_rate=0.1, max_jitter=1.0, seed=1
            ),
        )
        dropped = registry.counter_value(COLLECTOR_DROPPED)
        duplicated = registry.counter_value(COLLECTOR_DUPLICATED)
        assert dropped > 0 and duplicated > 0
        assert registry.counter_value(COLLECTOR_JITTERED) > 0
        assert len(out) == 500 - dropped + duplicated

    def test_identity_profile_counts_nothing(self, registry):
        degrade_stream(self._messages(50), CollectorProfile())
        assert registry.counter_value(COLLECTOR_DROPPED) == 0
        assert registry.counter_value(COLLECTOR_DUPLICATED) == 0


class TestOverheadSmoke:
    def test_noop_and_enabled_registries_agree(self, system_a, live_a):
        """Metrics-overhead smoke: same events, near-free instrumentation.

        At test scale the runs are milliseconds, so this smoke bounds
        the ratio loosely and pins result equality exactly; what the
        live registry costs at scale is inside every ledger row (the
        ledger runs with it on).
        """
        messages = [m.message for m in live_a.messages]
        system = SyslogDigest(system_a.kb, system_a.config)

        def best_of(registry, rounds=3):
            best = float("inf")
            with scoped_registry(registry):
                for _ in range(rounds):
                    t0 = time.perf_counter()
                    result = system.digest(messages)
                    best = min(best, time.perf_counter() - t0)
            return best, result

        noop_s, noop_result = best_of(NullRegistry())
        live_s, live_result = best_of(MetricsRegistry())
        assert [e.indices for e in live_result.events] == [
            e.indices for e in noop_result.events
        ]
        assert [e.score for e in live_result.events] == [
            e.score for e in noop_result.events
        ]
        # Loose CI-proof bound: scheduler noise dwarfs the real cost here.
        assert live_s <= noop_s * 1.5 + 0.05
