"""Sharded parallel engine tests: planning, equivalence, fallbacks."""

from __future__ import annotations

import pytest

from repro.core.config import DigestConfig
from repro.core.grouping import GroupingEngine, build_rule_partners
from repro.core.parallel import (
    ParallelGroupingEngine,
    plan_shards,
    resolve_workers,
    shard_edge_task,
)
from repro.core.pipeline import SyslogDigest
from repro.core.syslogplus import Augmenter
from repro.obs import (
    SHARD_FALLBACKS,
    SHARD_RETRIES,
    MetricsRegistry,
    scoped_registry,
)


@pytest.fixture(scope="module")
def plus_stream(system_a, live_a):
    augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
    return augmenter.augment_all(m.message for m in live_a.messages)


def _group_sets(outcome):
    return [[p.index for p in group] for group in outcome.groups]


class TestShardPlan:
    def test_covers_every_router(self, plus_stream):
        plan = plan_shards(plus_stream, 4)
        routers = {p.router for p in plus_stream}
        assert set(plan.shard_of) == routers
        assert all(0 <= s < plan.n_shards for s in plan.shard_of.values())

    def test_never_more_shards_than_routers(self, plus_stream):
        routers = {p.router for p in plus_stream}
        plan = plan_shards(plus_stream, len(routers) + 50)
        assert plan.n_shards == len(routers)

    def test_deterministic(self, plus_stream):
        assert plan_shards(plus_stream, 3) == plan_shards(plus_stream, 3)

    def test_split_preserves_order_and_partitions(self, plus_stream):
        plan = plan_shards(plus_stream, 3)
        shards = plan.split(plus_stream)
        assert sum(len(s) for s in shards) == len(plus_stream)
        for shard in shards:
            timestamps = [p.timestamp for p in shard]
            assert timestamps == sorted(timestamps)

    def test_balances_loads(self, plus_stream):
        from collections import Counter

        plan = plan_shards(plus_stream, 2)
        shards = plan.split(plus_stream)
        loads = sorted(len(s) for s in shards)
        # Least-loaded greedy placement bounds the imbalance by the
        # heaviest single router (the indivisible shard unit).
        heaviest = max(Counter(p.router for p in plus_stream).values())
        assert loads[-1] - loads[0] <= heaviest

    def test_empty_stream(self):
        plan = plan_shards([], 4)
        assert plan.n_shards == 1
        assert plan.split([]) == [[]]


class TestResolveWorkers:
    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3


class TestShardedEquivalence:
    """The acceptance property: sharded == serial, byte for byte."""

    @pytest.mark.parametrize("n_workers", [2, 3, 7])
    def test_identical_groups_on_netsim_trace(
        self, system_a, plus_stream, n_workers
    ):
        serial = GroupingEngine(system_a.kb, system_a.config).group(
            plus_stream
        )
        sharded = ParallelGroupingEngine(
            system_a.kb, system_a.config.with_workers(n_workers)
        ).group(plus_stream)
        assert _group_sets(sharded) == _group_sets(serial)
        assert sharded.active_rules == serial.active_rules

    def test_identical_under_pass_toggles(self, system_a, plus_stream):
        for passes in ((True, False, False), (True, True, False)):
            config = system_a.config.only_passes(*passes).with_workers(2)
            serial = GroupingEngine(
                system_a.kb, config.with_workers(1)
            ).group(plus_stream)
            sharded = ParallelGroupingEngine(system_a.kb, config).group(
                plus_stream
            )
            assert _group_sets(sharded) == _group_sets(serial)

    def test_one_worker_delegates_to_serial(self, system_a, plus_stream):
        config = system_a.config.with_workers(1)
        serial = GroupingEngine(system_a.kb, config).group(plus_stream)
        sharded = ParallelGroupingEngine(system_a.kb, config).group(
            plus_stream
        )
        assert _group_sets(sharded) == _group_sets(serial)

    def test_empty_stream(self, system_a):
        outcome = ParallelGroupingEngine(
            system_a.kb, system_a.config.with_workers(4)
        ).group([])
        assert outcome.groups == []

    def test_serial_fallback_matches_pool(
        self, system_a, plus_stream, monkeypatch
    ):
        """A broken process pool degrades to in-process, same result."""
        import repro.core.parallel as parallel_mod

        serial = GroupingEngine(system_a.kb, system_a.config).group(
            plus_stream
        )

        def broken_pool(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor", broken_pool
        )
        registry = MetricsRegistry()
        with scoped_registry(registry):
            sharded = ParallelGroupingEngine(
                system_a.kb, system_a.config.with_workers(3)
            ).group(plus_stream)
        assert _group_sets(sharded) == _group_sets(serial)
        # Nothing was retried — there was no pool to retry on.
        assert registry.counter_value(SHARD_RETRIES, engine="batch") == 0.0
        assert registry.counter_value(SHARD_FALLBACKS, engine="batch") == 3.0


class TestShardEdgeTask:
    def test_task_runs_standalone(self, system_a, plus_stream):
        """The worker payload round-trips without engine context."""
        config = system_a.config
        partners = build_rule_partners(system_a.kb.rule_pairs())
        shard = [p for p in plus_stream if p.router == plus_stream[0].router]
        edges, active = shard_edge_task(
            (
                shard,
                system_a.kb.temporal,
                config.flush_after,
                partners,
                config.window,
                system_a.kb.dictionary,
                True,
                True,
            )
        )
        indices = {p.index for p in shard}
        assert all(a in indices and b in indices for a, b in edges)
        assert active <= system_a.kb.rule_pairs()


class TestDigestIntegration:
    """CI-friendly throughput smoke: sharded digest over a small netsim
    day must produce serial-equivalent output (and not crash on a
    single-core or process-restricted runner)."""

    def test_digest_with_workers_matches_serial(self, system_a, live_a):
        messages = [m.message for m in live_a.messages]
        serial = system_a.digest(messages)
        sharded_system = SyslogDigest(
            system_a.kb, system_a.config.with_workers(2)
        )
        sharded = sharded_system.digest(messages)
        assert [e.indices for e in sharded.events] == [
            e.indices for e in serial.events
        ]
        assert [e.score for e in sharded.events] == [
            e.score for e in serial.events
        ]
        assert sharded.active_rules == serial.active_rules

    def test_digest_all_cores_knob(self, system_a, live_a):
        messages = [m.message for m in live_a.messages[:800]]
        system = SyslogDigest(system_a.kb, system_a.config.with_workers(0))
        result = system.digest(messages)
        assert result.n_messages == len(messages)
        assert result.n_events >= 1
