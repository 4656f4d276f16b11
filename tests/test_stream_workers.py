"""Streaming executor lanes: retry exactness and shared-nothing workers.

The headline regression here pins the shard-retry contract of
:meth:`repro.core.stream.DigestStream.push_many`: a shard whose
``ShardState.step`` raises *partway through* its message list must be
retried from exactly the failed message, never by replaying the whole
list against the partially-advanced state (which double-applies EWMA
updates and window inserts, silently corrupting the grouping).  The
faults injected here raise at a chosen step-call ordinal — unlike the
task-start fault hook, which only ever fails a shard *cleanly* before
any state is touched.
"""

from __future__ import annotations

import pytest

import repro.core.parallel as parallel_mod
import repro.core.shards as shards_mod
from repro.core.grouping import GroupingEngine, build_rule_partners
from repro.core.parallel import ParallelGroupingEngine
from repro.core.shards import StepItem, run_ladder
from repro.core.stream import DigestStream, ShardState
from repro.core.syslogplus import Augmenter
from repro.hotpath import stream_fingerprint
from repro.netsim.faults import FlakyShardTask, MidStepFault, WorkerFaults
from repro.obs import (
    SHARD_FALLBACKS,
    SHARD_RETRIES,
    MetricsRegistry,
    scoped_registry,
)
from repro.syslog.stream import sort_messages


def flaky_step(original, shard_id: int, fail_at: tuple[int, ...]):
    """Wrap ``ShardState.step`` to raise at chosen call ordinals.

    Counts calls on one shard only; each ordinal in ``fail_at`` raises
    exactly once, so one ordinal exercises the pool retry and two
    consecutive ordinals push through to the no-hook fallback resume.
    Returns ``(wrapper, calls)`` where ``calls["n"]`` counts step calls.
    """
    fail = set(fail_at)
    calls = {"n": 0}

    def wrapper(state, plus, now):
        if state._shard_id == shard_id:
            calls["n"] += 1
            if calls["n"] in fail:
                raise RuntimeError(
                    f"injected mid-step fault at call {calls['n']}"
                )
        return original(state, plus, now)

    return wrapper, calls


def _run_chunks(system, messages, n_workers=4, chunk=200):
    stream = DigestStream(system.kb, system.config.with_workers(n_workers))
    events = []
    for i in range(0, len(messages), chunk):
        events.extend(stream.push_many(messages[i : i + chunk]))
    events.extend(stream.close())
    return events


def _sig(events):
    return [(e.indices, e.score, e.label) for e in events]


@pytest.fixture(scope="module")
def ordered_a(live_a):
    return sort_messages(m.message for m in live_a.messages)


class TestShardRetryExactness:
    """Mid-step shard faults must not corrupt the grouping state."""

    def test_pool_retry_resumes_at_failed_message(
        self, system_a, ordered_a, monkeypatch
    ):
        """One mid-list fault: the retry must produce the no-fault digest.

        On the broken path the retry replays the shard's *full* batch
        list against state the first attempt already advanced, so the
        EWMA rhythm and the rule windows see every pre-fault message
        twice and the grouping diverges.
        """
        baseline = _run_chunks(system_a, ordered_a)
        wrapper, calls = flaky_step(ShardState.step, shard_id=0, fail_at=(30,))
        monkeypatch.setattr(ShardState, "step", wrapper)
        retried = _run_chunks(system_a, ordered_a)
        assert calls["n"] > 30  # the fault actually fired mid-list
        assert _sig(retried) == _sig(baseline)

    def test_fallback_resumes_at_failed_message(
        self, system_a, ordered_a, monkeypatch
    ):
        """Two consecutive faults: the serial fallback must resume, not
        replay — on the broken path it reran the full list a third
        time against twice-advanced state."""
        baseline = _run_chunks(system_a, ordered_a)
        wrapper, calls = flaky_step(
            ShardState.step, shard_id=0, fail_at=(30, 31)
        )
        monkeypatch.setattr(ShardState, "step", wrapper)
        fallen = _run_chunks(system_a, ordered_a)
        assert calls["n"] > 31
        assert _sig(fallen) == _sig(baseline)

    def test_single_shard_fault_resumes_at_failed_message(
        self, system_a, ordered_a, monkeypatch
    ):
        """The single-shard (serial lane) path has the same contract."""
        baseline = _run_chunks(system_a, ordered_a, n_workers=1)
        wrapper, calls = flaky_step(
            ShardState.step, shard_id=0, fail_at=(120,)
        )
        monkeypatch.setattr(ShardState, "step", wrapper)
        retried = _run_chunks(system_a, ordered_a, n_workers=1)
        assert calls["n"] > 120
        assert _sig(retried) == _sig(baseline)


def _run_lane(system, messages, lane, profile=None, chunk=200):
    """One full streaming run on the given lane, optional fault profile."""
    hooks = {}
    if profile is not None:
        hooks = {
            "fault_hook": profile.stream_fault_hook(),
            "step_fault_hook": profile.stream_step_hook(),
        }
    stream = DigestStream(
        system.kb,
        system.config.with_workers(4).with_stream_workers(lane),
        **hooks,
    )
    try:
        if lane == "processes":
            assert stream.stream_lane == "processes"
        events = []
        for i in range(0, len(messages), chunk):
            events.extend(stream.push_many(messages[i : i + chunk]))
        events.extend(stream.close())
    finally:
        stream.shutdown_workers()
    return events


@pytest.fixture(scope="module")
def lane_baseline(system_a, ordered_a):
    """The no-fault reference digest (lane-independent by the identity
    gate, so one serial run serves all three lanes)."""
    return _sig(_run_lane(system_a, ordered_a, "serial"))


class TestMidStepFaultAcrossLanes:
    """The retry-exactness contract holds identically in every lane.

    :class:`~repro.netsim.faults.MidStepFault` (via the ``WorkerFaults``
    profile's ``after`` knob) raises *inside* a shard's message list —
    for the process lane, inside the worker process itself, shipped at
    spawn.  Whatever recovery rung handles it (pool retry or hook-free
    fallback), the digest must equal the no-fault run byte for byte.
    """

    @pytest.mark.parametrize("lane", ["serial", "threads", "processes"])
    def test_retry_is_deterministic(
        self, system_a, ordered_a, lane, lane_baseline
    ):
        profile = WorkerFaults(fail_shards=(0,), after=25)
        registry = MetricsRegistry()
        with scoped_registry(registry):
            faulted = _run_lane(system_a, ordered_a, lane, profile)
        # The fault actually fired and was retried, not absorbed.
        assert registry.counter_value(SHARD_RETRIES, engine="stream") >= 1.0
        assert _sig(faulted) == lane_baseline

    @pytest.mark.parametrize("lane", ["serial", "threads", "processes"])
    def test_fallback_is_deterministic(
        self, system_a, ordered_a, lane, lane_baseline
    ):
        """Exhausting every hooked attempt lands in the hook-free
        fallback resume, which must also match the no-fault digest."""
        profile = WorkerFaults(fail_shards=(0,), after=25, fail_attempts=2)
        registry = MetricsRegistry()
        with scoped_registry(registry):
            faulted = _run_lane(system_a, ordered_a, lane, profile)
        assert (
            registry.counter_value(SHARD_FALLBACKS, engine="stream") >= 1.0
        )
        assert _sig(faulted) == lane_baseline


class TestOneLadderOneLoop:
    """``run_ladder`` + ``ShardState.apply`` with no lane in sight, and
    the batch engine's ``task=`` seam through the very same ladder."""

    K = 25

    @pytest.fixture(scope="class")
    def shard_parts(self, system_a, ordered_a):
        kb = system_a.kb
        plus = Augmenter(kb.templates, kb.dictionary).augment_all(
            ordered_a[:80]
        )
        items = [
            (
                StepItem(
                    p.index,
                    p.timestamp,
                    p.router,
                    p.template_key,
                    p.primary_location,
                ),
                p.timestamp,
            )
            for p in plus
        ]
        partners = build_rule_partners(kb.rule_pairs())
        return (kb, system_a.config, partners), items, plus

    @pytest.mark.parametrize("fail_attempts", [1, 2])
    def test_fault_at_k_resumes_at_k(self, shard_parts, fail_attempts):
        init, items, _ = shard_parts
        clean = ShardState(0, *init)
        assert clean.apply(items)[0::2] == (len(items), None)
        prefix_edges = ShardState(0, *init).apply(items[: self.K])[1]
        want_edges = ShardState(0, *init).apply(items)[1]

        state = ShardState(
            0, *init, step_hook=MidStepFault((0,), self.K, fail_attempts)
        )
        cursor, edges, trail = 0, [], []

        def run_attempt(pending, attempt, use_hooks):
            nonlocal cursor
            assert pending == [0]
            base = cursor
            cursor, stepped, error = state.apply(
                items[base:], attempt, use_hooks, base
            )
            edges.extend(stepped)
            trail.append((attempt, use_hooks, base, cursor, list(edges)))
            return {} if error is None else {0: error}

        registry = MetricsRegistry()
        with scoped_registry(registry):
            run_ladder([0], run_attempt, engine="unit")

        # Attempt 0 applied exactly the prefix and kept its edges; every
        # later attempt resumed at message K, never before it.
        assert trail[0] == (0, True, 0, self.K, prefix_edges)
        assert [(a, hooks, base) for a, hooks, base, _, _ in trail[1:]] == [
            (1, True, self.K),
            (2, False, self.K),
        ][:fail_attempts]
        assert cursor == len(items)
        assert edges == want_edges
        assert state.snapshot() == clean.snapshot()
        assert registry.counter_value(SHARD_RETRIES, engine="unit") == 1.0
        assert registry.counter_value(
            SHARD_FALLBACKS, engine="unit"
        ) == float(fail_attempts - 1)

    def test_unrecoverable_shard_raises_after_the_hook_free_attempt(self):
        attempts = []

        def run_attempt(pending, attempt, use_hooks):
            attempts.append((attempt, use_hooks))
            return {0: "boom"}

        with pytest.raises(RuntimeError, match="shard 0: boom"):
            run_ladder([0], run_attempt, engine="unit")
        assert attempts == [(0, True), (1, True), (2, False)]

    def test_batch_task_seam_and_stream_share_the_ladder(
        self, system_a, ordered_a, shard_parts, monkeypatch
    ):
        engines = []

        def spy(shard_ids, run_attempt, engine, *ladder):
            engines.append(engine)
            return run_ladder(shard_ids, run_attempt, engine, *ladder)

        monkeypatch.setattr(parallel_mod, "run_ladder", spy)
        monkeypatch.setattr(shards_mod, "run_ladder", spy)
        _, _, plus = shard_parts
        config = system_a.config.with_workers(2)
        want = GroupingEngine(system_a.kb, config).group(plus)
        registry = MetricsRegistry()
        with scoped_registry(registry):
            got = ParallelGroupingEngine(
                system_a.kb, config, task=FlakyShardTask((0,), 2)
            ).group(plus)
        assert [[p.index for p in g] for g in got.groups] == [
            [p.index for p in g] for g in want.groups
        ]
        # One failing shard: counted once per rung, under its engine.
        assert registry.counter_value(SHARD_RETRIES, engine="batch") == 1.0
        assert registry.counter_value(SHARD_FALLBACKS, engine="batch") == 1.0
        DigestStream(system_a.kb, config).push_many(ordered_a[:50])
        assert engines == ["batch", "stream"]


def _canonical(events):
    return sorted(events, key=lambda e: (e.start_ts, e.indices))


class TestPushEqualsPushMany:
    """``push`` is ``push_many`` with a batch of one.  A batch sweeps
    once, at its end, so the two *emit* at different moments; the events
    themselves — members, scores, labels — must be the same set."""

    @pytest.mark.parametrize("lane", ["serial", "threads", "processes"])
    def test_same_fingerprint_on_every_lane(
        self, system_a, ordered_a, lane
    ):
        config = system_a.config.with_workers(4).with_stream_workers(lane)
        stream = DigestStream(system_a.kb, config)
        try:
            assert stream.stream_lane == lane
            events = []
            for message in ordered_a:
                events.extend(stream.push(message))
            events.extend(stream.close())
        finally:
            stream.shutdown_workers()
        batched = _run_lane(system_a, ordered_a, lane)
        assert stream_fingerprint(_canonical(events)) == stream_fingerprint(
            _canonical(batched)
        )


class TestAllCoresKnob:
    """``n_workers=0`` means one shard per core for the stream exactly
    as it does for the batch engine (it used to build one shard)."""

    def test_zero_resolves_to_cpu_count(
        self, system_a, ordered_a, lane_baseline, monkeypatch
    ):
        monkeypatch.setattr(shards_mod.os, "cpu_count", lambda: 3)
        config = system_a.config.with_workers(0).with_stream_workers(
            "processes"
        )
        stream = DigestStream(system_a.kb, config)
        try:
            assert stream.stream_lane == "processes"
            assert len(stream.snapshot()["shards"]) == 3
            events = []
            for i in range(0, len(ordered_a), 200):
                events.extend(stream.push_many(ordered_a[i : i + 200]))
            events.extend(stream.close())
        finally:
            stream.shutdown_workers()
        assert _sig(events) == lane_baseline

    def test_restore_on_a_different_core_count_is_a_typed_error(
        self, system_a, ordered_a, monkeypatch
    ):
        config = system_a.config.with_workers(0)
        monkeypatch.setattr(shards_mod.os, "cpu_count", lambda: 3)
        first = DigestStream(system_a.kb, config)
        first.push_many(ordered_a[:300])
        state = first.snapshot()
        monkeypatch.setattr(shards_mod.os, "cpu_count", lambda: 2)
        with pytest.raises(ValueError, match="3 shards, stream has 2"):
            DigestStream(system_a.kb, config).restore(state)
