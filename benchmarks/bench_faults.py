"""Fault-injection harness — the digester must survive every profile.

Each :class:`~repro.netsim.faults.FaultProfile` damages a labelled
trace (or the compute path) and the streaming digester runs over it
through the resilient ingest layer: unparseable lines and skew-rejected
replays land in the quarantine, overload sheds, worker faults retry and
fall back.  We report event-recall (injected conditions still surfaced
in at least one digest event) and the stream's state size under each
profile, and assert three robustness invariants:

1. no profile raises an unhandled exception out of the digest loop;
2. the zero-fault profile is a strict no-op (identical events to a
   plain uninterrupted run — same indices, same scores);
3. recall degrades gracefully, never collapses.
"""

from __future__ import annotations

from benchmarks._shared import record_table
from repro.core.stream import DigestStream
from repro.netsim.faults import (
    Compose,
    CorruptLines,
    DuplicateBurst,
    FaultProfile,
    FeedStall,
    TruncateLines,
    WorkerFaults,
    labeled_pairs,
)
from repro.obs import FAULTS_INJECTED, NullRegistry, get_registry, scoped_registry
from repro.syslog.parse import SyslogParseError, parse_line
from repro.syslog.resilient import Quarantine, push_safe
from repro.utils import inject

PROFILES: tuple[FaultProfile, ...] = (
    FaultProfile(),  # clean — must be a strict no-op
    CorruptLines(rate=0.05, seed=7),
    TruncateLines(rate=0.05, seed=8),
    FeedStall(start_fraction=0.4, duration=1800.0),
    DuplicateBurst(rate=0.02, copies=4, seed=9),
    WorkerFaults(fail_shards=(0,), fail_attempts=1),
    Compose(
        name="everything",
        profiles=(
            CorruptLines(rate=0.03, seed=17),
            TruncateLines(rate=0.03, seed=18),
            DuplicateBurst(rate=0.01, copies=3, seed=19),
            FeedStall(start_fraction=0.6, duration=900.0),
            WorkerFaults(fail_shards=(1,), fail_attempts=2),
        ),
    ),
)


def _stream_digest(system, pairs, profile):
    """Run the faulted trace through the resilient streaming path."""
    config = system.config.with_workers(4)
    with inject.arm(profile.points()):  # the stream captures them here
        stream = DigestStream(system.kb, config)
    quarantine = Quarantine()
    stream.attach_quarantine(quarantine)
    events = []
    recalled: set = set()
    batch: list = []
    labels: list = []
    for line, label in pairs:
        try:
            message = parse_line(line)
        except SyslogParseError as exc:
            quarantine.add_parse_error(line, exc)
            continue
        batch.append(message)
        labels.append(label)
        if len(batch) >= 500:
            events.extend(_push_batch(stream, batch, labels, quarantine, recalled))
            batch, labels = [], []
    events.extend(_push_batch(stream, batch, labels, quarantine, recalled))
    events.extend(stream.close())
    return events, recalled, quarantine, stream


def _push_batch(stream, batch, labels, quarantine, recalled):
    """push_many when the whole batch is admissible, else per-message."""
    out = []
    for message, label in zip(batch, labels):
        events = push_safe(stream, message, quarantine)
        out.extend(events)
        if label is not None:
            recalled.add(label)
    return out


def test_fault_profiles(benchmark, system_a, live_a):
    pairs_clean = labeled_pairs(live_a.messages)
    truth = {lm.event_id for lm in live_a.messages if lm.event_id is not None}

    # The uninterrupted reference run: same collector-line feed (the
    # line format truncates sub-second timestamps, so the reference must
    # consume the formatted lines too), no faults, no resilient wrapper.
    reference = DigestStream(system_a.kb, system_a.config.with_workers(4))
    ref_events = []
    for line, _label in pairs_clean:
        ref_events.extend(reference.push(parse_line(line)))
    ref_events.extend(reference.close())

    def sweep():
        rows = []
        for profile in PROFILES:
            with scoped_registry(NullRegistry()):
                pairs = profile.apply(list(pairs_clean))
                events, recalled, quarantine, stream = _stream_digest(
                    system_a, pairs, profile
                )
            health = stream.health()
            recall = len(recalled & truth) / len(truth) if truth else 1.0
            rows.append(
                (
                    profile.name,
                    len(pairs),
                    len(events),
                    recall,
                    quarantine.total,
                    int(health["shed_messages"]),
                    int(
                        health["splitters"] + health["window_entries"]
                    ),
                    events,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        "faults",
        [
            "profile",
            "#lines",
            "#events",
            "event recall",
            "quarantined",
            "shed",
            "state size",
        ],
        [
            (name, n, events, f"{recall:.1%}", quarantined, shed, state)
            for name, n, events, recall, quarantined, shed, state, _ in rows
        ],
        title="Fault injection: recall and state size per profile",
    )

    clean = rows[0]
    assert clean[0] == "clean"
    # Strict no-op: the clean profile produces the reference run exactly.
    assert [
        (frozenset(e.indices), e.score) for e in clean[7]
    ] == [(frozenset(e.indices), e.score) for e in ref_events]
    assert clean[3] == 1.0 and clean[4] == 0 and clean[5] == 0

    for name, _n, n_events, recall, _q, _shed, _state, _ in rows:
        assert n_events > 0, name
        # Graceful degradation: most injected conditions stay visible.
        assert recall > 0.6, (name, recall)

    # The fault counters themselves are observable when a registry is on.
    registry = get_registry()
    with scoped_registry(type(registry)()):
        CorruptLines(rate=1.0, seed=1).apply(pairs_clean[:10])
        assert get_registry().counter_value(FAULTS_INJECTED, kind="corrupt") == 10.0
