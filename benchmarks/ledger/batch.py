"""Closed-loop batch workloads: a log file in, ranked labelled events out.

Two paths are timed over the same file, alternately, until the run's
seconds are used up: ``SyslogDigest.digest_lines`` (the ``repro digest``
path and the paper's "digest a day") and parse -> ``DigestStream.push_many``
-> ``close`` in 512-message chunks.
Each path is the other's reference: they must group identically.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from repro.core.checkpoint import restore_stream, write_checkpoint
from repro.core.events import NetworkEvent
from repro.core.grouping import (
    GroupingEngine,
    build_rule_partners,
    cross_router_edges,
    rule_edges,
    temporal_edges,
)
from repro.core.parallel import ParallelGroupingEngine
from repro.core.pipeline import SyslogDigest
from repro.core.present import event_label
from repro.core.priority import Prioritizer
from repro.core.stream import DigestStream
from repro.core.syslogplus import Augmenter
from repro.locations.extract import LocationExtractor
from repro.syslog.parse import SyslogParseError, parse_line
from repro.syslog.resilient import Quarantine, resilient_parse
from repro.syslog.stream import sort_messages
from repro.templates.tokenize import tokenize

from . import feeds
from .measure import (
    Outcome,
    WorkloadFailed,
    quiet_collector,
    self_peak_rss_mb,
    slowest_quarter_mean,
)
from .prepare import SetupClock, build_knowledge, save_knowledge
from .tracing import Tracer

FEEDS = {"batch_backbone": feeds.BACKBONE, "batch_burst": feeds.BURST}

#: Input lines per second of run length: 9 800 and 7 280 at the default
#: 14 s.  A pair of passes takes 1.1 to 2.8 s, so a run makes 5 to 12
#: pairs and reports medians over them.  The sizes keep the end of the
#: input clear of the stream's idle-flush checks (one per 300 s of message
#: time, the costliest ``push_many`` calls of a pass): an input ending
#: within a few seconds of one holds it on some seeds and not on others.
#: Backbone ends 847 +- 8 s in, between the checks near 620 and 930 s;
#: burst is two whole 300 s periods and the first 300 +- 80 lines of a
#: third, whose first line triggers the second check on every seed.
LINES_PER_RUN_SECOND = {"batch_backbone": 700, "batch_burst": 520}

#: Messages per ``push_many`` call of the stream pass.  The time one call
#: blocks its caller is the batch workloads' latency; 512 is a quarter of
#: what ``repro stats --stream`` hands over.
CHUNK = 512

MIN_PAIRS = 3


def _chunks(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _index_sets(events) -> list[tuple[int, ...]]:
    return sorted(tuple(event.indices) for event in events)


def _stream_pass(system: SyslogDigest, path: Path):
    """File -> parse -> chunked ``push_many`` -> ``close``.

    Returns ``(events, n_quarantined, wall_s, chunk_times, close_s)``.
    """
    quarantine = Quarantine()
    start = time.perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        messages = sort_messages(
            resilient_parse(fh, quarantine, source=str(path))
        )
    stream = DigestStream(system.kb, system.config)
    events = []
    chunk_times = []
    try:
        for chunk in _chunks(messages, CHUNK):
            c0 = time.perf_counter()
            events.extend(stream.push_many(chunk))
            chunk_times.append(time.perf_counter() - c0)
        c0 = time.perf_counter()
        events.extend(stream.close())
        end = time.perf_counter()
    finally:
        stream.shutdown_workers()
    return events, quarantine.total, end - start, chunk_times, end - c0


def run(
    workload: str,
    seed: int,
    seconds: float,
    scale: int,
    trace: bool,
    workdir: Path,
) -> Outcome:
    feed = FEEDS[workload]
    n_lines = max(500, int(LINES_PER_RUN_SECOND[workload] * seconds) // scale)
    tracer = Tracer() if trace else None
    clock = SetupClock()
    gen, system = build_knowledge(feed, scale, clock, tracer)
    path = workdir / f"{feed.name}.log"
    with clock.charge():
        feeds.write_lines(path, feeds.feed_lines(gen, feed, seed, n_lines))
    outcome = Outcome()
    outcome.notes.update(feed=feed.name, lines=n_lines, chunk=CHUNK)
    if trace:
        save_knowledge(system, workdir / "kb.json", tracer)
        with quiet_collector():
            _trace_layers(system, path, workdir, tracer, outcome)
        return outcome

    digest_s, stream_s, close_s, chunk_rows = [], [], [], []
    deadline = time.perf_counter() + seconds / scale
    while len(digest_s) < MIN_PAIRS or time.perf_counter() < deadline:
        with quiet_collector():
            start = time.perf_counter()
            with open(path, "r", encoding="utf-8") as fh:
                result = system.digest_lines(fh, source=str(path))
            digest_s.append(time.perf_counter() - start)
        with quiet_collector():
            events, n_bad, wall, chunks, closing = _stream_pass(system, path)
        stream_s.append(wall)
        chunk_rows.append(chunks)
        close_s.append(closing)
        outcome.attempted += 2 * n_lines
        outcome.failed += result.quarantine.total + n_bad
        if _index_sets(result.events) != _index_sets(events):
            raise WorkloadFailed(
                f"{workload}: batch and stream passes grouped differently "
                f"({result.n_events} vs {len(events)} events)"
            )
        if result.n_messages != n_lines:
            raise WorkloadFailed(
                f"{workload}: digested {result.n_messages} of {n_lines} lines"
            )

    # Every pass makes the same calls, so the k-th call's time is its
    # median over the passes: what the host added to single calls (on a
    # shared box, up to half again) is gone before the calls are compared.
    call_s = [statistics.median(times) for times in zip(*chunk_rows)]
    n_calls = len(call_s) * len(chunk_rows)
    outcome.notes.update(
        pairs=len(digest_s), events=result.n_events, calls_per_pass=len(call_s),
        close_s=round(statistics.median(close_s), 4),
    )
    outcome.put("setup_s", clock.seconds, clock.samples)
    outcome.put("peak_rss_mb", self_peak_rss_mb())
    outcome.put(
        "throughput_per_s", n_lines / statistics.median(digest_s), len(digest_s)
    )
    outcome.put(
        "alt_throughput_per_s",
        n_lines / statistics.median(stream_s),
        len(stream_s),
    )
    outcome.put("latency_mid_ms", statistics.median(call_s) * 1e3, n_calls)
    outcome.put("latency_tail_ms", slowest_quarter_mean(call_s) * 1e3, n_calls)
    return outcome


# ------------------------------------------------------------------ traced


def _lane_rate(system: SyslogDigest, messages: list, lane: str, n_workers: int):
    """msgs/s of the stream pass with ``n_workers`` shards on one lane."""
    config = system.config.with_workers(n_workers).with_stream_workers(lane)
    stream = DigestStream(system.kb, config)
    try:
        if stream.stream_lane != lane:
            raise WorkloadFailed(f"lane {lane} degraded to {stream.stream_lane}")
        start = time.perf_counter()
        n_events = 0
        for chunk in _chunks(messages, CHUNK):
            n_events += len(stream.push_many(chunk))
        n_events += len(stream.close())
        return len(messages) / (time.perf_counter() - start), n_events
    finally:
        stream.shutdown_workers()


def _trace_layers(
    system: SyslogDigest,
    path: Path,
    workdir: Path,
    tracer: Tracer,
    outcome: Outcome,
) -> None:
    """Time a call into each layer's public function over the input."""
    kb, config = system.kb, system.config
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    messages, n_unparsed = [], 0
    with tracer.span("syslog.parse"):
        for line in lines:
            try:
                messages.append(parse_line(line))
            except SyslogParseError:
                n_unparsed += 1
    messages = sort_messages(messages)
    # Untimed warm-up: the knowledge base's lazily built indexes and
    # caches are warm on every pass but a process's first, so every
    # layer below is timed in that steady state.
    system.digest(messages)

    with tracer.span("core.syslogplus.augment"):
        plus = Augmenter(kb.templates, kb.dictionary).augment_all(messages)
    # The augmenter's memo misses once per distinct body; matching and
    # extracting over exactly those bodies is the memo-miss work.
    bodies = sorted({(m.router, m.error_code, m.detail) for m in messages})
    tokenized = [(code, tokenize(detail)) for _, code, detail in bodies]
    with tracer.span("templates.match"):
        matched = [kb.templates.match_words(c, w) for c, w in tokenized]
    extractor = LocationExtractor(kb.dictionary)
    with tracer.span("locations.extract"):
        located = [extractor.extract(r, detail) for r, _, detail in bodies]

    with tracer.span("core.grouping.temporal"):
        t_edges = temporal_edges(plus, kb.temporal, config.flush_after)
    partners = build_rule_partners(kb.rule_pairs())
    with tracer.span("core.grouping.rule"):
        r_edges, _active = rule_edges(plus, partners, config.window, kb.dictionary)
    with tracer.span("core.grouping.cross_router"):
        c_edges = cross_router_edges(
            plus, config.cross_router_window, kb.dictionary
        )
    with tracer.span("core.grouping.group"):
        grouped = GroupingEngine(kb, config).group(plus)
    events = [NetworkEvent(messages=group) for group in grouped.groups]
    with tracer.span("core.priority.rank"):
        ranked = Prioritizer(kb).rank(events)
    with tracer.span("core.present.label"):
        for event in ranked:
            event.label = event_label([p.template for p in event.messages])

    n_cores = os.cpu_count() or 1
    with tracer.span("core.parallel.group"):
        sharded = ParallelGroupingEngine(kb, config.with_workers(n_cores)).group(
            plus
        )

    # The stream pass twice over the same messages: bare, then with the
    # timing wrappers on.  The difference is what tracing costs.
    bare = DigestStream(kb, config)
    start = time.perf_counter()
    for chunk in _chunks(messages, CHUNK):
        bare.push_many(chunk)
    bare.close()
    bare_s = time.perf_counter() - start
    bare.shutdown_workers()

    stream = DigestStream(kb, config)
    tracer.wrap(stream, "push_many", "core.stream.push_many")
    tracer.wrap(stream, "close", "core.stream.close")
    stream_events = []
    open_peak = 0
    for chunk in _chunks(messages, CHUNK):
        stream_events.extend(stream.push_many(chunk))
        open_peak = max(open_peak, stream.n_open_messages)
    checkpoint = workdir / "slice.ckpt"
    with tracer.span("core.checkpoint.write"):
        info = write_checkpoint(checkpoint, stream)
    with tracer.span("core.checkpoint.restore"):
        restored = restore_stream(checkpoint, kb=kb)
    restored.shutdown_workers()
    stream_events.extend(stream.close())
    stream.shutdown_workers()
    traced_s = (
        tracer.busy["core.stream.push_many"] + tracer.busy["core.stream.close"]
    )

    reference = _index_sets(events)
    if _index_sets(stream_events) != reference or (
        _index_sets(NetworkEvent(messages=g) for g in sharded.groups)
        != reference
    ):
        raise WorkloadFailed("traced batch, stream and sharded groupings differ")

    lanes = {}
    for lane in ("serial", "threads", "processes"):
        lanes[lane], n_events = _lane_rate(system, messages, lane, n_cores)
        if n_events != len(events):
            raise WorkloadFailed(f"lane {lane}: {n_events} events")

    busy = tracer.busy
    put = outcome.put
    put("syslog.parse.busy_s", busy["syslog.parse"])
    put("syslog.parse.lines", len(lines))
    put("syslog.parse.failed", n_unparsed)
    put("core.syslogplus.augment.busy_s", busy["core.syslogplus.augment"])
    put("core.syslogplus.augment.msgs", len(messages))
    put("core.syslogplus.augment.distinct_share", len(bodies) / len(messages))
    put("templates.match.busy_s", busy["templates.match"])
    put("templates.match.calls", len(bodies))
    put(
        "templates.match.fallback_share",
        sum(t.key.endswith("/other") for t in matched) / len(bodies),
    )
    put("locations.extract.busy_s", busy["locations.extract"])
    put("locations.extract.calls", len(bodies))
    put(
        "locations.extract.found",  # bodies naming more than their router
        sum(any(item.role != "router" for item in found) for found in located),
    )
    for name, edges in (
        ("temporal", t_edges), ("rule", r_edges), ("cross_router", c_edges)
    ):
        put(f"core.grouping.{name}.busy_s", busy[f"core.grouping.{name}"])
        put(f"core.grouping.{name}.edges", len(edges))
    put("core.grouping.group.busy_s", busy["core.grouping.group"])
    put("core.grouping.group.groups", len(events))
    put("core.priority.rank.busy_s", busy["core.priority.rank"])
    put("core.present.label.busy_s", busy["core.present.label"])
    push_self = max(
        0.0, busy["core.stream.push_many"] - busy["core.syslogplus.augment"]
    )
    put("core.stream.push_many.busy_s", busy["core.stream.push_many"])
    put("core.stream.push_many.self_s", push_self)
    put("core.stream.push_many.calls", tracer.calls["core.stream.push_many"])
    put("core.stream.close.busy_s", busy["core.stream.close"])
    put("core.stream.events", len(stream_events))
    put("core.stream.open_messages_peak", open_peak)
    for lane, rate in lanes.items():
        put(f"core.stream.lane.{lane}.msgs_per_s", rate)
    put("core.parallel.group.busy_s", busy["core.parallel.group"])
    put("core.checkpoint.write.busy_s", busy["core.checkpoint.write"])
    put("core.checkpoint.bytes", info.n_bytes)
    put("core.checkpoint.restore.busy_s", busy["core.checkpoint.restore"])
    put("core.pipeline.learn.busy_s", busy["core.pipeline.learn"])
    put("core.knowledge.load.busy_s", busy["core.knowledge.load"])
    put("trace.overhead_share", max(0.0, traced_s / bare_s - 1.0))

    passes = sum(busy[f"core.grouping.{n}"] for n in ("temporal", "rule", "cross_router"))
    miss_work = busy["templates.match"] + busy["locations.extract"]
    outcome.self_seconds = {
        "syslog.parse": busy["syslog.parse"],
        "core.syslogplus.augment": max(
            0.0, busy["core.syslogplus.augment"] - miss_work
        ),
        "templates.match": busy["templates.match"],
        "locations.extract": busy["locations.extract"],
        "core.grouping.temporal": busy["core.grouping.temporal"],
        "core.grouping.rule": busy["core.grouping.rule"],
        "core.grouping.cross_router": busy["core.grouping.cross_router"],
        "core.grouping.group": max(0.0, busy["core.grouping.group"] - passes),
        "core.priority.rank": busy["core.priority.rank"],
        "core.present.label": busy["core.present.label"],
        "core.stream.push_many": push_self,
        "core.stream.close": busy["core.stream.close"],
    }
    outcome.attempted = len(lines)
    outcome.failed = n_unparsed
    outcome.notes["traced_lines"] = len(lines)
