"""Throughput — does online digesting keep up with an operational feed?

Paper: "it generally takes less than one hour to digest one day's syslog".
We measure batch digest and streaming-push wall time on a live day against
that bound.  Rates, scale, lanes, sharding and instrumentation overhead
are the ledger's (``benchmarks/ledger/``, ``make bench-ledger``): one
committed protocol, not a second set of numbers here.
"""

from __future__ import annotations

import time

from benchmarks._shared import record, record_table
from repro.core.pipeline import SyslogDigest
from repro.core.stream import DigestStream
from repro.netsim.datasets import ONLINE_START
from repro.obs import get_registry, to_prom_text
from repro.utils.timeutils import DAY


def _one_day(live):
    return [
        m.message
        for m in live.messages
        if m.timestamp < ONLINE_START + DAY
    ]


def test_throughput_batch_digest(benchmark, system_a, live_a):
    messages = _one_day(live_a)
    t0 = time.perf_counter()
    result = benchmark(
        lambda: SyslogDigest(system_a.kb, system_a.config).digest(messages)
    )
    wall = time.perf_counter() - t0
    # Under --benchmark-disable (CI smoke mode) stats are absent; the
    # single-call wall time still bounds the paper's < 1 h/day claim.
    mean_s = benchmark.stats.stats.mean if benchmark.stats else wall
    per_message_us = mean_s / len(messages) * 1e6
    record_table(
        "throughput_batch",
        ["metric", "value"],
        [
            ("messages in one day", len(messages)),
            ("digest wall time (s)", f"{mean_s:.2f}"),
            ("per message (us)", f"{per_message_us:.0f}"),
            ("events", result.n_events),
        ],
        title="Throughput: batch digest of one day "
        "(paper: < 1 hour per day of syslog)",
    )
    # The observability registry dump rides along with the throughput
    # table: stage timings, shard balance, digest totals as Prometheus
    # exposition text.
    record("throughput_metrics", to_prom_text(get_registry()).rstrip("\n"))
    # Digesting a day must take far less than a day (paper: < 1 h).
    assert mean_s < 3600.0


def test_throughput_streaming_push(benchmark, system_a, live_a):
    messages = _one_day(live_a)

    def run():
        stream = DigestStream(system_a.kb, system_a.config)
        events = []
        for message in messages:
            events.extend(stream.push(message))
        events.extend(stream.close())
        return events

    events = benchmark.pedantic(run, rounds=1, iterations=1)
    assert events
