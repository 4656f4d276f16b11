"""Live-daemon workloads: tailed log -> ``repro serve`` -> HTTP.

Each boots one real ``repro serve`` subprocess on empty source files and
drives it only through what an operator has: files to append to and the
HTTP API.  Tenants keep every ``TenantSpec`` / ``ServeConfig`` default
except ``REORDER_DELAY`` and ``TENANT_OVERRIDES`` below.

The reference computation is the same lines pushed, in this process,
through ``MultiSourceIngest`` + ``DigestStream`` directly — no tail, no
tenant runtime, no journal, no checkpoints, no daemon.  What a tenant's
journal served must fingerprint identically.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.checkpoint import restore_stream, write_checkpoint
from repro.core.config import DigestConfig, IngestConfig
from repro.core.knowledge import KnowledgeBase
from repro.core.stream import DigestStream
from repro.hotpath import stream_fingerprint
from repro.netsim.chaos import supervisor_arc, tenant_fingerprint
from repro.serve.daemon import PORT_FILE
from repro.serve.http import events_page
from repro.serve.journal import EventJournal
from repro.serve.rpc import decode_payload, encode_frame
from repro.serve.tenant import EVENTS_FILE, TenantRuntime, TenantSpec
from repro.syslog.ingest import MultiSourceIngest

from . import feeds
from .hygiene import LedgerDaemon
from .measure import (
    Outcome,
    WorkloadFailed,
    percentile,
    proc_peak_rss_mb,
    quiet_collector,
    tail,
)
from .prepare import SetupClock, build_knowledge, save_knowledge
from .tracing import Tracer

FEEDS = {
    "serve_backlog": feeds.BACKBONE,
    "serve_paced": feeds.SPARSE,
    "serve_read": feeds.SPARSE,
}

#: The one ingest knob every serve workload moves off its default, to the
#: value every live-daemon gate under ``tests/`` uses.  At the default 0.0
#: the ingest drops a line as *late* when it sorts before an already
#: flushed line of the same second, and collector lines carry whole
#: seconds: ~73% of an at-density feed would be quarantined.
REORDER_DELAY = 5.0

#: serve_backlog: lines appended per tenant, per second of run length
#: (14 000 at the default 14 s, ingested in about as long).  Fixed work,
#: not fixed time, because checkpoint cost grows with open state: every
#: run must end in the same state.
BACKLOG_LINES_PER_RUN_SECOND = 1000
POLL_PAUSE = 0.01
WATCH_AFTER = 0.5
HEALTH_SECONDS = 1.0

#: serve_paced: 25 lines every 50 ms = 500 lines/s, ~25% utilisation.
TICK = 0.05
LINES_PER_TICK = 25
SAMPLE_INTERVAL = 0.25
EVENTS_LIMIT = 500

#: Per workload, the ``TenantSpec`` fields moved off their defaults beside
#: ``max_reorder_delay``.  serve_read is about reads: checkpoints out of
#: the way.
TENANT_OVERRIDES = {
    "serve_backlog": {},
    "serve_paced": {},
    "serve_read": {"checkpoint_every": 10**9},
}

#: serve_read: lines ingested during set-up, page size, reader threads.
READ_LINES = 6000
PAGE = 100
READERS = 2

WAIT = 120.0


@dataclass
class _Reference:
    fingerprint: str
    #: Events finalized so far after each pushed line (before ``close``).
    events_after_line: list[int]
    #: All events, the ones only ``close`` flushed included.
    n_events: int


def reference_pass(kb: KnowledgeBase, lines: list[str]) -> _Reference:
    stream = DigestStream(kb, DigestConfig(n_workers=1, stream_workers="serial"))
    ingest = MultiSourceIngest(
        stream, IngestConfig(max_reorder_delay=REORDER_DELAY, dedup_window=0.0)
    )
    ingest.register("reference")
    events, after = [], []
    for line in lines:
        events.extend(ingest.push_line("reference", line))
        after.append(len(events))
    events.extend(ingest.close())
    return _Reference(stream_fingerprint(events), after, len(events))


@dataclass
class _Scene:
    """Everything one serve workload run shares between its phases."""

    workload: str
    workdir: Path
    seconds: float
    scale: int
    clock: SetupClock
    tracer: Tracer | None
    kb_path: Path
    lines: list[str]
    reference: _Reference
    outcome: Outcome = field(default_factory=Outcome)
    daemon: LedgerDaemon | None = None
    config: dict = field(default_factory=dict)
    boot_s: float = 0.0
    #: Live-daemon probes a traced run adds to its per-layer metrics.
    probes: dict[str, float] = field(default_factory=dict)

    @property
    def state_dir(self) -> Path:
        return self.workdir / "state"

    def tenant(self, name: str, **overrides) -> dict:
        """A tenant spec: defaults, plus the named exceptions."""
        spec = {
            "name": name,
            "sources": [str(self.workdir / f"{name}.log")],
            "workdir": str(self.state_dir / name),
            "kb_path": str(self.kb_path),
            "max_reorder_delay": REORDER_DELAY,
        }
        spec.update(overrides)
        return spec

    def boot(self, tenants: list[dict]) -> LedgerDaemon:
        """Start the daemon on empty sources; charged to set-up."""
        self.config = {
            "host": "127.0.0.1",
            "port": 0,
            "workdir": str(self.state_dir),
            "tenants": tenants,
        }
        with self.clock.charge():
            for tenant in tenants:
                for source in tenant["sources"]:
                    Path(source).write_bytes(b"")
            self.boot_s = self.spawn()
        return self.daemon

    def spawn(self) -> float:
        """Launch a daemon life; returns seconds until every tenant is
        healthy."""
        start = time.perf_counter()
        self.daemon = LedgerDaemon(self.config, self.workdir).start()
        self.daemon.wait_healthy()
        return time.perf_counter() - start

    def source_row(self, tenant: str) -> dict:
        (row,) = self.daemon.sources(tenant)
        return row

    def wait_pushed(self, tenant: str, n: int) -> None:
        """Return within milliseconds of the tenant pushing its ``n``-th line.

        Polled finely because ``drain`` follows: how much of the pump's
        idle sleep a drain waits out depends on how soon after the last
        batch it is asked for.
        """
        give_up = time.perf_counter() + WAIT
        while self.source_row(tenant)["pushed"] < n:
            if time.perf_counter() > give_up:
                raise WorkloadFailed(f"{tenant} did not push {n} lines in {WAIT}s")
            time.sleep(0.005)

    def account_tenant(self, tenant: str, n_lines: int) -> list[int]:
        """Count this tenant's failed operations; returns its worker pids.

        A line the ingest did not admit (late, unparseable, shed, ...)
        is a failure; so is a supervisor restart, and any state but
        ``healthy``.
        """
        row = self.source_row(tenant)
        health = self.daemon.health(tenant)
        self.outcome.attempted += n_lines
        self.outcome.failed += (
            n_lines - row["admitted"]
            + int(health["restarts"])
            + (health["state"] != "healthy")
        )
        return [health["worker_pid"]] if health.get("worker_pid") else []

    def peak_rss_mb(self, worker_pids: list[int]) -> float:
        """Daemon plus workers' peak resident set, read while they live."""
        rss = [
            proc_peak_rss_mb(pid) for pid in [self.daemon.proc.pid] + worker_pids
        ]
        self.probes["serve.daemon.rss_mb"] = rss[0]
        self.probes["serve.worker.rss_mb"] = sum(rss[1:])
        return sum(rss)

    def drain(self) -> float:
        """``POST /drain`` -> exit 0, in seconds.

        Call it right after the tenants went idle: the pump then is at
        the start of its 0.2 s idle sleep, and the part of that sleep a
        drain has to wait out is the same on every run.  Minutes later
        it would be anywhere in the sleep — more than the drain itself.
        """
        self.outcome.attempted += 1
        elapsed = self.daemon.drain_and_wait()
        # One sub-second sample per daemon life: reported, as a note here
        # and as a per-layer figure by the traced run, but too few to hold
        # an end-to-end bound.  serve_read drains twice; its first counts.
        self.probes.setdefault("serve.daemon.drain_s", elapsed)
        self.outcome.notes.setdefault("drain_s", round(elapsed, 4))
        return elapsed

    def check_outputs(self, tenants: list[str], lives: int = 1) -> None:
        """What each tenant served must equal the reference; no restarts."""
        for name in tenants:
            tenant_dir = self.state_dir / name
            if tenant_fingerprint(tenant_dir) != self.reference.fingerprint:
                raise WorkloadFailed(
                    f"{self.workload}: tenant {name} served a digest that "
                    "differs from the direct reference pass"
                )
            arc = supervisor_arc(tenant_dir)
            if arc != ["healthy", "drained"] * lives:
                raise WorkloadFailed(
                    f"{self.workload}: tenant {name} supervisor arc {arc}"
                )


def _append(path: Path, lines: list[str]) -> None:
    with open(path, "ab", buffering=0) as fh:
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))


def _put_latency(outcome: Outcome, samples: list[float], preferred: int) -> None:
    value, p = tail(samples, preferred)
    outcome.notes["tail_percentile"] = p
    outcome.put("latency_mid_ms", statistics.median(samples) * 1e3, len(samples))
    outcome.put("latency_tail_ms", value * 1e3, len(samples))


# ------------------------------------------------------------ serve_backlog


def _time_to_reach(samples: list[tuple[float, int]], target: float) -> float:
    """When ``pushed`` crossed ``target``, interpolated between polls."""
    before = (samples[0][0], 0)
    for t, pushed in samples:
        if pushed >= target:
            t0, p0 = before
            return t0 + (t - t0) * (target - p0) / max(pushed - p0, 1)
        before = (t, pushed)
    raise WorkloadFailed(f"never pushed {target} lines")


def _mean_wait(samples: list[tuple[float, int]], n: int) -> float:
    """Seconds from the append until a line was pushed, averaged over the
    backlog: the area above the progress curve, by trapezoids.

    The polls are 0.3 to 1.4 s apart (a request waits behind pump batches
    and checkpoints), so one crossing time is known to +-10%; the area
    uses every poll."""
    area, t0, p0 = 0.0, 0.0, 0
    for t, pushed in samples:
        area += (t - t0) * (n - (pushed + p0) / 2)
        t0, p0 = t, pushed
    return area / n


def _backlog(scene: _Scene) -> None:
    """Closed loop: a whole backlog lands at once on both placements."""
    outcome, n = scene.outcome, len(scene.lines)
    names = {"inl": "inline", "proc": "process"}
    daemon = scene.boot(
        [scene.tenant(name, placement=p) for name, p in names.items()]
    )
    #: Per tenant: (seconds since its append, lines pushed) at each poll.
    progress: dict[str, list[tuple[float, int]]] = {name: [] for name in names}
    appended, get_s, get_failures = {}, [], []
    give_up = time.perf_counter() + WAIT

    def watch(name: str) -> None:
        """Poll this tenant's ``/sources`` until it has pushed every line.

        Polls go back to back: a request already waiting when the pump
        next yields is answered at once, so the finish is seen within
        milliseconds, and each request's wait is one sample of how long
        the control plane stalls behind ingest work.
        """
        while time.perf_counter() < give_up:
            status, body, elapsed = daemon.timed_get(f"/tenants/{name}/sources")
            if status != 200:
                get_failures.append(status)
            else:
                get_s.append(elapsed)
                pushed = json.loads(body)[0]["pushed"]
                progress[name].append(
                    (time.perf_counter() - appended[name], pushed)
                )
                if pushed >= n:
                    return
            time.sleep(POLL_PAUSE)

    threads = [threading.Thread(target=watch, args=(name,)) for name in names]
    for name in names:
        _append(scene.workdir / f"{name}.log", scene.lines)
        appended[name] = time.perf_counter()
    # An idle worker process only looks at its sources when no RPC frame
    # reaches it for poll_interval (0.2 s): polled from the start, the
    # process-placed tenant would never notice its backlog.  Once it has
    # arrivals pending it serves commands between batches.
    time.sleep(WATCH_AFTER)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT + 60)
    if any(not rows or rows[-1][1] < n for rows in progress.values()):
        raise WorkloadFailed(f"serve_backlog: not ingested within {WAIT}s")
    outcome.attempted += len(get_s) + len(get_failures)
    outcome.failed += len(get_failures)
    worker_pids = [pid for name in names for pid in scene.account_tenant(name, n)]

    if scene.tracer is not None:
        _probe_health(scene, names)
        scene.probes["serve.http.sources.loaded_ms"] = (
            statistics.median(get_s) * 1e3
        )
    outcome.put("throughput_per_s", n / progress["inl"][-1][0])
    outcome.put("alt_throughput_per_s", n / progress["proc"][-1][0])
    # Latency of a backlog is how long its lines wait: the mean wait of a
    # line, and the time until 90% of a backlog is in, each averaged over
    # the two tenants.  (Ingest slows as open state grows, so these are
    # not T/2 and 0.9 T.)
    n_polls = sum(len(rows) for rows in progress.values())
    outcome.put(
        "latency_mid_ms",
        statistics.fmean(_mean_wait(rows, n) for rows in progress.values()) * 1e3,
        n_polls,
    )
    outcome.put(
        "latency_tail_ms",
        statistics.fmean(
            _time_to_reach(rows, 0.9 * n) for rows in progress.values()
        ) * 1e3,
        n_polls,
    )
    outcome.put("peak_rss_mb", scene.peak_rss_mb(worker_pids))
    scene.drain()
    scene.check_outputs(list(names))


def _probe_health(scene: _Scene, names: dict[str, str]) -> None:
    """Control-plane round trip per placement, with the backlog's state
    open: one client per tenant, back to back (cores that go idle between
    requests add wake-up time that varies by tens of percent)."""
    health_s: dict[str, list[float]] = {name: [] for name in names}
    refused: list[int] = []
    probe_until = time.perf_counter() + HEALTH_SECONDS

    def probe(name: str) -> None:
        while time.perf_counter() < probe_until:
            status, _, elapsed = scene.daemon.timed_get(f"/tenants/{name}/health")
            if status != 200:
                refused.append(status)
            health_s[name].append(elapsed)

    threads = [threading.Thread(target=probe, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
    scene.outcome.attempted += sum(len(times) for times in health_s.values())
    scene.outcome.failed += len(refused)
    for name, placement in names.items():
        scene.probes[f"serve.http.health.{placement}_ms"] = (
            statistics.median(health_s[name]) * 1e3
        )


# -------------------------------------------------------------- serve_paced


def _paced(scene: _Scene) -> None:
    """Open loop: lines arrive on a schedule; when is each event visible?"""
    outcome, lines = scene.outcome, scene.lines
    n_ticks = len(lines) // LINES_PER_TICK
    after = scene.reference.events_after_line
    n_visible = after[-1]
    if n_visible < 20:
        raise WorkloadFailed(
            f"serve_paced: only {n_visible} events finalize before the drain"
        )
    daemon = scene.boot([scene.tenant("t")])
    blocks = [
        "".join(
            line + "\n"
            for line in lines[k * LINES_PER_TICK : (k + 1) * LINES_PER_TICK]
        ).encode("utf-8")
        for k in range(n_ticks)
    ]
    lateness: list[float] = []
    receipts: list[float] = []
    http_failures = [0]
    t0 = time.perf_counter() + 0.2

    def generate() -> None:
        with open(scene.workdir / "t.log", "ab", buffering=0) as fh:
            for k, block in enumerate(blocks):
                due = t0 + k * TICK
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                fh.write(block)
                lateness.append(time.perf_counter() - due)

    give_up = t0 + n_ticks * TICK + 30.0

    def read() -> None:
        cursor = 0
        while cursor < n_visible and time.perf_counter() < give_up:
            status, body, _ = daemon.timed_get(
                f"/tenants/t/events?cursor={cursor}&limit={EVENTS_LIMIT}&wait=5",
                timeout=15.0,
            )
            now = time.perf_counter()
            if status != 200:
                http_failures[0] += 1
                time.sleep(TICK)
                continue
            n_events = len(json.loads(body)["events"])
            receipts.extend([now] * n_events)
            cursor += n_events

    threads = [threading.Thread(target=generate), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    # This thread samples the backlog while the generator runs.
    backlog, lag_bytes = [], []
    while threads[0].is_alive():
        time.sleep(SAMPLE_INTERVAL)
        sent = len(lateness) * LINES_PER_TICK
        row = scene.source_row("t")
        backlog.append((time.perf_counter() - t0, sent - row["pushed"]))
        lag_bytes.append(row["lag_bytes"])
    scene.wait_pushed("t", len(lines))
    all_pushed = time.perf_counter()
    for thread in threads:
        thread.join(timeout=WAIT)
    if any(thread.is_alive() for thread in threads):
        raise WorkloadFailed("serve_paced: generator or reader did not end")

    # Event j (journal cursor j) was finalized by the first line after
    # which the reference had more than j events; its clock starts when
    # that line was *due*, so a stalled generator cannot hide latency.
    # The events one tick finalized reach the reader together, up to 60
    # at a time, so the sample is one latency per *delivery* (tick,
    # receipt): weighting each by its events would let a few large ones
    # decide the median.
    deliveries = sorted({
        (bisect_right(after, j) // LINES_PER_TICK, receipt)
        for j, receipt in enumerate(receipts)
    })
    visible = [receipt - (t0 + tick * TICK) for tick, receipt in deliveries]
    late_ticks = sum(1 for late in lateness if late > TICK)
    recent = [(t, b) for t, b in backlog if t >= n_ticks * TICK / 2]
    slope = (
        statistics.linear_regression(*zip(*recent)).slope
        if len({t for t, _ in recent}) > 1 else 0.0
    )
    rate = LINES_PER_TICK / TICK
    valid = percentile(lateness, 99) <= TICK and slope <= 0.02 * rate
    outcome.notes.update(
        ticks=n_ticks,
        rate_per_s=rate,
        events_visible=n_visible,
        deliveries=len(visible),
        generator_lateness_p99_ms=round(percentile(lateness, 99) * 1e3, 3),
        late_ticks=late_ticks,
        backlog_slope_lines_per_s=round(slope, 2),
        valid=valid,
    )
    outcome.attempted += n_ticks + n_visible
    outcome.failed += http_failures[0] + (n_visible - len(receipts))
    if not valid:
        # Not a failed operation of the daemon: the lines did arrive, and
        # the events they delayed are charged from the due time.  But the
        # load was not the load the workload names, so say so loudly.
        print(
            f"ledger: serve_paced run INVALID: generator lateness p99 "
            f"{percentile(lateness, 99) * 1e3:.1f} ms (tick {TICK * 1e3:.0f} ms), "
            f"backlog slope {slope:+.1f} lines/s",
            file=sys.stderr,
        )
    if len(receipts) != n_visible:
        raise WorkloadFailed(
            f"serve_paced: {len(receipts)} of {n_visible} events became visible"
        )
    scene.probes["syslog.tail.lag_bytes_max"] = max(lag_bytes, default=0)
    outcome.put("throughput_per_s", len(lines) / (all_pushed - t0))
    outcome.put("alt_throughput_per_s", n_visible / (receipts[-1] - t0))
    _put_latency(outcome, visible, 90)
    worker_pids = scene.account_tenant("t", len(lines))
    outcome.put("peak_rss_mb", scene.peak_rss_mb(worker_pids))
    scene.drain()
    scene.check_outputs(["t"])


# --------------------------------------------------------------- serve_read


def _read(scene: _Scene) -> None:
    """Closed loop: two readers page the whole journal, again and again.

    Two daemon lives: the first ingests the lines and is drained (that
    drain journals every event still open, and is the one reported); the
    second restores and serves the complete journal to the readers.
    """
    outcome, lines = scene.outcome, scene.lines
    total = scene.reference.n_events
    scene.boot([scene.tenant("t", **TENANT_OVERRIDES["serve_read"])])
    with scene.clock.charge():
        _append(scene.workdir / "t.log", lines)
        scene.wait_pushed("t", len(lines))
    first_life_rss = scene.peak_rss_mb(scene.account_tenant("t", len(lines)))
    scene.drain()
    with scene.clock.charge():
        (scene.state_dir / PORT_FILE).unlink()
        scene.spawn()
    daemon = scene.daemon
    deadline = time.perf_counter() + scene.seconds / scene.scale
    page_s: list[list[float]] = [[] for _ in range(READERS)]
    n_events = [0] * READERS
    problems: list[str] = []

    def reader(slot: int) -> None:
        cursor = 0
        while time.perf_counter() < deadline and not problems:
            status, body, elapsed = daemon.timed_get(
                f"/tenants/t/events?cursor={cursor}&limit={PAGE}"
            )
            if status != 200:
                problems.append(f"GET events -> {status}")
                return
            page = json.loads(body)
            cursors = [event["cursor"] for event in page["events"]]
            expected = list(range(cursor, min(cursor + PAGE, total)))
            if cursors != expected or page["total"] != total:
                problems.append(
                    f"page at {cursor}: cursors {cursors[:1]}..{cursors[-1:]}"
                    f" total {page['total']}, expected {total}"
                )
                return
            page_s[slot].append(elapsed)
            n_events[slot] += len(cursors)
            cursor = page["next_cursor"] or 0  # None: next sweep

    start = time.perf_counter()
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
    elapsed = time.perf_counter() - start
    if problems:
        raise WorkloadFailed(f"serve_read: {problems[0]}")
    samples = [s for per_reader in page_s for s in per_reader]
    outcome.notes.update(journal_events=total, pages=len(samples), readers=READERS)
    outcome.attempted += len(samples)
    outcome.put("throughput_per_s", sum(n_events) / elapsed, len(samples))
    outcome.put("alt_throughput_per_s", len(samples) / elapsed, len(samples))
    _put_latency(outcome, samples, 99)
    outcome.put("peak_rss_mb", max(first_life_rss, scene.peak_rss_mb([])))
    scene.drain()
    scene.check_outputs(["t"], lives=2)


# ------------------------------------------------------------------- traced


def _drive(runtime: TenantRuntime) -> None:
    while runtime.pending or runtime.refill():
        while runtime.pending:
            runtime.process_batch()


def _tenant_pass(
    spec: dict, lines: list[str], tracer: Tracer | None, before_drain=None
) -> float:
    """One in-process ``TenantRuntime`` life, shaped like the live run:
    boot on an empty source, the lines land, pump until idle, drain.
    Returns the wall seconds from boot to drained, not counting
    ``before_drain(runtime)``."""
    source = Path(spec["sources"][0])
    source.write_bytes(b"")
    runtime = TenantRuntime(TenantSpec.from_dict(spec))
    start = time.perf_counter()
    if tracer is not None:
        tracer.wrap(runtime, "start", "serve.tenant.start")
    runtime.start()
    if tracer is not None:
        for obj, attr, name in (
            (runtime, "refill", "serve.tenant.refill"),
            (runtime, "process_batch", "serve.tenant.process_batch"),
            (runtime, "checkpoint", "serve.tenant.checkpoint"),
            (runtime, "drain", "serve.tenant.drain"),
            (runtime.tails, "poll", "syslog.tail.poll"),
            (runtime.tails, "take_new", "syslog.tail.poll"),
            (runtime.ingest, "push_line", "syslog.ingest.push_line"),
            (runtime.stream, "push_many", "core.stream.push_many"),
            (runtime.stream, "close", "core.stream.close"),
            (runtime.events, "append", "serve.journal.append"),
            (runtime.events, "sync", "serve.journal.sync"),
        ):
            tracer.wrap(obj, attr, name)
    _append(source, lines)
    _drive(runtime)
    paused = time.perf_counter()
    if before_drain is not None:
        before_drain(runtime)
    resumed = time.perf_counter()
    runtime.drain()
    runtime.events.close()
    return time.perf_counter() - start - (resumed - paused)


def _trace_layers(scene: _Scene, tenant_overrides: dict) -> None:
    """Per-layer numbers for a serve workload, from outside the program."""
    tracer, outcome = scene.tracer, scene.outcome
    # Half of the lines: two more tenant lives must fit the run.
    lines = scene.lines[: max(100, len(scene.lines) // 2)]
    bare_dir, traced_dir = scene.workdir / "bare", scene.workdir / "traced"

    def spec(root: Path) -> dict:
        root.mkdir()
        return scene.tenant(
            "trace",
            sources=[str(root / "trace.log")],
            workdir=str(root / "tenant"),
            **tenant_overrides,
        )

    end_of_slice = {}

    def checkpoint_probe(runtime: TenantRuntime) -> None:
        """Checkpoint the end-of-slice stream to a side file and back."""
        side = traced_dir / "side.ckpt"
        with tracer.span("core.checkpoint.write"):
            info = write_checkpoint(side, runtime.stream)
        kb = KnowledgeBase.load(scene.kb_path)
        with tracer.span("core.checkpoint.restore"):
            restore_stream(side, kb=kb).shutdown_workers()
        end_of_slice.update(
            bytes=info.n_bytes, open=runtime.stream.n_open_messages
        )

    bare_spec, traced_spec = spec(bare_dir), spec(traced_dir)
    with quiet_collector():
        bare_s = _tenant_pass(bare_spec, lines, None)
    with quiet_collector():
        traced_s = _tenant_pass(traced_spec, lines, tracer, checkpoint_probe)
    tenant_dir = Path(traced_spec["workdir"])
    if tenant_fingerprint(tenant_dir) != tenant_fingerprint(bare_spec["workdir"]):
        raise WorkloadFailed("the timing wrappers changed what the tenant served")

    # A second life over the same workdir restores from the checkpoint.
    again = TenantRuntime(TenantSpec.from_dict(traced_spec))
    with tracer.span("serve.tenant.restore"):
        again.start()
    if not again.resumed:
        raise WorkloadFailed("second tenant life did not restore")
    again.halt()
    again.events.close()

    journal = EventJournal(tenant_dir / EVENTS_FILE)
    page_bytes = frame_bytes = 0
    try:
        for cursor in range(0, len(journal), PAGE):
            with tracer.span("serve.journal.read"):
                journal.read(cursor, PAGE)
            with tracer.span("serve.http.events_page"):
                body = json.dumps(events_page(journal, cursor, PAGE), sort_keys=True)
            page_bytes += len(body)
        reply = {"id": 1, "ok": True, "result": events_page(journal, 0, PAGE)}
        for _ in range(20):
            with tracer.span("serve.rpc.codec"):
                frame = encode_frame(reply)
                decode_payload(frame[4:])
            frame_bytes += len(frame)
        n_events = len(journal)
        journal_bytes = journal.size_bytes
    finally:
        journal.close()

    busy, calls, put = tracer.busy, tracer.calls, outcome.put
    for name in (
        "serve.tenant.start", "serve.tenant.restore", "serve.tenant.drain",
        "serve.tenant.refill", "serve.tenant.process_batch",
        "serve.tenant.checkpoint", "serve.journal.sync", "serve.journal.append",
        "serve.journal.read", "serve.http.events_page", "serve.rpc.codec",
        "syslog.tail.poll", "syslog.ingest.push_line", "core.stream.push_many",
        "core.stream.close", "core.pipeline.learn", "core.knowledge.load",
        "core.checkpoint.write", "core.checkpoint.restore",
    ):
        put(f"{name}.busy_s", busy[name])
    for name in ("serve.tenant.process_batch", "syslog.ingest.push_line",
                 "core.stream.push_many"):
        put(f"{name}.self_s", tracer.self_s(name))
        put(f"{name}.calls", calls[name])
    put("serve.tenant.checkpoint.calls", calls["serve.tenant.checkpoint"])
    put("serve.journal.sync.calls", calls["serve.journal.sync"])
    put("serve.journal.append.events", n_events)
    put("serve.journal.append.bytes", journal_bytes)
    put("serve.journal.read.pages", calls["serve.journal.read"])
    put("serve.http.events_page.bytes", page_bytes)
    put("serve.rpc.codec.bytes", frame_bytes)
    put("syslog.tail.poll.lines", len(lines))
    put("syslog.tail.poll.bytes", Path(traced_spec["sources"][0]).stat().st_size)
    put("core.stream.events", n_events)
    put("core.stream.open_messages_peak", end_of_slice["open"])
    put("core.checkpoint.bytes", end_of_slice["bytes"])
    put("serve.daemon.boot_s", scene.boot_s)
    put("trace.overhead_share", max(0.0, traced_s / bare_s - 1.0))
    for name, value in scene.probes.items():
        put(name, value)
    outcome.self_seconds = {
        name: tracer.self_s(name)
        for name in (
            "serve.tenant.start", "serve.tenant.refill",
            "serve.tenant.process_batch", "serve.tenant.checkpoint",
            "serve.tenant.drain", "serve.journal.sync", "serve.journal.append",
            "syslog.tail.poll", "syslog.ingest.push_line",
            "core.stream.push_many", "core.stream.close",
        )
    }
    outcome.notes["traced_lines"] = len(lines)


# ---------------------------------------------------------------- dispatch

_LIVE = {"serve_backlog": _backlog, "serve_paced": _paced, "serve_read": _read}


def _n_lines(workload: str, seconds: float, scale: int) -> int:
    if workload == "serve_backlog":
        return max(400, int(BACKLOG_LINES_PER_RUN_SECOND * seconds) // scale)
    if workload == "serve_paced":
        return int(seconds / scale / TICK) * LINES_PER_TICK
    return max(100, READ_LINES // scale)


def run(
    workload: str,
    seed: int,
    seconds: float,
    scale: int,
    trace: bool,
    workdir: Path,
) -> Outcome:
    feed = FEEDS[workload]
    if feed is feeds.SPARSE:
        # A quick run has 1/scale of the lines; thinned by the same
        # factor they still span the 3 h idle horizon and emit events.
        feed = replace(feed, per_day=feed.per_day // scale)
    tracer = Tracer() if trace else None
    clock = SetupClock()
    gen, system = build_knowledge(feed, scale, clock, tracer)
    with clock.charge():
        kb_path = workdir / "kb.json"
        kb = save_knowledge(system, kb_path, tracer)
        lines = feeds.feed_lines(
            gen, feed, seed, _n_lines(workload, seconds, scale)
        )
        reference = reference_pass(kb, lines)
    scene = _Scene(
        workload, workdir, seconds, scale, clock, tracer, kb_path, lines, reference
    )
    scene.outcome.notes.update(feed=feed.name, lines=len(lines))
    try:
        _LIVE[workload](scene)
    finally:
        if scene.daemon is not None:
            scene.daemon.stop()
    scene.outcome.put("setup_s", clock.seconds, clock.samples)
    if trace:
        live = scene.outcome
        scene.outcome = Outcome(
            attempted=live.attempted, failed=live.failed, notes=live.notes
        )
        _trace_layers(scene, TENANT_OVERRIDES[workload])
    return scene.outcome
