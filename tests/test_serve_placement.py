"""Bulkhead placement: worker processes, budgets, long-poll, hardening.

In-process :class:`~repro.serve.daemon.ServeDaemon` scenarios (real
worker subprocesses, no CLI wrapper) for the DESIGN.md §15 contracts:

* a clean ``placement = "process"`` run is ``stream_fingerprint``
  byte-identical to the inline pipeline over the same data;
* one supervise path: the scenarios whose fault applies to both
  placements — a raise-mode poison batch escalating to degraded, a
  deterministic budget shed, long-poll wake and 429, a drain waking an
  idle tenant — run on both and must leave the same supervisor arc,
  transition kinds and fingerprint;
* worker death — SIGKILL and an RPC progress-deadline timeout (process
  only: an inline life cannot be killed from outside) — restarts from
  the latest checkpoint, and a drain that a hung worker cannot honor is
  SIGKILL-escalated after its deadline while the daemon still exits 0
  with every child reaped;
* the HTTP head/body/deadline hardening answers 408/431/413;
* the tenant loop's replies and notes survive the RPC codec unchanged
  (the inline transport passes them as dicts), and a checkpoint a life
  cannot resume from is refused and journaled.

Run via ``make placement`` (the cross-process smoke gate lives in
``tests/test_placement_smoke.py``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import signal
import time

import pytest

from repro.netsim.chaos import (
    reference_fingerprint,
    supervisor_arc,
    tenant_fingerprint,
    transition_kinds,
)
from repro.obs import SERVE_HTTP_REJECTED, get_registry
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.placement import LIVE_POLL, InlineLife, TenantLife
from repro.serve.rpc import decode_payload, encode_frame
from repro.core.stream import HEALTH_KEYS
from repro.serve.tenant import (
    BUDGET_HEALTH_KEYS,
    PLACEMENTS,
    TenantRuntime,
    TenantSpec,
)
from repro.syslog.ingest import BREAKER_STATES, INGEST_HEALTH_KEYS
from repro.syslog.parse import format_line
from repro.syslog.stream import write_log

pytestmark = pytest.mark.placement

WAIT_TIMEOUT = 120.0


@pytest.fixture(scope="module")
def farm(system_a, live_a, tmp_path_factory):
    """Shared kb + message window; per-scenario layouts are built fresh."""
    root = tmp_path_factory.mktemp("placement")
    kb_path = root / "kb.json"
    system_a.kb.save(kb_path)
    return {
        "root": root,
        "kb_path": kb_path,
        "messages": [m.message for m in live_a.messages][:400],
    }


def _tenant(farm, label: str, name: str, n: int, **extra) -> dict:
    """One tenant dict; writes its source log with the first ``n`` messages."""
    logdir = farm["root"] / label / "logs" / name
    logdir.mkdir(parents=True, exist_ok=True)
    write_log(logdir / "s1.log", farm["messages"][:n])
    spec = {
        "name": name,
        "sources": [str(logdir / "s1.log")],
        "workdir": str(farm["root"] / label / "work" / name),
        "kb_path": str(farm["kb_path"]),
        "checkpoint_every": 50,
        "placement": "process",
    }
    spec.update(extra)
    return spec


def _config(farm, label: str, tenants: list[dict], **overrides) -> ServeConfig:
    config = {
        "workdir": str(farm["root"] / label / "work"),
        "port": 0,
        "once": True,
        "poll_interval": 0.05,
        "tenants": tenants,
        "supervisor": {"max_restarts": 1, "base_delay": 0.01},
    }
    config.update(overrides)
    return ServeConfig.from_dict(config)


async def _wait(predicate, what: str, run: asyncio.Task) -> None:
    """Observation gate: poll until truthy, failing loudly if the daemon
    task dies first (its exception beats a bare timeout)."""
    deadline = time.monotonic() + WAIT_TIMEOUT
    while True:
        if run.done():
            run.result()  # re-raise the daemon's failure, if any
            raise AssertionError(f"daemon exited while waiting for {what}")
        result = predicate()
        if asyncio.iscoroutine(result):
            result = await result
        if result:
            return
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.02)


async def _pushed(handle, want: int) -> bool:
    from repro.serve.rpc import RpcClosed, RpcError

    try:
        rows = await handle.sources()
    except (RpcClosed, RpcError):
        return False  # between worker lives
    return sum(row["pushed"] for row in rows) >= want


def _reaped(handle) -> None:
    assert handle.lives, "no life was ever spawned"
    for life in handle.lives:
        assert not life.alive, "life left running"
        proc = getattr(life, "proc", None)
        assert proc is None or proc.returncode is not None, (
            "worker left unreaped (zombie)"
        )


def _outcome(tenant: dict) -> tuple:
    """What a supervise path leaves on disk: arc, kinds, fingerprint."""
    workdir = tenant["workdir"]
    return (
        supervisor_arc(workdir),
        transition_kinds(workdir),
        tenant_fingerprint(workdir),
    )


async def _total(handle) -> int:
    return (await handle.events_page(0, 1))["total"]


async def _http_get(port: int, target: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {target} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), body


class TestCleanRun:
    def test_process_placement_is_byte_identical_to_inline(self, farm):
        """The inline ≡ process fingerprint gate: the worker executes
        the very same TenantRuntime the in-process reference does."""
        tenant = _tenant(farm, "clean", "net-a", 300)
        # reference_fingerprint runs the spec inline in this process —
        # equality *is* the placement-equivalence claim.
        want = reference_fingerprint(
            dict(tenant, workdir=str(farm["root"] / "clean" / "ref"))
        )
        daemon = ServeDaemon(_config(farm, "clean", [tenant]))
        assert asyncio.run(daemon.run()) == 0
        assert tenant_fingerprint(tenant["workdir"]) == want
        assert supervisor_arc(tenant["workdir"]) == ["healthy", "drained"]
        assert transition_kinds(tenant["workdir"]) == []
        _reaped(daemon.handles["net-a"])


class TestWorkerDeath:
    def test_sigkill_restarts_from_checkpoint_byte_identical(self, farm):
        tenant = _tenant(farm, "sigkill", "net-a", 400)
        want = reference_fingerprint(
            dict(tenant, workdir=str(farm["root"] / "sigkill" / "ref"))
        )
        config = _config(
            farm, "sigkill", [tenant], once=False,
            supervisor={"max_restarts": 3, "base_delay": 0.01},
        )
        daemon = ServeDaemon(config)

        async def scenario() -> int:
            run = asyncio.create_task(daemon.run())
            handle = daemon.handles["net-a"]
            await _wait(
                lambda: handle.alive and handle.events_total > 0,
                "first events", run,
            )
            pid = handle.life.pid
            os.kill(pid, signal.SIGKILL)
            await _wait(
                lambda: handle.alive and handle.life.pid != pid,
                "worker respawn", run,
            )
            await _wait(
                lambda: _pushed(handle, 400), "full catch-up", run
            )
            daemon.request_drain()
            return await run

        assert asyncio.run(scenario()) == 0
        assert tenant_fingerprint(tenant["workdir"]) == want
        arc = supervisor_arc(tenant["workdir"])
        assert "restarting" in arc and arc[-1] == "drained"
        assert daemon.supervisors["net-a"].total_restarts >= 1
        assert len(daemon.handles["net-a"].lives) >= 2
        _reaped(daemon.handles["net-a"])

    def test_poison_batch_degrades_tenant_neighbor_untouched(self, farm):
        """An unhandled exception in one tenant's pipeline crash-loops
        its life into degraded shed mode; the neighbor's run stays a
        strict byte-identical no-op — the same arcs on both placements.

        The poison sits at arrival 30 — inside the first batch of every
        life, before the first checkpoint — so no life ever reports
        progress and the failures count as *consecutive* (progress
        resets the supervisor's restart budget by design)."""
        want = None
        outcomes = {}
        for placement in PLACEMENTS:
            label = f"poison-{placement}"
            bad = _tenant(farm, label, "net-bad", 300, placement=placement)
            good = _tenant(farm, label, "net-good", 300, placement=placement)
            if want is None:
                want = reference_fingerprint(
                    dict(good, workdir=str(farm["root"] / "poison-ref"))
                )
            daemon = ServeDaemon(
                _config(
                    farm, label, [bad, good],
                    faults={
                        "tenant.arrival": {"tenant": "net-bad", "at": 30}
                    },
                )
            )
            assert asyncio.run(daemon.run()) == 0
            bad_arc = supervisor_arc(bad["workdir"])
            assert "restarting" in bad_arc and "degraded" in bad_arc
            assert bad_arc[-1] == "drained"
            # The bulkhead held: the neighbor never saw the blast.
            assert _outcome(good) == (["healthy", "drained"], [], want)
            _reaped(daemon.handles["net-bad"])
            _reaped(daemon.handles["net-good"])
            outcomes[placement] = _outcome(bad)
        assert outcomes["inline"] == outcomes["process"]

    def test_rpc_deadline_timeout_escalates_like_a_death(self, farm):
        """A hung worker (poison batch that spins forever) is detected
        through the RPC progress deadline: the parent kills it, counts
        the failure, and the backoff machine degrades it."""
        tenant = _tenant(
            farm, "hang", "net-a", 300,
            budget={"rpc_deadline": 1.0},
        )
        config = _config(
            farm, "hang", [tenant],
            progress_deadline=60.0,
            faults={
                "tenant.arrival": {
                    "tenant": "net-a", "at": 60, "mode": "hang"
                }
            },
        )
        daemon = ServeDaemon(config)

        async def scenario() -> int:
            run = asyncio.create_task(daemon.run())
            handle = daemon.handles["net-a"]

            async def poked_into_degraded():
                # Health RPCs against a hung worker time out, latching
                # rpc_timed_out — the supervision loop's evidence.
                await handle.health()
                supervisor = daemon.supervisors.get("net-a")
                return (
                    supervisor is not None
                    and supervisor.state == "degraded"
                )

            await _wait(poked_into_degraded, "degraded escalation", run)
            return await run

        assert asyncio.run(scenario()) == 0
        arc = supervisor_arc(tenant["workdir"])
        assert "restarting" in arc and "degraded" in arc
        assert arc[-1] == "drained"
        entries = [
            json.loads(line)
            for line in open(
                os.path.join(tenant["workdir"], "supervisor.jsonl")
            )
            if line.strip()
        ]
        reasons = " ".join(e.get("reason", "") for e in entries)
        assert "no RPC reply" in reasons
        _reaped(daemon.handles["net-a"])


def _budget_series(text: str, tenant: str) -> dict[str, float]:
    """``{series: value}`` of one tenant's ``syslogdigest_budget_*``
    lines in a ``/metrics`` body."""
    label = f'{{tenant="{tenant}"}}'
    series = {}
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name.startswith("syslogdigest_budget_") and name.endswith(label):
            series[name[: -len(label)]] = float(value)
    return series


class TestBudgets:
    def test_breach_sheds_deterministically_never_kills(self, farm):
        def one_run(placement: str) -> tuple:
            tenant = _tenant(
                farm, f"budget-{placement}", "net-a", 300,
                budget={"journal_max_bytes": 2048}, placement=placement,
            )
            daemon = ServeDaemon(
                _config(farm, f"budget-{placement}", [tenant])
            )
            assert asyncio.run(daemon.run()) == 0
            kinds = transition_kinds(tenant["workdir"])
            assert "budget-breach" in kinds
            arc = supervisor_arc(tenant["workdir"])
            assert "degraded" in arc and "restarting" not in arc
            assert arc[-1] == "drained"
            # Degrade, don't kill: the same life finished the run.
            assert daemon.supervisors["net-a"].total_restarts == 0
            assert len(daemon.handles["net-a"].lives) == 1
            _reaped(daemon.handles["net-a"])
            # /metrics after the drain: the drained life's last health.
            metrics = asyncio.run(daemon.api.metrics_text())
            return _outcome(tenant), _budget_series(metrics, "net-a")

        first, budgets = one_run("inline")
        # The budget series come from the tenant's health, published
        # parent-side for both placements.
        assert budgets["syslogdigest_budget_breached"] == 1
        assert budgets["syslogdigest_budget_over_budget"] == 1
        assert budgets["syslogdigest_budget_journal_max_bytes"] == 2048
        assert budgets["syslogdigest_budget_journal_bytes"] > 2048
        # Deterministic shed: same input, same breach, same bytes out —
        # on the other placement too.
        assert one_run("process") == (first, budgets)


def _labelled_series(text: str) -> dict[tuple[str, str, str], float]:
    """``{(name, tenant, source): value}`` of every ``tenant=``-labelled
    line of a ``/metrics`` body (``source`` is ``""`` when absent)."""
    series = {}
    for line in text.splitlines():
        match = re.fullmatch(r"(\w+)\{(.*)\} (\S+)", line)
        if match is None:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match[2]))
        if "tenant" in labels:
            key = (match[1], labels["tenant"], labels.get("source", ""))
            series[key] = float(match[3])
    return series


class TestMetrics:
    def test_both_placements_publish_the_same_health_series(self, farm):
        """``/metrics`` carries one ``tenant=``-labelled health series
        set per tenant, whatever its placement, and once the daemon is
        quiescent every value is the one ``/tenants/<id>/health``
        reports."""
        tenants = [
            _tenant(farm, "metrics", "net-in", 300, placement="inline"),
            _tenant(farm, "metrics", "net-proc", 300, placement="process"),
        ]
        daemon = ServeDaemon(_config(farm, "metrics", tenants, once=False))

        async def scenario():
            run = asyncio.create_task(daemon.run())
            for name in ("net-in", "net-proc"):
                await _wait(
                    lambda: _pushed(daemon.handles[name], 300),
                    f"{name} consumed", run,
                )
            request = b"GET /metrics HTTP/1.0\r\n\r\n"
            status, metrics, _ = await daemon.api._dispatch(request)
            assert status == 200
            healths = {}
            for name in ("net-in", "net-proc"):
                request = f"GET /tenants/{name}/health HTTP/1.0\r\n\r\n"
                _, body, _ = await daemon.api._dispatch(request.encode())
                healths[name] = json.loads(body)
            daemon.request_drain()
            return await run, metrics, healths

        code, metrics, healths = asyncio.run(scenario())
        assert code == 0
        series = _labelled_series(metrics)
        sections = {
            "stream": HEALTH_KEYS,
            "ingest": INGEST_HEALTH_KEYS,
            "budget": BUDGET_HEALTH_KEYS,
        }
        names = {}
        for name, health in healths.items():
            assert health["placement"] == daemon.handles[name].placement
            assert health["pending_arrivals"] == 0
            mine = {
                key: value for key, value in series.items()
                if key[1] == name
            }
            names[name] = {
                metric for metric, _, _ in mine
                if metric.split("_")[1] in (*sections, "source")
            }
            for section, table in sections.items():
                assert {
                    metric for metric in names[name]
                    if metric.startswith(f"syslogdigest_{section}_")
                } == {f"syslogdigest_{section}_{key}" for key in table}
            want = {}
            for section, key in (
                ("stream", "stream"), ("ingest", "ingest"),
                ("budget", "budgets"),
            ):
                for field, value in health[key].items():
                    if isinstance(value, list):
                        value = len(value)
                    want[(f"syslogdigest_{section}_{field}", name, "")] = value
            for row in health["sources"]:
                for field, value in row.items():
                    if field == "state":
                        value = BREAKER_STATES.index(value)
                    if field == "tail_inode":
                        continue  # an identifier, not a gauge
                    if isinstance(value, (int, float)):
                        metric = f"syslogdigest_source_{field}"
                        want[(metric, name, row["source"])] = value
            # Read on the monotonic clock at each request: never equal.
            age = ("syslogdigest_stream_checkpoint_age_seconds", name, "")
            assert mine.pop(age) >= 0 and want.pop(age) >= 0
            assert {
                key: value for key, value in mine.items() if key in want
            } == want
            assert any(metric == "syslogdigest_source_admitted"
                       for metric, _, _ in want)
        assert names["net-in"] == names["net-proc"]
        # Identifiers stay in the health JSON and out of /metrics.
        assert healths["net-proc"]["worker_pid"] > 0
        assert healths["net-proc"]["sources"][0]["tail_inode"] > 0
        for metric in (
            "syslogdigest_tenant_worker_pid",
            "syslogdigest_tenant_kb_version",
            "syslogdigest_source_tail_inode",
        ):
            assert metric not in metrics


class TestDrain:
    def test_hung_worker_is_escalated_but_daemon_exits_zero(self, farm):
        bad = _tenant(farm, "drain", "net-bad", 100)
        good = _tenant(farm, "drain", "net-good", 200)
        want = reference_fingerprint(
            dict(good, workdir=str(farm["root"] / "drain" / "ref"))
        )
        config = _config(
            farm, "drain", [bad, good],
            once=False,
            drain_deadline=1.0,
            progress_deadline=60.0,
            faults={
                "tenant.arrival": {
                    "tenant": "net-bad", "at": 0, "mode": "hang"
                }
            },
        )
        daemon = ServeDaemon(config)

        async def scenario() -> int:
            run = asyncio.create_task(daemon.run())
            good_handle = daemon.handles["net-good"]
            await _wait(
                lambda: _pushed(good_handle, 200), "neighbor caught up", run
            )
            await _wait(
                lambda: daemon.supervisors["net-bad"].state == "healthy",
                "hung tenant started", run,
            )
            # The hang arms within one poll interval of `started`; give
            # it comfortably more before asking for the drain.
            await asyncio.sleep(0.75)
            daemon.request_drain()
            return await run

        assert asyncio.run(scenario()) == 0
        assert "drain-escalated" in transition_kinds(bad["workdir"])
        assert supervisor_arc(good["workdir"]) == ["healthy", "drained"]
        assert tenant_fingerprint(good["workdir"]) == want
        # Concurrent drain reaps every child — SIGKILLed or graceful.
        _reaped(daemon.handles["net-bad"])
        _reaped(daemon.handles["net-good"])


class TestControlPlane:
    def test_idle_tenant_polled_faster_than_poll_interval_refills(
        self, farm
    ):
        """An idle worker answering requests that arrive less than
        ``poll_interval`` apart must still reach ``refill()``: it used
        to loop straight back to the frame poll after every reply, so
        its own control plane starved it of new lines."""
        messages = farm["messages"]
        tenant = _tenant(farm, "starve", "net-a", 200)
        config = _config(
            farm, "starve", [tenant], once=False, poll_interval=0.5
        )
        daemon = ServeDaemon(config)

        async def scenario():
            run = asyncio.create_task(daemon.run())
            handle = daemon.handles["net-a"]
            await _wait(
                lambda: _pushed(handle, 200), "phase-1 consumed", run
            )
            with open(tenant["sources"][0], "a", encoding="utf-8") as fh:
                for message in messages[200:300]:
                    fh.write(format_line(message) + "\n")
            advanced = False
            deadline = time.monotonic() + 10.0
            while not advanced and time.monotonic() < deadline:
                advanced = await _pushed(handle, 300)
                await asyncio.sleep(0.01)  # far inside poll_interval
            daemon.request_drain()
            return await run, advanced

        code, advanced = asyncio.run(scenario())
        assert advanced, "polled tenant never picked up appended lines"
        assert code == 0
        _reaped(daemon.handles["net-a"])

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_idle_wait_is_live_poll_while_input_flows(self, farm, placement):
        """The one idle-wait rule: ``poll_interval`` from boot on an empty
        source, :data:`LIVE_POLL` after a step that found input, and
        ``poll_interval`` again after ⌈poll_interval / LIVE_POLL⌉ empty
        steps — counted in steps, so it needs no clock."""
        label = f"idle-wait-{placement}"
        tenant = _tenant(farm, label, "net-a", 0, placement=placement)
        poll_interval = 0.05
        init = {
            "spec": tenant, "degraded": False, "once": False,
            "poll_interval": poll_interval, "faults": None,
        }
        life = TenantLife(init, lambda note: None, pid=None)
        life.boot()
        try:
            assert life.idle_wait() == poll_interval
            assert not life.step()
            assert life.idle_wait() == poll_interval
            with open(tenant["sources"][0], "a", encoding="utf-8") as fh:
                for message in farm["messages"][:100]:
                    fh.write(format_line(message) + "\n")
            assert life.step()
            assert life.idle_wait() == LIVE_POLL
            while life.step():  # the whole feed, then one empty step
                assert life.idle_wait() == LIVE_POLL
            empty_steps = 1
            while empty_steps < math.ceil(poll_interval / LIVE_POLL):
                assert life.idle_wait() == LIVE_POLL
                assert not life.step()
                empty_steps += 1
            assert life.idle_wait() == poll_interval
        finally:
            life.runtime.halt()
            life.runtime.events.close()

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_live_tenant_reads_an_appended_line_at_once(
        self, farm, placement
    ):
        """A tenant whose source holds lines at boot is live: a line
        appended once it has pushed them and found its source quiet is
        pushed within ~LIVE_POLL, not after the 30 s ``poll_interval``.
        Progress is read from the batch notes, so no request wakes the
        worker early."""
        messages = farm["messages"]
        label = f"live-{placement}"
        tenant = _tenant(farm, label, "net-a", 100, placement=placement)
        daemon = ServeDaemon(
            _config(farm, label, [tenant], once=False, poll_interval=30.0)
        )

        async def scenario():
            run = asyncio.create_task(daemon.run())
            await _wait(
                lambda: daemon._n_arrivals >= 100, "boot lines pushed", run
            )
            await asyncio.sleep(0.1)  # the tenant finds nothing, waits
            with open(tenant["sources"][0], "a", encoding="utf-8") as fh:
                fh.write(format_line(messages[100]) + "\n")
            appended = time.monotonic()
            deadline = appended + 2.0
            while daemon._n_arrivals < 101 and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
            pushed = daemon._n_arrivals
            daemon.request_drain()
            return await run, pushed

        code, pushed = asyncio.run(scenario())
        assert pushed == 101, (placement, pushed)
        assert code == 0
        _reaped(daemon.handles["net-a"])


class TestLongPoll:
    def test_wakes_on_append_and_bounds_waiters(self, farm):
        messages = farm["messages"]
        registry = get_registry()
        rejected_before = registry.counter_value(
            SERVE_HTTP_REJECTED, reason="waiters"
        )

        def one_run(placement: str) -> tuple:
            label = f"longpoll-{placement}"
            tenant = _tenant(farm, label, "net-a", 300, placement=placement)
            config = _config(
                farm, label, [tenant],
                once=False,
                http={"max_longpoll_waiters": 1},
            )
            daemon = ServeDaemon(config)

            async def scenario():
                run = asyncio.create_task(daemon.run())
                handle = daemon.handles["net-a"]
                await _wait(
                    lambda: daemon.api.port is not None, "http bind", run
                )
                await _wait(
                    lambda: _pushed(handle, 300), "phase-1 consumed", run
                )
                total = await _total(handle)
                poll = asyncio.create_task(
                    _http_get(
                        daemon.api.port,
                        f"/tenants/net-a/events?cursor={total}&wait=30",
                    )
                )
                await _wait(
                    lambda: daemon._event_waiters.get("net-a"),
                    "waiter parked", run,
                )
                # Waiter budget is 1: the second long-poll is refused.
                status_429, _ = await _http_get(
                    daemon.api.port,
                    f"/tenants/net-a/events?cursor={total}&wait=30",
                )
                with open(tenant["sources"][0], "a", encoding="utf-8") as fh:
                    for message in messages[300:]:
                        fh.write(format_line(message) + "\n")
                status, body = await poll
                daemon.request_drain()
                code = await run
                return code, total, status, body, status_429

            code, total, status, body, status_429 = asyncio.run(scenario())
            assert code == 0
            assert status_429 == 429
            assert status == 200
            page = json.loads(body)
            assert page["events"], "long-poll returned without fresh events"
            assert page["events"][0]["cursor"] == total
            return _outcome(tenant)

        outcomes = {placement: one_run(placement) for placement in PLACEMENTS}
        assert outcomes["inline"] == outcomes["process"]
        assert outcomes["inline"][:2] == (["healthy", "drained"], [])
        assert (
            registry.counter_value(SERVE_HTTP_REJECTED, reason="waiters")
            >= rejected_before + len(PLACEMENTS)
        )


class TestHttpHardening:
    def test_deadline_header_and_body_bounds(self, farm):
        tenant = _tenant(
            farm, "harden", "net-a", 1, placement="inline"
        )
        config = _config(
            farm, "harden", [tenant],
            http={
                "read_deadline": 0.3,
                "max_header_bytes": 256,
                "max_body_bytes": 512,
            },
        )
        daemon = ServeDaemon(config)
        registry = get_registry()
        before = {
            reason: registry.counter_value(
                SERVE_HTTP_REJECTED, reason=reason
            )
            for reason in ("deadline", "headers", "body")
        }

        async def scenario():
            await daemon.api.start("127.0.0.1", 0)
            port = daemon.api.port
            try:
                # Slowloris: the head never finishes inside the deadline.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"GET /hea")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                slow = int(raw.split(b" ")[1])

                # Oversized head: 1 KiB of header against a 256 B bound.
                padding = "X-Pad: " + "y" * 1024 + "\r\n"
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET /healthz HTTP/1.0\r\n{padding}\r\n".encode()
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                big_head = int(raw.split(b" ")[1])

                # Declared body over budget.
                status_body, _ = await _http_get_with(
                    port, "Content-Length: 4096"
                )
                return slow, big_head, status_body
            finally:
                await daemon.api.stop()

        async def _http_get_with(port, header):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(
                f"POST /drain HTTP/1.0\r\n{header}\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return int(raw.split(b" ")[1]), raw

        slow, big_head, status_body = asyncio.run(scenario())
        assert slow == 408
        assert big_head == 431
        assert status_body == 413
        for reason in ("deadline", "headers", "body"):
            assert (
                registry.counter_value(SERVE_HTTP_REJECTED, reason=reason)
                > before[reason]
            ), f"rejection {reason!r} was not counted"


class TestInlinePump:
    def test_drain_wakes_an_idle_pump(self, farm):
        """``request_drain`` must not ride out an idle wait — neither the
        tenant's 30 s ``poll_interval`` nor the watch loop's 1 s note
        timeout: the tenant is told to drain at once, on both
        placements."""
        for placement in PLACEMENTS:
            label = f"idle-drain-{placement}"
            tenant = _tenant(farm, label, "net-a", 100, placement=placement)
            daemon = ServeDaemon(
                _config(farm, label, [tenant], once=False, poll_interval=30.0)
            )
            handle = daemon.handles["net-a"]
            told = []
            drain = handle.drain

            async def drain_now(timeout: float) -> None:
                told.append(time.monotonic())
                await drain(timeout)

            handle.drain = drain_now

            async def scenario() -> tuple[float, float]:
                run = asyncio.create_task(daemon.run())
                await _wait(
                    lambda: _pushed(handle, 100), "ingest of every line", run
                )
                await asyncio.sleep(0.1)  # the tenant finds nothing, idles
                asked = time.monotonic()
                daemon.request_drain()
                assert await asyncio.wait_for(run, timeout=10.0) == 0
                return told[0] - asked, time.monotonic() - asked

            to_drain, to_exit = asyncio.run(scenario())
            assert to_drain < 0.25, (placement, to_drain)
            assert to_exit < 3.0, (placement, to_exit)
            assert supervisor_arc(tenant["workdir"]) == ["healthy", "drained"]

    def test_checkpoint_without_tail_cursors(self, farm):
        """Nothing consumed yet: fresh tailers.  Arrivals consumed: the
        byte offsets behind them were never recorded, so the checkpoint
        is refused and journaled — never a whole-file re-read."""
        tenant = _tenant(farm, "no-cursors", "net-a", 120, placement="inline")
        spec = TenantSpec.from_dict(tenant)

        def checkpoint_without_cursors(n_pushed: int) -> None:
            first = TenantRuntime(spec)
            first.start()
            first.ingest.attach_tails(None)
            first.process_batch(limit=n_pushed)
            first.checkpoint()
            first.halt()

        checkpoint_without_cursors(0)
        resumed = TenantRuntime(spec)
        resumed.start()
        assert resumed.resumed and resumed.pending == 120
        resumed.halt()

        checkpoint_without_cursors(70)
        with pytest.raises(ValueError, match="no tail cursors"):
            TenantRuntime(spec).start()
        daemon = ServeDaemon(_config(farm, "no-cursors", [tenant]))
        assert asyncio.run(daemon.run()) == 0
        assert supervisor_arc(tenant["workdir"])[-1] == "failed"
        journal = open(
            os.path.join(tenant["workdir"], "supervisor.jsonl")
        ).read()
        assert "no tail cursors" in journal


class TestCodec:
    def test_replies_and_notes_survive_the_codec(self, farm):
        """The inline transport hands dicts over without the RPC codec;
        every reply and note of a life must therefore be exactly what a
        worker's frames would carry: ``encode_frame`` → ``decode_payload``
        gives back an equal object.  The budget makes the life emit
        every note kind a clean run can."""
        tenant = _tenant(
            farm, "codec", "net-a", 300, placement="inline",
            budget={"journal_max_bytes": 2048},
        )
        init = {
            "spec": tenant, "degraded": False, "once": True,
            "poll_interval": 0.05, "faults": None,
        }
        commands = [
            ("ping", {}), ("health", {}), ("sources", {}), ("journal", {}),
            ("events", {"cursor": 0, "limit": 500}), ("requeue", {}),
            ("drain", {}),
        ]

        async def scenario():
            life = await InlineLife.spawn(init)
            notes = []
            while not notes or notes[-1]["kind"] != "exhausted":
                notes.append(
                    await asyncio.wait_for(life.notes.get(), WAIT_TIMEOUT)
                )
            replies = [
                await life.request(cmd, args, timeout=WAIT_TIMEOUT)
                for cmd, args in commands
            ]
            await life.reap()
            return notes, replies

        notes, replies = asyncio.run(scenario())
        assert {note["kind"] for note in notes} == {
            "started", "batch", "budget", "exhausted"
        }
        assert replies[-1]["health"]["sources"] == replies[2]
        for message in notes + replies:
            assert decode_payload(encode_frame(message)[4:]) == message
