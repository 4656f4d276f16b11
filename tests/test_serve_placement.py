"""Bulkhead placement: worker processes, budgets, long-poll, hardening.

In-process :class:`~repro.serve.daemon.ServeDaemon` scenarios (real
worker subprocesses, no CLI wrapper) for the DESIGN.md §15 contracts:

* a clean ``placement = "process"`` run is ``stream_fingerprint``
  byte-identical to the inline pipeline over the same data;
* the supervisor restart-backoff machine runs unchanged on worker
  death — SIGKILL, an unhandled pipeline exception, and an RPC
  progress-deadline timeout all restart from the latest checkpoint and
  escalate to degraded shed mode after ``max_restarts``;
* a budget breach degrades deterministically — journaled, metered,
  never killed — and a drain that a hung worker cannot honor is
  SIGKILL-escalated after its deadline while the daemon still exits 0
  with every child reaped;
* long-poll event subscriptions wake on append and are bounded (429),
  and the HTTP head/body/deadline hardening answers 408/431/413;
* the inline pump: a drain wakes it out of its idle wait, and a
  checkpoint it cannot resume from is refused and journaled.

Run via ``make placement`` (the cross-process smoke gate lives in
``tests/test_placement_smoke.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.netsim.chaos import (
    reference_fingerprint,
    supervisor_arc,
    tenant_fingerprint,
    transition_kinds,
)
from repro.obs import (
    BUDGET_BREACHES,
    BUDGET_USED,
    OVER_BUDGET,
    SERVE_HTTP_REJECTED,
    get_registry,
)
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.tenant import TenantRuntime, TenantSpec
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
    assert handle.procs, "no worker was ever spawned"
    for proc in handle.procs:
        assert proc.returncode is not None, "worker left unreaped (zombie)"


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
            pid = handle.client.pid
            os.kill(pid, signal.SIGKILL)
            await _wait(
                lambda: handle.alive and handle.client.pid != pid,
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
        assert len(daemon.handles["net-a"].procs) >= 2
        _reaped(daemon.handles["net-a"])

    def test_poison_batch_degrades_tenant_neighbor_untouched(self, farm):
        """An unhandled exception in one tenant's pipeline crash-loops
        its worker into degraded shed mode; the neighbor's run stays a
        strict byte-identical no-op.

        The poison sits at arrival 30 — inside the first batch of every
        life, before the first checkpoint — so no life ever reports
        progress and the failures count as *consecutive* (progress
        resets the supervisor's restart budget by design)."""
        bad = _tenant(farm, "poison", "net-bad", 300)
        good = _tenant(farm, "poison", "net-good", 300)
        want = reference_fingerprint(
            dict(good, workdir=str(farm["root"] / "poison" / "ref"))
        )
        daemon = ServeDaemon(
            _config(
                farm, "poison", [bad, good],
                pump_fault={
                    "kind": "pump_poison",
                    "tenant": "net-bad",
                    "at": 30,
                },
            )
        )
        assert asyncio.run(daemon.run()) == 0
        bad_arc = supervisor_arc(bad["workdir"])
        assert "restarting" in bad_arc and "degraded" in bad_arc
        assert bad_arc[-1] == "drained"
        # The bulkhead held: the neighbor never saw the blast.
        assert supervisor_arc(good["workdir"]) == ["healthy", "drained"]
        assert transition_kinds(good["workdir"]) == []
        assert tenant_fingerprint(good["workdir"]) == want
        _reaped(daemon.handles["net-bad"])
        _reaped(daemon.handles["net-good"])

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
            pump_fault={
                "kind": "pump_poison",
                "tenant": "net-a",
                "at": 60,
                "mode": "hang",
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


class TestBudgets:
    def test_breach_sheds_deterministically_never_kills(self, farm):
        registry = get_registry()
        before = registry.counter_value(BUDGET_BREACHES, tenant="net-a")

        def one_run(label: str) -> str:
            tenant = _tenant(
                farm, label, "net-a", 300,
                budget={"journal_max_bytes": 2048},
            )
            daemon = ServeDaemon(_config(farm, label, [tenant]))
            assert asyncio.run(daemon.run()) == 0
            kinds = transition_kinds(tenant["workdir"])
            assert "budget-breach" in kinds
            arc = supervisor_arc(tenant["workdir"])
            assert "degraded" in arc and "restarting" not in arc
            assert arc[-1] == "drained"
            # Degrade, don't kill: the same worker life finished the run.
            assert daemon.supervisors["net-a"].total_restarts == 0
            assert len(daemon.handles["net-a"].procs) == 1
            _reaped(daemon.handles["net-a"])
            return tenant_fingerprint(tenant["workdir"])

        first = one_run("budget-1")
        # Budget metrics are published parent-side, for both placements.
        assert (
            registry.counter_value(BUDGET_BREACHES, tenant="net-a") > before
        )
        assert registry.gauge_value(OVER_BUDGET, tenant="net-a") == 1.0
        assert (
            registry.gauge_value(
                BUDGET_USED, tenant="net-a", budget="journal_bytes"
            )
            > 2048
        )
        # Deterministic shed: same input, same breach, same bytes out.
        assert one_run("budget-2") == first


    def test_stream_proc_budget_clamps_the_all_cores_knob(
        self, farm, monkeypatch
    ):
        """``n_workers=0`` resolves to one shard per core *before* the
        ``max_stream_procs`` clamp — the raw 0 used to slip under it."""
        from repro.core import shards
        from repro.serve.tenant import TenantRuntime, TenantSpec

        monkeypatch.setattr(shards.os, "cpu_count", lambda: 3)
        tenant = _tenant(
            farm, "budget-procs", "net-a", 120,
            n_workers=0, stream_workers="processes", placement="inline",
            budget={"max_stream_procs": 2},
        )
        runtime = TenantRuntime(TenantSpec.from_dict(tenant))
        runtime.start()
        try:
            assert runtime.stream.stream_lane == "processes"
            assert len(runtime.stream.snapshot()["shards"]) == 2
            assert runtime.budget_health()["stream_procs"] == 2
            assert "budget-clamped" in transition_kinds(tenant["workdir"])
        finally:
            runtime.drain()


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
            pump_fault={
                "kind": "pump_poison",
                "tenant": "net-bad",
                "at": 0,
                "mode": "hang",
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


class TestLongPoll:
    def test_wakes_on_append_and_bounds_waiters(self, farm):
        messages = farm["messages"]
        tenant = _tenant(
            farm, "longpoll", "net-a", 300, placement="inline"
        )
        config = _config(
            farm, "longpoll", [tenant],
            once=False,
            http={"max_longpoll_waiters": 1},
        )
        daemon = ServeDaemon(config)
        registry = get_registry()
        rejected_before = registry.counter_value(
            SERVE_HTTP_REJECTED, reason="waiters"
        )

        async def scenario():
            run = asyncio.create_task(daemon.run())
            handle = daemon.handles["net-a"]
            await _wait(
                lambda: daemon.api.port is not None, "http bind", run
            )
            await _wait(
                lambda: _pushed(handle, 300), "phase-1 consumed", run
            )
            total = len(daemon.tenants["net-a"].events)
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
        assert (
            registry.counter_value(SERVE_HTTP_REJECTED, reason="waiters")
            > rejected_before
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
        """``request_drain`` must not ride out the idle wait: with a
        30 s ``poll_interval`` the drain still completes in a fraction
        of it."""
        tenant = _tenant(farm, "idle-drain", "net-a", 100, placement="inline")
        daemon = ServeDaemon(
            _config(
                farm, "idle-drain", [tenant], once=False, poll_interval=30.0
            )
        )
        runtime = daemon.tenants["net-a"]

        async def scenario() -> float:
            run = asyncio.create_task(daemon.run())
            await _wait(
                lambda: runtime.ingest is not None
                and sum(runtime.ingest.pushed_counts().values()) == 100,
                "ingest of every line", run,
            )
            await asyncio.sleep(0.1)  # the pump finds nothing, goes idle
            asked = time.monotonic()
            daemon.request_drain()
            assert await asyncio.wait_for(run, timeout=10.0) == 0
            return time.monotonic() - asked

        assert asyncio.run(scenario()) < 3.0
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
