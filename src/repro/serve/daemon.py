"""The `repro serve` daemon: supervised multi-tenant digesting (DESIGN.md §13).

One asyncio process serves many tenants.  Each tenant gets a *pump*
task (read arrivals → push through ingest → journal events →
checkpoint on cadence) wrapped by a *supervise* task that implements
the :class:`~repro.serve.supervisor.Supervisor` state machine: a pump
that dies or stalls past its progress deadline is halted and restarted
from the tenant's latest checkpoint after a bounded exponential
backoff; after ``max_restarts`` consecutive failures the tenant is
restarted once more in degraded (shed) mode and left running.

SIGTERM/SIGINT request a graceful drain: every pump stops intake at
its next batch boundary, reorder buffers are flushed, open groups
finalized, a final checkpoint written, the quarantine dumped under its
rotation budget — then the HTTP server stops and the process exits 0.
kill -9 is the other ending, and the one the smoke gate pins: on the
next boot each tenant restores from its checkpoint + event journal and
produces a digest byte-identical to an uninterrupted run.

Configuration is one JSON document (see :class:`ServeConfig`)::

    {
      "host": "127.0.0.1", "port": 0, "workdir": "serve-state",
      "once": true,
      "supervisor": {"max_restarts": 3, "base_delay": 0.1,
                     "progress_deadline": 30.0},
      "tenants": [
        {"name": "net-a", "sources": ["a1.log", "a2.log"],
         "workdir": "serve-state/net-a", "kb_path": "a.kb",
         "stream_workers": "serial"}
      ]
    }

``port: 0`` binds an ephemeral port; the bound port is written to
``<workdir>/http.port`` so callers (and the smoke harness) can find it.
``once: true`` drains automatically when every tenant's sources are
exhausted — the batch-mode ending used by tests.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass, fields
from pathlib import Path

from repro.obs import (
    BUDGET_BREACHES,
    BUDGET_LIMIT,
    BUDGET_USED,
    OVER_BUDGET,
    PLACEMENT_WORKER_DEATHS,
    PLACEMENT_WORKERS,
    SERVE_LONGPOLL_WAITERS,
    get_registry,
)

from .http import HttpApi
from .journal import TransitionJournal
from .placement import InlineHandle, ProcessHandle, WorkerClient
from .rpc import RpcClosed, RpcError, RpcTimeout
from .supervisor import Supervisor
from .tenant import TenantRuntime, TenantSpec, reject_unknown_keys

PORT_FILE = "http.port"

#: ``{gauge label: (limit key, usage key)}`` into a tenant's
#: ``budget_health()`` dict — what :meth:`ServeDaemon.publish_budgets`
#: mirrors into the BUDGET_LIMIT / BUDGET_USED gauge pairs.
BUDGET_GAUGES = {
    "open_messages": ("max_open_messages", "open_messages"),
    "journal_bytes": ("journal_max_bytes", "journal_bytes"),
    "quarantine_bytes": ("quarantine_max_bytes", "quarantine_records"),
    "stream_procs": ("max_stream_procs", "stream_procs"),
}


#: The nested config blocks: ``{key in the block: ServeConfig field}``.
_SUPERVISOR_KEYS = {
    key: key for key in ("max_restarts", "base_delay", "progress_deadline")
}
_HTTP_KEYS = {
    "read_deadline": "http_read_deadline",
    "max_header_bytes": "http_max_header_bytes",
    "max_body_bytes": "http_max_body_bytes",
    "max_longpoll_waiters": "max_longpoll_waiters",
    "longpoll_max_wait": "longpoll_max_wait",
}


@dataclass(frozen=True)
class ServeConfig:
    """Whole-daemon configuration (JSON round-trippable)."""

    tenants: tuple[TenantSpec, ...]
    host: str = "127.0.0.1"
    port: int = 0
    workdir: str = "."
    poll_interval: float = 0.2
    once: bool = False
    max_restarts: int = 3
    base_delay: float = 0.1
    progress_deadline: float = 30.0
    # Graceful drain: per-tenant deadline for a worker to finish its
    # final checkpoint before the parent escalates to SIGKILL.
    drain_deadline: float = 10.0
    # HTTP hardening (the "http" config block): how long one connection
    # may take to deliver its request head, and how big head/body may be.
    http_read_deadline: float = 10.0
    http_max_header_bytes: int = 16384
    http_max_body_bytes: int = 1 << 20
    # Long-poll event subscriptions: total blocked waiters across all
    # tenants, and the per-request cap on ?wait= seconds.
    max_longpoll_waiters: int = 32
    longpoll_max_wait: float = 30.0
    # Test hook (smoke gate): SIGKILL this process after N arrivals
    # across all tenants, via netsim.faults.DaemonCrash.  0 = off.
    crash_after: int = 0
    # Chaos hook: arm a deterministic disk fault inside this process
    # (netsim.faults.durable_fault_from_dict shape).  None = off.
    # Forwarded to every process-placement worker's init frame.
    fault: dict | None = None
    # Chaos hook: deterministic per-arrival pipeline fault
    # (netsim.faults.pump_fault_from_dict shape, with a "tenant" key).
    pump_fault: dict | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("serve config needs >= 1 tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        data = dict(data)
        for block, keys in (
            ("supervisor", _SUPERVISOR_KEYS),
            ("http", _HTTP_KEYS),
        ):
            values = data.pop(block, {})
            reject_unknown_keys(values, keys, f"serve config {block} block")
            data.update((keys[key], value) for key, value in values.items())
        reject_unknown_keys(
            data, [f.name for f in fields(cls)], "serve config"
        )
        data["tenants"] = tuple(
            TenantSpec.from_dict(item) for item in data.get("tenants", [])
        )
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ServeConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class _PipelineStuck(RuntimeError):
    """Raised by the watchdog when a pump misses its progress deadline."""


class ServeDaemon:
    """Supervised, drainable, queryable multi-tenant serve loop."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.tenants: dict[str, TenantRuntime] = {
            spec.name: TenantRuntime(spec) for spec in config.tenants
        }
        self.handles: dict[str, InlineHandle | ProcessHandle] = {}
        for spec in config.tenants:
            if spec.placement == "process":
                self.handles[spec.name] = ProcessHandle(spec)
            else:
                self.handles[spec.name] = InlineHandle(
                    self.tenants[spec.name]
                )
        self.supervisors: dict[str, Supervisor] = {}
        self.api = HttpApi(self)
        self.draining = False
        # Set with ``draining``: what an idle pump sleeps on, so a drain
        # starts at once instead of after the rest of ``poll_interval``.
        self._drain_requested = asyncio.Event()
        self._crash_hook = None
        self._n_arrivals = 0
        self._event_waiters: dict[str, list[asyncio.Future]] = {}
        self._breach_counts: dict[str, int] = {}
        if config.crash_after > 0:
            from repro.netsim.faults import DaemonCrash

            self._crash_hook = DaemonCrash(after=config.crash_after)
        if config.fault is not None:
            from repro.netsim.faults import durable_fault_from_dict
            from repro.utils.fsio import install_fault_hook

            install_fault_hook(durable_fault_from_dict(config.fault))
        if config.pump_fault is not None:
            from repro.netsim.faults import pump_fault_from_dict

            target = config.pump_fault.get("tenant")
            for spec in config.tenants:
                if spec.placement == "inline" and target in (None, spec.name):
                    self.tenants[spec.name].fault_hook = (
                        pump_fault_from_dict(config.pump_fault)
                    )

    # --------------------------------------------------------- lifecycle

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; SIGTERM/SIGINT/POST)."""
        self.draining = True
        self._drain_requested.set()
        # Long-pollers must not ride out the drain: wake them all so
        # they return their current page and the server can stop.
        for name in list(self._event_waiters):
            self.notify_events(name)

    # ---------------------------------------------------- event long-poll

    def register_event_waiter(self, name: str) -> asyncio.Future | None:
        """A future resolved at the tenant's next journal append.

        Returns ``None`` when the daemon-wide waiter budget is spent —
        the caller answers 429 instead of parking one more connection.
        """
        total = sum(len(w) for w in self._event_waiters.values())
        if total >= self.config.max_longpoll_waiters:
            return None
        future = asyncio.get_running_loop().create_future()
        self._event_waiters.setdefault(name, []).append(future)
        self._set_waiter_gauge(name)
        return future

    def unregister_event_waiter(self, name: str, future) -> None:
        waiters = self._event_waiters.get(name, [])
        if future in waiters:
            waiters.remove(future)
        self._set_waiter_gauge(name)

    def notify_events(self, name: str) -> None:
        """Wake every long-poller blocked on this tenant's journal."""
        for future in self._event_waiters.pop(name, []):
            if not future.done():
                future.set_result(True)
        self._set_waiter_gauge(name)

    def _set_waiter_gauge(self, name: str) -> None:
        get_registry().set_gauge(
            SERVE_LONGPOLL_WAITERS,
            len(self._event_waiters.get(name, [])),
            tenant=name,
        )

    # ------------------------------------------------------ budget mirror

    def publish_budgets(self, name: str, budgets: dict) -> None:
        """Mirror one tenant's ``budget_health()`` into the registry.

        Runs parent-side for *both* placements (a worker's own registry
        is invisible here), so ``/metrics`` always carries the budget
        series.  Breaches arrive as the tenant's cumulative breach
        list; the counter is bumped by the delta since last publish.
        """
        registry = get_registry()
        for label, (limit_key, used_key) in BUDGET_GAUGES.items():
            registry.set_gauge(
                BUDGET_LIMIT, budgets[limit_key], tenant=name, budget=label
            )
            registry.set_gauge(
                BUDGET_USED, budgets[used_key], tenant=name, budget=label
            )
        registry.set_gauge(
            OVER_BUDGET, budgets["over_budget"], tenant=name
        )
        breached = budgets.get("breached", [])
        seen = self._breach_counts.get(name, 0)
        if len(breached) > seen:
            registry.inc(
                BUDGET_BREACHES, len(breached) - seen, tenant=name
            )
            self._breach_counts[name] = len(breached)
        elif len(breached) < seen:
            # A restart reset the tenant's per-life breach list; track
            # the new life so its re-breaches count again.
            self._breach_counts[name] = len(breached)

    async def run(self) -> int:
        """Serve until drained; returns the process exit code (0)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_drain)
        workdir = Path(self.config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for runtime in self.tenants.values():
            runtime.workdir.mkdir(parents=True, exist_ok=True)
        for spec in self.config.tenants:
            self.supervisors[spec.name] = Supervisor(
                spec.name,
                max_restarts=self.config.max_restarts,
                base_delay=self.config.base_delay,
                progress_deadline=self.config.progress_deadline,
                journal=TransitionJournal(
                    self.tenants[spec.name].supervisor_path
                ),
            )
        await self.api.start(self.config.host, self.config.port)
        (workdir / PORT_FILE).write_text(str(self.api.port))
        try:
            await asyncio.gather(
                *(
                    self._supervise(name)
                    for name in self.tenants
                )
            )
        finally:
            await self.api.stop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
        return 0

    # -------------------------------------------------------- supervision

    async def _supervise(self, name: str) -> None:
        """One tenant's supervision loop: pump, watch, restart, drain."""
        runtime = self.tenants[name]
        if runtime.spec.placement == "process":
            await self._supervise_process(name)
            return
        supervisor = self.supervisors[name]
        watch = max(0.02, min(1.0, supervisor.progress_deadline / 5))
        degraded = False
        while True:
            pump = asyncio.ensure_future(self._pump(name, degraded))
            try:
                while not pump.done():
                    await asyncio.wait({pump}, timeout=watch)
                    if pump.done():
                        break
                    if supervisor.stuck(pending=runtime.pending > 0):
                        pump.cancel()
                        try:
                            await pump
                        except BaseException:
                            pass
                        raise _PipelineStuck(
                            f"no batch progress in "
                            f"{supervisor.progress_deadline}s"
                        )
                pump.result()  # re-raises the pipeline's exception
                break  # clean exit: drain requested or sources exhausted
            except asyncio.CancelledError:
                pump.cancel()
                raise
            except Exception as exc:
                runtime.halt()
                decision = supervisor.on_failure(
                    f"{type(exc).__name__}: {exc}"
                )
                if decision.action == "fail":
                    return
                if decision.action == "degrade":
                    degraded = True
                await asyncio.sleep(decision.delay)
        runtime.drain()
        supervisor.note_drained()

    async def _pump(self, name: str, degraded: bool) -> None:
        """One life of a tenant pipeline: boot, then batch until done."""
        runtime = self.tenants[name]
        supervisor = self.supervisors[name]
        runtime.start(degraded=degraded)
        if degraded:
            supervisor.note_degraded_started()
        else:
            supervisor.note_started()
        events_seen = len(runtime.events)
        breaches_seen = len(runtime.budget_breached)
        while not self.draining:
            n = runtime.process_batch()
            if n:
                supervisor.note_progress()
                self._count_arrivals(n)
                if len(runtime.events) != events_seen:
                    events_seen = len(runtime.events)
                    self.notify_events(name)
                self.publish_budgets(name, runtime.budget_health())
                if len(runtime.budget_breached) > breaches_seen:
                    fresh = runtime.budget_breached[breaches_seen:]
                    breaches_seen = len(runtime.budget_breached)
                    supervisor.note_budget_degraded(fresh)
                await asyncio.sleep(0)  # yield to HTTP handlers
            elif runtime.refill() == 0:
                if self.config.once:
                    return
                try:
                    await asyncio.wait_for(
                        self._drain_requested.wait(),
                        self.config.poll_interval,
                    )
                except asyncio.TimeoutError:
                    pass

    def _count_arrivals(self, n: int) -> None:
        self._n_arrivals += n
        if self._crash_hook is not None:
            self._crash_hook(self._n_arrivals)

    # ------------------------------------------------- process placement

    def _worker_init(self, spec: TenantSpec, degraded: bool) -> dict:
        """The ``init`` frame a freshly spawned worker boots from."""
        return {
            "spec": spec.to_dict(),
            "degraded": degraded,
            "once": self.config.once,
            "poll_interval": self.config.poll_interval,
            "fault": self.config.fault,
            "pump_fault": self.config.pump_fault,
        }

    async def _supervise_process(self, name: str) -> None:
        """Supervision loop for a ``placement = "process"`` tenant.

        Same state machine as the inline path — the Supervisor cannot
        tell the placements apart — but failure evidence is worker
        death (pipe EOF + ``waitpid``), a ``fatal`` notification, the
        stuck detector over ``batch`` notifications, or a latched RPC
        deadline timeout.  Every spawned child is reaped on every path.
        """
        spec = self.tenants[name].spec
        handle = self.handles[name]
        supervisor = self.supervisors[name]
        registry = get_registry()
        degraded = False
        while True:
            try:
                client = await WorkerClient.spawn(
                    self._worker_init(spec, degraded)
                )
            except OSError as exc:
                outcome, reason = "spawn", f"spawn failed: {exc}"
            else:
                handle.attach(client)
                registry.set_gauge(PLACEMENT_WORKERS, 1, tenant=name)
                outcome, reason = await self._watch_worker(
                    name, handle, client, degraded
                )
                handle.detach()
                registry.set_gauge(PLACEMENT_WORKERS, 0, tenant=name)
            if outcome == "drained":
                supervisor.note_drained()
                self.notify_events(name)
                return
            registry.inc(
                PLACEMENT_WORKER_DEATHS, tenant=name, reason=outcome
            )
            decision = supervisor.on_failure(reason)
            if decision.action == "fail":
                return
            if decision.action == "degrade":
                degraded = True
            await asyncio.sleep(decision.delay)

    async def _watch_worker(
        self, name: str, handle: ProcessHandle, client: WorkerClient,
        degraded: bool,
    ) -> tuple[str, str]:
        """Follow one worker life; returns ``(outcome, reason)``.

        Outcomes: ``drained`` (graceful end), or a death reason fed to
        :meth:`Supervisor.on_failure` — ``exit`` (process died),
        ``stuck`` (pending input, no batch progress past the deadline),
        ``rpc-deadline`` (an RPC to the worker timed out — it is hung).
        """
        spec = self.tenants[name].spec
        supervisor = self.supervisors[name]
        watch = max(0.02, min(1.0, supervisor.progress_deadline / 5))
        exhausted = False
        while True:
            if self.draining or (exhausted and self.config.once):
                return await self._drain_worker(name, client)
            if handle.rpc_timed_out:
                client.kill()
                await client.reap()
                return (
                    "rpc-deadline",
                    f"no RPC reply in {spec.budget.rpc_deadline}s",
                )
            note = await client.channel.next_note(timeout=watch)
            if note is None:
                if supervisor.stuck(pending=handle.pending > 0):
                    client.kill()
                    await client.reap()
                    return (
                        "stuck",
                        "no batch progress in "
                        f"{supervisor.progress_deadline}s",
                    )
                continue
            kind = note.get("kind")
            if kind == "closed":
                code = await client.reap()
                return ("exit", f"worker exited {code}")
            if kind == "fatal":
                await client.reap()
                return ("exit", note.get("error", "worker fatal"))
            if kind == "started":
                if degraded:
                    supervisor.note_degraded_started()
                else:
                    supervisor.note_started()
            elif kind == "batch":
                supervisor.note_progress()
                self._count_arrivals(int(note.get("n", 0)))
                handle.pending = int(note.get("pending", 0))
                total = int(note.get("events_total", 0))
                if total != handle.events_total:
                    handle.events_total = total
                    self.notify_events(name)
                if "budgets" in note:
                    self.publish_budgets(name, note["budgets"])
            elif kind == "budget":
                supervisor.note_budget_degraded(
                    list(note.get("breached", []))
                )
            elif kind == "exhausted":
                exhausted = True
                handle.events_total = int(
                    note.get("events_total", handle.events_total)
                )

    async def _drain_worker(
        self, name: str, client: WorkerClient
    ) -> tuple[str, str]:
        """Graceful worker shutdown with SIGKILL escalation; exits 0 either way.

        The drain RPC makes the worker flush, final-checkpoint, dump
        its quarantine, reply, and exit.  A worker that cannot finish
        inside ``drain_deadline`` is SIGKILLed *after* its last cadence
        checkpoint is already durable — the cost is un-checkpointed
        progress, i.e. exactly a crash resume, never a failed drain.
        """
        deadline = self.config.drain_deadline
        try:
            await client.request("drain", timeout=deadline)
            await asyncio.wait_for(client.proc.wait(), timeout=deadline)
            await client.channel.close()
        except (RpcError, RpcClosed, RpcTimeout, asyncio.TimeoutError) as exc:
            client.kill()
            await client.reap()
            try:
                TransitionJournal(
                    self.tenants[name].supervisor_path
                ).append(
                    {
                        "tenant": name,
                        "kind": "drain-escalated",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            except OSError:
                pass
        return ("drained", "")


def run_daemon(config: ServeConfig) -> int:
    """Blocking entry point used by ``repro serve``."""
    return asyncio.run(ServeDaemon(config).run())
