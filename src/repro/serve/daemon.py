"""The `repro serve` daemon: supervised multi-tenant digesting (DESIGN.md §13).

One asyncio process serves many tenants.  Each tenant gets one
*supervise* task that runs the :class:`~repro.serve.supervisor.Supervisor`
state machine over a succession of tenant *lives*
(:mod:`repro.serve.placement`), whatever their placement: a life that
dies or stalls past its progress deadline is killed and restarted from
the tenant's latest checkpoint after a bounded exponential backoff;
after ``max_restarts`` consecutive failures the tenant is restarted once
more in degraded (shed) mode and left running.

SIGTERM/SIGINT request a graceful drain: every life stops intake at
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
         "checkpoint_every": 200}
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
    PLACEMENT_WORKER_DEATHS,
    PLACEMENT_WORKERS,
    SERVE_LONGPOLL_WAITERS,
    get_registry,
)
from repro.utils import inject

from .http import HttpApi
from .journal import TransitionJournal
from .placement import InlineLife, TenantHandle, WorkerClient
from .rpc import RpcClosed, RpcError, RpcTimeout
from .supervisor import Supervisor
from .tenant import SUPERVISOR_FILE, TenantSpec, reject_unknown_keys

PORT_FILE = "http.port"


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


def _transport(spec: TenantSpec):
    """What a life of this tenant runs on: the one reader of placement."""
    return WorkerClient if spec.placement == "process" else InlineLife


@dataclass(frozen=True)
class ServeConfig:
    """Whole-daemon configuration (JSON round-trippable)."""

    tenants: tuple[TenantSpec, ...]
    host: str = "127.0.0.1"
    port: int = 0
    workdir: str = "."
    # A tenant's idle poll: how often a tenant with no input looks at its
    # sources.  While its feed flows it polls every placement.LIVE_POLL
    # instead (TenantLife.idle_wait owns the rule for both placements).
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
    # Fault injection for the smoke and chaos gates: the JSON form of
    # repro.utils.inject.from_dict, armed in this process and in every
    # process-placement worker's init frame.  None = off.
    faults: dict | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("serve config needs >= 1 tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        poison = inject.from_dict(self.faults).get(inject.TENANT_ARRIVAL)
        for spec in self.tenants:
            if (poison is not None and poison.hangs(spec.name)
                    and _transport(spec) is InlineLife):
                # A hang sleeps on the thread it runs on: on the
                # daemon's loop that stops HTTP, signals and drain.
                raise ValueError(
                    f"faults: a hang poison would freeze the daemon "
                    f"through inline tenant {spec.name!r}"
                )

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


class ServeDaemon:
    """Supervised, drainable, queryable multi-tenant serve loop."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.handles: dict[str, TenantHandle] = {
            spec.name: TenantHandle(spec) for spec in config.tenants
        }
        self.supervisors: dict[str, Supervisor] = {}
        self.api = HttpApi(self)
        self.draining = False
        self._n_arrivals = 0
        self._event_waiters: dict[str, list[asyncio.Future]] = {}

    # --------------------------------------------------------- lifecycle

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; SIGTERM/SIGINT/POST)."""
        self.draining = True
        # Wake every watch loop now, not at its next note or timeout.
        for handle in self.handles.values():
            if handle.life is not None:
                handle.life.notes.put_nowait({"kind": "drain"})
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

    async def run(self) -> int:
        """Serve until drained; returns the process exit code (0).

        The config's ``faults`` block is armed for the whole run.
        """
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_drain)
        workdir = Path(self.config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        with inject.arm(inject.from_dict(self.config.faults)):
            for name, handle in self.handles.items():
                handle.workdir.mkdir(parents=True, exist_ok=True)
                self.supervisors[name] = Supervisor(
                    name,
                    max_restarts=self.config.max_restarts,
                    base_delay=self.config.base_delay,
                    progress_deadline=self.config.progress_deadline,
                    journal=TransitionJournal(
                        handle.workdir / SUPERVISOR_FILE
                    ),
                )
            await self.api.start(self.config.host, self.config.port)
            (workdir / PORT_FILE).write_text(str(self.api.port))
            try:
                await asyncio.gather(
                    *(self._supervise(name) for name in self.handles)
                )
            finally:
                await self.api.stop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(sig)
        return 0

    # -------------------------------------------------------- supervision

    async def _supervise(self, name: str) -> None:
        """One tenant's supervision loop — spawn a life, watch it, then
        restart or drain — the same for both placements."""
        handle = self.handles[name]
        supervisor = self.supervisors[name]
        registry = get_registry()
        degraded = False
        while True:
            try:
                life = await _transport(handle.spec).spawn(
                    {
                        "spec": handle.spec.to_dict(),
                        "degraded": degraded,
                        "once": self.config.once,
                        "poll_interval": self.config.poll_interval,
                        "faults": self.config.faults,
                    }
                )
            except OSError as exc:
                outcome, reason = "spawn", f"spawn failed: {exc}"
            else:
                handle.attach(life)
                registry.set_gauge(PLACEMENT_WORKERS, 1, tenant=name)
                outcome, reason = await self._watch(name, life, degraded)
                handle.life = None
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

    async def _watch(
        self, name: str, life, degraded: bool
    ) -> tuple[str, str]:
        """Follow one life; returns ``(outcome, reason)``.

        Outcomes: ``drained`` (graceful end), or a death reason fed to
        :meth:`Supervisor.on_failure` — ``exit`` (the life died),
        ``stuck`` (pending input, no batch progress past the deadline),
        ``rpc-deadline`` (an RPC to the life timed out — it is hung).
        """
        handle = self.handles[name]
        supervisor = self.supervisors[name]
        watch = max(0.02, min(1.0, supervisor.progress_deadline / 5))
        loop = asyncio.get_running_loop()
        crash = inject.hook(inject.DAEMON_ARRIVAL)
        while True:
            if self.draining:
                return await self._drain(name, life)
            if handle.rpc_timed_out:
                life.kill()
                await life.reap()
                return (
                    "rpc-deadline",
                    f"no RPC reply in {handle.spec.budget.rpc_deadline}s",
                )
            # Not wait_for: its inner task costs a loop turn per note.
            tick = loop.call_later(watch, life.notes.put_nowait, None)
            note = await life.notes.get()
            tick.cancel()
            if note is None:
                if supervisor.stuck(pending=handle.pending > 0):
                    life.kill()
                    await life.reap()
                    return (
                        "stuck",
                        "no batch progress in "
                        f"{supervisor.progress_deadline}s",
                    )
                continue
            kind = note.get("kind")
            if kind in ("closed", "fatal"):  # pipe EOF, or a pipeline error
                code = await life.reap()
                return ("exit", note.get("error", f"worker exited {code}"))
            if kind == "started":
                if degraded:
                    supervisor.note_degraded_started()
                else:
                    supervisor.note_started()
            elif kind == "batch":
                supervisor.note_progress()
                self._n_arrivals += int(note.get("n", 0))
                if crash is not None:
                    crash(self._n_arrivals)
                handle.pending = int(note.get("pending", 0))
                total = int(note.get("events_total", 0))
                if total != handle.events_total:
                    handle.events_total = total
                    self.notify_events(name)
            elif kind == "budget":
                supervisor.note_budget_degraded(
                    list(note.get("breached", []))
                )
            elif kind == "exhausted":  # sent only under ``once``
                return await self._drain(name, life)

    async def _drain(self, name: str, life) -> tuple[str, str]:
        """Graceful shutdown with SIGKILL escalation; drained either way.

        The drain request makes the life flush, final-checkpoint, dump
        its quarantine and reply with its final snapshot, then end.  A
        life that cannot finish inside ``drain_deadline`` is killed
        *after* its last cadence checkpoint is already durable — the
        cost is un-checkpointed progress, i.e. exactly a crash resume,
        never a failed drain.
        """
        handle = self.handles[name]
        deadline = self.config.drain_deadline
        try:
            await handle.drain(timeout=deadline)
            await asyncio.wait_for(life.reap(), timeout=deadline)
        except (RpcError, RpcClosed, RpcTimeout, asyncio.TimeoutError) as exc:
            life.kill()
            await life.reap()
            try:
                TransitionJournal(handle.workdir / SUPERVISOR_FILE).append(
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
