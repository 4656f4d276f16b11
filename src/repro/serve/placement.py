"""Bulkhead tenant placement: per-tenant worker processes (DESIGN.md §15).

``placement = "inline"`` runs a tenant's pipeline on the daemon's own
event loop — the pre-placement behavior.  ``placement = "process"``
gives the tenant a supervised OS worker process of its own: the worker
owns the *full* stack (tail → ingest → DigestStream → checkpoint /
journal / quarantine) and talks to the parent daemon over the framed
JSON RPC of :mod:`repro.serve.rpc` on its stdin/stdout.  The parent
keeps only the HTTP control plane and the per-tenant
:class:`~repro.serve.supervisor.Supervisor` — so one tenant's crash,
hang, or poison batch cannot disturb its neighbors, and an N-core box
actually digests N tenants concurrently.

Three pieces live here:

* :func:`worker_main` — the worker side.  Boots a
  :class:`~repro.serve.tenant.TenantRuntime` from the ``init`` frame,
  then loops: serve queued RPC commands (health / sources / events /
  journal / promote / rollback / requeue / ping / drain), process one
  batch, emit ``batch`` / ``budget`` / ``exhausted`` notifications.
  EOF on stdin means the parent is gone; the worker dies immediately
  with crash semantics — un-checkpointed progress is discarded exactly
  as a kill -9 would discard it, which is the recovery path the
  fingerprint gate pins.

* :class:`WorkerClient` — the parent side of one worker's pipes:
  spawn, RPC with the tenant's ``rpc_deadline`` budget, kill, reap.

* :class:`InlineHandle` / :class:`ProcessHandle` — the uniform async
  facade the HTTP layer talks to, so routes never branch on placement.
  A :class:`ProcessHandle` whose worker is gone serves events straight
  from the journal file and health from its last-known snapshot — a
  drained or dead worker does not take its tenant's history with it.

Clean runs are ``stream_fingerprint``-byte-identical between the two
placements: the worker executes the very same :class:`TenantRuntime`
methods the inline pump does, in the same order.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from pathlib import Path

from .http import events_page
from .journal import EventJournal, TransitionJournal
from .rpc import (
    FrameError,
    RpcChannel,
    RpcClosed,
    RpcError,
    RpcTimeout,
    poll_frame,
    read_frame,
    write_frame,
)
from .tenant import EVENTS_FILE, SUPERVISOR_FILE, TenantRuntime, TenantSpec

#: ``python -m`` target the parent spawns for each process tenant — a
#: dedicated entry module (`repro.serve.worker`) so runpy never
#: re-executes a module the package already imported.
WORKER_MODULE = "repro.serve.worker"


def _src_root() -> str:
    """The import root holding ``repro`` — propagated to workers."""
    return str(Path(__file__).resolve().parents[2])


# ------------------------------------------------------------ worker side


def _execute(runtime: TenantRuntime, cmd: str, args: dict) -> dict:
    """Run one RPC command against the live runtime; never raises."""
    try:
        if cmd == "ping":
            result = {"pong": True}
        elif cmd == "health":
            health = runtime.health()
            health["worker_pid"] = os.getpid()
            result = health
        elif cmd == "sources":
            result = runtime.ingest.source_summaries()
        elif cmd == "journal":
            result = {
                "supervisor": runtime.transitions.read(),
                "breaker": runtime.ingest.journal(),
            }
        elif cmd == "events":
            result = events_page(
                runtime.events,
                int(args.get("cursor", 0)),
                int(args.get("limit", 50)),
            )
        elif cmd == "promote":
            result = runtime.promote()
        elif cmd == "rollback":
            to = args.get("to")
            result = runtime.rollback(to=int(to) if to is not None else None)
        elif cmd == "requeue":
            result = runtime.requeue()
        else:
            return {"ok": False, "error": f"unknown command {cmd!r}"}
    except Exception as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "result": result}


def worker_main(in_fh, out_fh) -> int:
    """One tenant worker's whole life; returns the process exit code.

    The first frame on stdin is ``init``: the tenant spec, the degraded
    flag for this life, ``once`` / ``poll_interval``, and any armed
    fault dicts.  Everything after is RPC commands, interleaved with
    batch work — commands are polled with a zero timeout while arrivals
    are pending, so admin calls never stall the pipeline and the
    pipeline never starves admin calls.
    """
    try:
        init = read_frame(in_fh)
    except (EOFError, FrameError):
        return 1
    spec = TenantSpec.from_dict(init["spec"])
    once = bool(init.get("once"))
    poll_interval = float(init.get("poll_interval", 0.2))
    if init.get("fault") is not None:
        from repro.netsim.faults import durable_fault_from_dict
        from repro.utils.fsio import install_fault_hook

        install_fault_hook(durable_fault_from_dict(init["fault"]))
    runtime = TenantRuntime(spec)
    pump_fault = init.get("pump_fault")
    if pump_fault and pump_fault.get("tenant") in (None, spec.name):
        from repro.netsim.faults import pump_fault_from_dict

        runtime.fault_hook = pump_fault_from_dict(pump_fault)
    try:
        runtime.start(degraded=bool(init.get("degraded")))
        write_frame(
            out_fh,
            {
                "id": 0,
                "kind": "started",
                "degraded": runtime.degraded,
                "resumed": runtime.resumed,
                "pid": os.getpid(),
            },
        )
        exhausted = False
        breaches_seen = 0
        while True:
            timeout = 0.0 if runtime.pending else poll_interval
            frame = poll_frame(in_fh, timeout)
            if frame is not None:
                cmd = frame.get("cmd")
                rid = frame.get("id", 0)
                if cmd == "drain":
                    flushed = runtime.drain()
                    write_frame(
                        out_fh,
                        {"id": rid, "ok": True,
                         "result": {"flushed": flushed}},
                    )
                    return 0
                reply = _execute(runtime, cmd, frame.get("args") or {})
                reply["id"] = rid
                write_frame(out_fh, reply)
                # Fall through to the pipeline: an idle tenant polled
                # faster than poll_interval must still reach refill().
            n = runtime.process_batch()
            if n:
                write_frame(
                    out_fh,
                    {
                        "id": 0,
                        "kind": "batch",
                        "n": n,
                        "pending": runtime.pending,
                        "events_total": len(runtime.events),
                        "degraded": runtime.degraded,
                        "budgets": runtime.budget_health(),
                    },
                )
                if len(runtime.budget_breached) > breaches_seen:
                    fresh = runtime.budget_breached[breaches_seen:]
                    breaches_seen = len(runtime.budget_breached)
                    write_frame(
                        out_fh,
                        {"id": 0, "kind": "budget", "breached": fresh},
                    )
            elif runtime.refill() == 0 and once and not exhausted:
                exhausted = True
                write_frame(
                    out_fh,
                    {"id": 0, "kind": "exhausted",
                     "events_total": len(runtime.events)},
                )
    except (EOFError, FrameError):
        # Parent gone (its death closed our stdin): die right here with
        # crash semantics — no drain, no final checkpoint.  The next
        # boot restores from the last checkpoint like any kill -9.
        return 1
    except Exception as exc:  # pipeline death: report, then crash-exit
        try:
            write_frame(
                out_fh,
                {"id": 0, "kind": "fatal",
                 "error": f"{type(exc).__name__}: {exc}"},
            )
        except Exception:
            pass
        return 1


def main() -> int:
    """``python -m repro.serve.placement`` — the worker entry point."""
    # Frames own the real stdout; anything the pipeline prints is
    # repointed at stderr so it can never corrupt the frame stream.
    out_fh = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    in_fh = open(0, "rb", buffering=0, closefd=False)
    # Shutdown is RPC-driven (drain command) or forced (SIGKILL); the
    # signals a terminal fans out to the process group must not race
    # the parent's orderly drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return worker_main(in_fh, out_fh)


# ------------------------------------------------------------ parent side


class WorkerClient:
    """Parent-side handle on one spawned worker process + its channel."""

    def __init__(self, proc, channel: RpcChannel) -> None:
        self.proc = proc
        self.channel = channel

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.returncode is None and not self.channel.closed

    @classmethod
    async def spawn(cls, init: dict) -> "WorkerClient":
        """Start a worker and hand it its ``init`` frame."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_src_root(), env.get("PYTHONPATH")) if p
        )
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            WORKER_MODULE,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        channel = RpcChannel(proc.stdout, proc.stdin)
        channel.send(init)
        await proc.stdin.drain()
        return cls(proc, channel)

    async def request(self, cmd: str, args: dict | None = None, *,
                      timeout: float):
        return await self.channel.request(cmd, args, timeout=timeout)

    def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass

    async def reap(self) -> int:
        """Wait the child (no zombies) and release the channel."""
        code = await self.proc.wait()
        await self.channel.close()
        return code


class InlineHandle:
    """Async facade over a tenant running on the daemon's own loop."""

    placement = "inline"

    def __init__(self, runtime: TenantRuntime) -> None:
        self.runtime = runtime

    async def health(self) -> dict:
        health = self.runtime.health()
        health["worker_pid"] = None
        return health

    async def sources(self):
        return self.runtime.ingest.source_summaries()

    async def journal(self) -> dict:
        return {
            "supervisor": self.runtime.transitions.read(),
            "breaker": self.runtime.ingest.journal(),
        }

    async def events_page(self, cursor: int, limit: int) -> dict:
        return events_page(self.runtime.events, cursor, limit)

    async def promote(self) -> dict:
        return self.runtime.promote()

    async def rollback(self, to: int | None) -> dict:
        return self.runtime.rollback(to=to)

    async def requeue(self) -> dict:
        return self.runtime.requeue()

    async def summary(self) -> dict:
        return {
            "pending_arrivals": self.runtime.pending,
            "events": len(self.runtime.events),
        }


class ProcessHandle:
    """Async facade over a tenant living in its own worker process.

    RPCs are bounded by the tenant's ``rpc_deadline`` budget; a timeout
    raises *and* latches :attr:`rpc_timed_out`, which the supervision
    loop reads as "the worker is hung" and escalates.  When no worker
    is attached (death gap, or drained), reads fall back to the files
    the worker left behind — the event journal and transition journal
    are on disk, so history survives its process.
    """

    placement = "process"

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.client: WorkerClient | None = None
        #: Every process ever spawned for this tenant (reap audit).
        self.procs: list = []
        self.last_health: dict = {}
        self.pending = 0
        self.events_total = 0
        self.rpc_timed_out = False

    @property
    def workdir(self) -> Path:
        return Path(self.spec.workdir)

    @property
    def alive(self) -> bool:
        return self.client is not None and self.client.alive

    def attach(self, client: WorkerClient) -> None:
        self.client = client
        self.procs.append(client.proc)
        self.rpc_timed_out = False

    def detach(self) -> None:
        self.client = None

    async def _call(self, cmd: str, args: dict | None = None):
        if not self.alive:
            raise RpcClosed(f"tenant {self.spec.name}: no live worker")
        try:
            return await self.client.request(
                cmd, args, timeout=self.spec.budget.rpc_deadline
            )
        except RpcTimeout:
            self.rpc_timed_out = True
            raise

    async def health(self) -> dict:
        if self.alive:
            try:
                health = await self._call("health")
                self.last_health = health
                return health
            except (RpcClosed, RpcTimeout, RpcError):
                pass
        health = dict(self.last_health)
        health["worker_pid"] = None
        health["stale"] = True
        return health

    async def sources(self):
        if self.alive:
            return await self._call("sources")
        return self.last_health.get("sources", [])

    async def journal(self) -> dict:
        if self.alive:
            return await self._call("journal")
        path = self.workdir / SUPERVISOR_FILE
        supervisor = (
            TransitionJournal(path).read() if path.exists() else []
        )
        return {"supervisor": supervisor, "breaker": []}

    async def events_page(self, cursor: int, limit: int) -> dict:
        if self.alive:
            return await self._call(
                "events", {"cursor": cursor, "limit": limit}
            )
        # Worker gone: serve the journal file it left behind.  Safe —
        # no process is appending while no worker is attached.
        path = self.workdir / EVENTS_FILE
        if not path.exists():
            return {"events": [], "next_cursor": None, "total": 0}
        journal = EventJournal(path)
        try:
            return events_page(journal, cursor, limit)
        finally:
            journal.close()

    async def promote(self) -> dict:
        return await self._call("promote")

    async def rollback(self, to: int | None) -> dict:
        return await self._call("rollback", {"to": to})

    async def requeue(self) -> dict:
        return await self._call("requeue")

    async def summary(self) -> dict:
        return {
            "pending_arrivals": self.pending,
            "events": self.events_total,
        }


if __name__ == "__main__":
    raise SystemExit(main())
