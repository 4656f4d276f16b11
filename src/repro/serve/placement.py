"""One tenant loop, two transports, one handle (DESIGN.md §15).

A tenant *life* is one boot of its :class:`~repro.serve.tenant.TenantRuntime`,
from an ``init`` dict to drain or death.  :class:`TenantLife` is the
tenant's only command surface — boot, :meth:`~TenantLife.execute`,
:meth:`~TenantLife.step` — and placement decides only where it runs:

* ``"process"`` — :func:`worker_main` drives it in a worker process of
  its own over the framed JSON RPC of :mod:`repro.serve.rpc`
  (:class:`WorkerClient` is the parent's end), so one tenant's crash,
  hang or poison batch cannot disturb its neighbors.  EOF on stdin means
  the parent is gone: the worker dies with crash semantics, the recovery
  path the kill -9 fingerprint gate already pins.
* ``"inline"`` — :class:`InlineLife` drives it as a task on the daemon's
  own loop, handing over dicts instead of frames.

:class:`TenantHandle` is what the HTTP layer talks to for either
placement; with no life attached it serves the last life's snapshot and
the journals on disk.  Both placements run this one loop, so clean runs
are ``stream_fingerprint``-byte-identical between them.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import sys
from pathlib import Path

from repro.utils import inject

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


def _fatal(exc: Exception) -> dict:
    return {"id": 0, "kind": "fatal", "error": f"{type(exc).__name__}: {exc}"}


#: A live tenant's idle wait (:meth:`TenantLife.idle_wait`), capped at
#: ``poll_interval``: a flowing feed is read every 10 ms, not up to
#: ``poll_interval`` late, while an idle tenant still wakes only once per
#: ``poll_interval`` — a feed that stops costs ~``poll_interval /
#: LIVE_POLL`` extra wakes, not 100 wakes/s for ever.
LIVE_POLL = 0.01


# ------------------------------------------------------------ the loop


class TenantLife:
    """One life of a tenant: boot, the command table, pipeline steps.

    ``emit`` receives every note; ``pid`` is what ``health`` reports as
    ``worker_pid`` (``None`` for a life on the daemon's own loop).
    """

    def __init__(self, init: dict, emit, *, pid: int | None) -> None:
        self.init = init
        self.runtime = TenantRuntime(TenantSpec.from_dict(init["spec"]))
        self.poll_interval = float(init["poll_interval"])
        # Live for this many consecutive empty steps after one that
        # found input: ~poll_interval of LIVE_POLL waits, no clock read.
        self._live_steps = math.ceil(self.poll_interval / LIVE_POLL)
        self._empty_steps = self._live_steps  # boot idle
        #: Set by the ``drain`` command: the life is over, stop stepping.
        self.drained = False
        self._emit = emit
        self._pid = pid
        self._exhausted = False
        self._breaches_seen = 0

    def boot(self) -> None:
        """Start (or restore) the runtime, note it."""
        self.runtime.start(degraded=bool(self.init.get("degraded")))
        self._emit({"id": 0, "kind": "started"})

    def step(self) -> bool:
        """One batch, or one refill when nothing is pending.

        Returns ``False`` when the step found no input: the transport
        then waits up to :meth:`idle_wait` before the next one.
        """
        found = self._step()
        self._empty_steps = 0 if found else self._empty_steps + 1
        return found

    def idle_wait(self) -> float:
        """How long a transport waits after a step that found no input.

        :data:`LIVE_POLL` while the tenant is live — a step found input
        (a batch or a non-empty refill) within the last
        ⌈``poll_interval`` / ``LIVE_POLL``⌉ steps — else
        ``poll_interval``.  The one idle-wait rule of both transports.
        """
        if self._empty_steps < self._live_steps:
            return min(LIVE_POLL, self.poll_interval)
        return self.poll_interval

    def _step(self) -> bool:
        runtime = self.runtime
        n = runtime.process_batch()
        if n:
            self._emit(
                {
                    "id": 0,
                    "kind": "batch",
                    "n": n,
                    "pending": runtime.pending,
                    "events_total": len(runtime.events),
                }
            )
            if len(runtime.budget_breached) > self._breaches_seen:
                fresh = runtime.budget_breached[self._breaches_seen:]
                self._breaches_seen = len(runtime.budget_breached)
                self._emit({"id": 0, "kind": "budget", "breached": fresh})
            return True
        if runtime.refill():
            return True
        if self.init.get("once") and not self._exhausted:
            # One-shot: no more bytes are coming, so a source's
            # newline-less last line is a line (a live daemon keeps
            # carrying it until its newline arrives).
            runtime.tails.flush()
            if runtime.refill():
                return True
            self._exhausted = True
            self._emit({"id": 0, "kind": "exhausted"})
        return False

    def execute(self, cmd: str, args: dict) -> dict:
        """Run one command against this life's runtime; never raises."""
        runtime = self.runtime
        try:
            if cmd == "ping":
                result = {"pong": True}
            elif cmd == "health":
                result = runtime.health()
                result["worker_pid"] = self._pid
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
                result = runtime.rollback(
                    to=int(to) if to is not None else None
                )
            elif cmd == "requeue":
                result = runtime.requeue()
            elif cmd == "drain":
                # The last live snapshot rides the reply: what the handle
                # serves once no life is attached.  Health is read first
                # because the drain shuts the stream lane's workers down.
                health = runtime.health()
                result = {
                    "flushed": runtime.drain(),
                    "health": health,
                    "breaker": runtime.ingest.journal(),
                }
                self.drained = True
            else:
                return {"ok": False, "error": f"unknown command {cmd!r}"}
        except Exception as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": True, "result": result}


# ------------------------------------------------ transport: a process


def worker_main(in_fh, out_fh) -> int:
    """One tenant worker's whole life; returns the process exit code.

    The first frame on stdin is the life's ``init`` dict; everything
    after is RPC commands, interleaved with pipeline steps — polled with
    a zero timeout while the last step found work, else for
    :meth:`TenantLife.idle_wait`, so admin calls never stall the
    pipeline and the pipeline never starves admin calls.  The
    init's ``faults`` block (:func:`repro.utils.inject.from_dict`) is
    armed for the whole life.
    """
    try:
        init = read_frame(in_fh)
        with inject.arm(inject.from_dict(init.get("faults"))):
            life = TenantLife(
                init, lambda note: write_frame(out_fh, note), pid=os.getpid()
            )
            life.boot()
            busy = True
            while True:
                frame = poll_frame(in_fh, 0.0 if busy else life.idle_wait())
                if frame is not None:
                    reply = life.execute(
                        frame.get("cmd"), frame.get("args") or {}
                    )
                    reply["id"] = frame.get("id", 0)
                    write_frame(out_fh, reply)
                    if life.drained:
                        return 0
                    # Fall through to the pipeline: an idle tenant polled
                    # faster than its idle wait must still reach refill().
                busy = life.step()
    except (EOFError, FrameError):
        # Parent gone (its death closed our stdin): die right here with
        # crash semantics — no drain, no final checkpoint.  The next
        # boot restores from the last checkpoint like any kill -9.
        return 1
    except Exception as exc:  # pipeline death: report, then crash-exit
        try:
            write_frame(out_fh, _fatal(exc))
        except Exception:
            pass
        return 1


def main() -> int:
    """``python -m repro.serve.worker`` — the worker entry point."""
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


class WorkerClient:
    """Parent-side handle on one spawned worker process + its channel."""

    def __init__(self, proc, channel: RpcChannel) -> None:
        self.proc = proc
        self.channel = channel
        self.notes: asyncio.Queue = channel.notes

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


# ------------------------------------- transport: the daemon's own loop


class InlineLife:
    """A tenant life as a task on the daemon's event loop: the surface of
    :class:`WorkerClient` without the process or the codec.  A request
    runs :meth:`TenantLife.execute` in the caller — it cannot overlap a
    step, nor time out (``timeout`` is unused)."""

    def __init__(self, init: dict) -> None:
        self.notes: asyncio.Queue = asyncio.Queue()
        self.life = TenantLife(init, self.notes.put_nowait, pid=None)
        self._task = asyncio.ensure_future(self._run())

    @classmethod
    async def spawn(cls, init: dict) -> "InlineLife":
        life = cls(init)
        # The task is first in line: it boots (or fails) before this
        # returns, so no request can reach an unbooted runtime.
        await asyncio.sleep(0)
        return life

    @property
    def alive(self) -> bool:
        return not self._task.done()

    async def _run(self) -> None:
        try:
            self.life.boot()
            busy = True
            while True:
                if not busy:
                    await asyncio.sleep(self.life.idle_wait())
                # Two loop turns: a drain asked for during boot, and the
                # watch taking the last note + the reader it wakes, go first.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                busy = self.life.step()
        except Exception as exc:
            self.notes.put_nowait(_fatal(exc))

    async def request(self, cmd: str, args: dict | None = None, *,
                      timeout: float):
        if not self.alive:  # the boot failed: nothing to run it on
            raise RpcClosed("tenant life ended")
        reply = self.life.execute(cmd, args or {})
        if self.life.drained:
            self._task.cancel()  # ends the idle wait at once
        if not reply["ok"]:
            raise RpcError(reply["error"])
        return reply["result"]

    def kill(self) -> None:
        self._task.cancel()

    async def reap(self) -> None:
        """Wait for the task to end, then tear the runtime down without
        draining (a no-op after a drain) and close its journal."""
        await asyncio.wait({self._task})
        self.life.runtime.close()


# ------------------------------------------------------------ the handle


class TenantHandle:
    """Async facade over a tenant's current life, for either placement.

    Requests are bounded by the tenant's ``rpc_deadline``; a timeout
    raises *and* latches :attr:`rpc_timed_out`, which the supervision
    loop reads as "the life is hung".  With no life attached (death gap,
    or drained), reads serve what the last one left: the snapshot of its
    last ``health`` or ``drain`` reply, and the journals on disk.
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.placement = spec.placement
        self.life: WorkerClient | InlineLife | None = None
        #: Every life ever attached to this tenant (reap audit).
        self.lives: list = []
        self.last_health: dict = {}
        self.last_breaker: list = []
        self.pending = 0
        self.events_total = 0
        self.rpc_timed_out = False

    @property
    def workdir(self) -> Path:
        return Path(self.spec.workdir)

    @property
    def alive(self) -> bool:
        return self.life is not None and self.life.alive

    def attach(self, life) -> None:
        self.life = life
        self.lives.append(life)
        self.rpc_timed_out = False

    async def request(self, cmd: str, args: dict | None = None):
        """One command to the attached life (RpcClosed when none is)."""
        if not self.alive:
            raise RpcClosed(f"tenant {self.spec.name}: no live worker")
        try:
            return await self.life.request(
                cmd, args, timeout=self.spec.budget.rpc_deadline
            )
        except RpcTimeout:
            self.rpc_timed_out = True
            raise

    async def drain(self, timeout: float) -> None:
        """Drain the attached life and keep its last live snapshot."""
        final = await self.life.request("drain", timeout=timeout)
        self.last_health = final["health"]
        self.last_breaker = final["breaker"]
        self.pending = 0
        self.events_total = (
            self.last_health["events_journaled"] + final["flushed"]
        )

    async def health(self) -> dict:
        if self.alive:
            try:
                self.last_health = await self.request("health")
                return self.last_health
            except (RpcClosed, RpcTimeout, RpcError):
                pass
        health = dict(self.last_health)
        health["worker_pid"] = None
        health["stale"] = True
        return health

    async def sources(self):
        if self.alive:
            return await self.request("sources")
        return self.last_health.get("sources", [])

    async def journal(self) -> dict:
        if self.alive:
            return await self.request("journal")
        supervisor = TransitionJournal(self.workdir / SUPERVISOR_FILE)
        return {"supervisor": supervisor.read(), "breaker": self.last_breaker}

    async def events_page(self, cursor: int, limit: int) -> dict:
        if self.alive:
            return await self.request(
                "events", {"cursor": cursor, "limit": limit}
            )
        # No life attached: serve the journal file the last one left
        # behind.  Safe — nothing appends while no life is attached.
        journal = EventJournal(self.workdir / EVENTS_FILE)
        try:
            return events_page(journal, cursor, limit)
        finally:
            journal.close()

