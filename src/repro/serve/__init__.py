"""Supervised service mode: the crash-safe multi-tenant daemon (DESIGN.md §13, §15).

`repro serve` turns the one-shot streaming pipeline into an always-on
process: per-tenant :class:`~repro.core.stream.DigestStream` pipelines
behind :class:`~repro.syslog.ingest.MultiSourceIngest`, each wrapped in
a restart-from-checkpoint :class:`~repro.serve.supervisor.Supervisor`,
queried over a stdlib-only HTTP API, drained gracefully on
SIGTERM/SIGINT, and pinned byte-identical across kill -9 by the
checkpoint + event-journal protocol in :mod:`repro.serve.journal`.

Placement (DESIGN.md §15) adds the bulkhead: one tenant loop, run
either inline on the daemon's loop or in a supervised worker process of
its own behind the framed-pipe RPC of :mod:`repro.serve.rpc`, with
per-tenant resource budgets that degrade — never kill — an over-budget
tenant.
"""

from repro.serve.daemon import ServeConfig, ServeDaemon, run_daemon
from repro.serve.drain import GracefulShutdown
from repro.serve.http import HttpApi, event_payload, events_page
from repro.serve.journal import EventJournal, TransitionJournal
from repro.serve.placement import TenantHandle, WorkerClient, worker_main
from repro.serve.rpc import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameTooLarge,
    RpcChannel,
    RpcClosed,
    RpcError,
    RpcTimeout,
    TornFrame,
)
from repro.serve.supervisor import STATES, Decision, Supervisor
from repro.serve.tenant import (
    BUDGET_HEALTH_KEYS,
    PLACEMENTS,
    TenantBudget,
    TenantRuntime,
    TenantSpec,
)

__all__ = [
    "BUDGET_HEALTH_KEYS",
    "MAX_FRAME_BYTES",
    "PLACEMENTS",
    "STATES",
    "Decision",
    "EventJournal",
    "FrameError",
    "FrameTooLarge",
    "GracefulShutdown",
    "HttpApi",
    "RpcChannel",
    "RpcClosed",
    "RpcError",
    "RpcTimeout",
    "ServeConfig",
    "ServeDaemon",
    "Supervisor",
    "TenantBudget",
    "TenantHandle",
    "TenantRuntime",
    "TenantSpec",
    "TornFrame",
    "TransitionJournal",
    "WorkerClient",
    "event_payload",
    "events_page",
    "run_daemon",
    "worker_main",
]
