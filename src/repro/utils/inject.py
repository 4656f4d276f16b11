"""The one fault-injection seam: named points the lab arms (DESIGN.md §14).

Production code consults a point with :func:`hook` and, when a callable
is armed there, calls it; the hook injects by raising, killing or
hanging.  The lab arms points with :func:`arm` — in-process from
:mod:`repro.netsim.faults` profiles and tests, or from the JSON form
:func:`from_dict` decodes (a serve config's ``faults`` block, forwarded
in every worker's init frame: no pickle crosses the RPC boundary).
DESIGN.md §14 tables each point's call site and arguments.  With
nothing armed every point reads ``None``; call sites read a point once
per construction, batch or durable op, never per message.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from collections.abc import Callable
from contextlib import contextmanager

from repro.obs import FAULTS_INJECTED, get_registry

SHARD_TASK = "shard.task"
SHARD_ATTEMPT = "shard.attempt"
SHARD_STEP = "shard.step"
DURABLE = "durable"
TENANT_ARRIVAL = "tenant.arrival"
DAEMON_ARRIVAL = "daemon.arrival"

POINTS = (
    SHARD_TASK,
    SHARD_ATTEMPT,
    SHARD_STEP,
    DURABLE,
    TENANT_ARRIVAL,
    DAEMON_ARRIVAL,
)

_armed: dict[str, Callable] = {}


def hook(point: str) -> Callable | None:
    """The callable armed at ``point``, or ``None``."""
    return _armed.get(point)


@contextmanager
def arm(hooks: dict[str, Callable | None]):
    """Arm ``{point: hook}`` in this process for the ``with`` body.

    ``None`` values arm nothing; on exit every point reads what it read
    before.  Arm first, then build: components capture their hooks when
    they are built or when a batch starts.
    """
    unknown = sorted(set(hooks) - set(POINTS))
    if unknown:
        raise ValueError(f"unknown injection point(s) {unknown}")
    saved = dict(_armed)
    _armed.update(
        (point, fn) for point, fn in hooks.items() if fn is not None
    )
    try:
        yield
    finally:
        _armed.clear()
        _armed.update(saved)


def count(kind: str, n: int = 1) -> None:
    """Count ``n`` injected faults under ``kind``."""
    if n:
        registry = get_registry()
        if registry.enabled:
            registry.inc(FAULTS_INJECTED, n, kind=kind)


class InjectedWorkerFault(RuntimeError):
    """The deliberate exception a raising hook throws."""


class DaemonCrash:
    """``daemon.arrival``: SIGKILL this process after ``after`` arrivals.

    No atexit, no finally blocks, no flush — exactly the power-loss
    shape the checkpoint + event-journal protocol must survive.
    """

    def __init__(self, after: int) -> None:
        if after < 1:
            raise ValueError("after must be >= 1")
        self.after = after

    def __call__(self, n_arrivals: int) -> None:
        if n_arrivals >= self.after:
            count("daemon_crash")
            os.kill(os.getpid(), signal.SIGKILL)


_ERRNOS = {name: code for code, name in errno.errorcode.items()}


class DurableWriteFault:
    """``durable``: ``OSError(errno)`` for ops whose path contains ``match``.

    Deterministic: fires for matching attempts ``[after, after + times)``
    (1-based), after which the "disk" recovers and writes land again.
    ``errno`` is a symbolic name (``"ENOSPC"``, ``"EIO"``); ``op`` is
    "write" (checkpoints, journals, model store, quarantine dumps) or
    "read" (tail reads).  Picklable, like every hook here.
    """

    def __init__(
        self,
        errno: str,
        match: str = "",
        op: str = "write",
        after: int = 1,
        times: int = 1,
    ) -> None:
        if errno not in _ERRNOS:
            raise ValueError(f"unknown errno {errno!r}")
        if op not in ("write", "read"):
            raise ValueError(f"op must be 'write' or 'read', not {op!r}")
        if after < 1:
            raise ValueError("after must be >= 1 (1-based attempt)")
        if times < 1:
            raise ValueError("times must be >= 1")
        self.err = _ERRNOS[errno]
        self.match = match
        self.op = op
        self.after = after
        self.times = times
        self._seen = 0

    def __call__(self, op: str, path: str) -> None:
        if op != self.op or self.match not in path:
            return
        self._seen += 1
        if self.after <= self._seen < self.after + self.times:
            count("disk")
            raise OSError(
                self.err, "injected: " + os.strerror(self.err), path
            )


class PumpPoison:
    """``tenant.arrival``: a poison pill at one arrival position.

    At position ``at`` (0-based within the current pipeline life) of
    ``tenant`` (every tenant when ``None``) the hook either raises
    (``mode="raise"``: the pipeline dies, every replay re-poisons, and
    the crash loop escalates to degraded) or hangs (``mode="hang"``:
    the pipeline must be killed from outside).  Inert in degraded
    (shed) mode, which is what makes the escalation terminate.  Keep
    ``at`` below ``checkpoint_every`` so every replay of a life starts
    from the same arrival.
    """

    def __init__(
        self, at: int, mode: str = "raise", tenant: str | None = None
    ) -> None:
        if at < 0:
            raise ValueError("at must be >= 0 (0-based arrival position)")
        if mode not in ("raise", "hang"):
            raise ValueError(f"mode must be 'raise' or 'hang', not {mode!r}")
        self.at = at
        self.mode = mode
        self.tenant = tenant

    def hangs(self, tenant: str) -> bool:
        """Whether this poison would hang ``tenant``'s pump."""
        return self.mode == "hang" and self.tenant in (None, tenant)

    def __call__(self, tenant: str, position: int, degraded: bool) -> None:
        if (
            degraded
            or position != self.at
            or self.tenant not in (None, tenant)
        ):
            return
        count("pump_poison")
        if self.mode == "hang":
            while True:  # killed from outside (SIGKILL / daemon exit)
                time.sleep(0.05)
        raise InjectedWorkerFault(
            f"injected poison arrival at position {position}"
        )


#: The closed JSON vocabulary: which hook each decodable point builds.
_DECODERS = {
    DAEMON_ARRIVAL: DaemonCrash,
    DURABLE: DurableWriteFault,
    TENANT_ARRIVAL: PumpPoison,
}


def from_dict(data: dict | None) -> dict[str, Callable]:
    """Decode the JSON form into ``{point: hook}`` for :func:`arm`.

    Shape: ``{point: {argument: value}}`` over three points —
    ``{"daemon.arrival": {"after": N}, "durable": {"errno": "ENOSPC",
    "match": <substring>, "op": "write", "after": N, "times": M},
    "tenant.arrival": {"at": N, "mode": "raise" | "hang",
    "tenant": <name or null>}}``.  Anything else raises ``ValueError``.
    """
    hooks = {}
    for point, args in (data or {}).items():
        if point not in _DECODERS:
            raise ValueError(
                f"faults: {point!r} is not one of {sorted(_DECODERS)}"
            )
        if not isinstance(args, dict):
            raise ValueError(f"faults: {point!r} needs an object")
        try:
            hooks[point] = _DECODERS[point](**args)
        except TypeError as exc:
            raise ValueError(f"faults: {point!r}: {exc}") from None
    return hooks
