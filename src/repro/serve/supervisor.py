"""Per-tenant supervision state machine (DESIGN.md §13).

The daemon wraps every tenant pipeline in a :class:`Supervisor` that
owns exactly one question: *given what just happened to the pipeline,
what should the runtime do next?*  The answer is a :class:`Decision`
(restart after a delay, degrade, drain, fail) computed synchronously —
no asyncio, no I/O beyond the transition journal — so every transition
in the state machine is unit-testable without booting a daemon.

States::

    starting ──► healthy ──► restarting ──► healthy        (recovered)
                    │            │
                    │            └────────► degraded        (restarts exhausted;
                    │                          │             shed-mode restart)
                    └──────────────────────────┴──► drained (graceful shutdown)

* **healthy** — the pipeline task is alive and making batch progress.
* **restarting** — the task died (exception) or got stuck (no progress
  before the deadline while input was pending); the runtime restarts it
  from the latest checkpoint after a bounded exponential backoff taken
  from :class:`repro.syslog.resilient.RetryPolicy` — the same
  deterministic schedule flaky sources get.
* **degraded** — ``max_restarts`` consecutive failures; the tenant is
  restarted once more in shed mode (tight ``max_open_messages`` bound,
  oldest groups shed first, plus admission control) and left running
  so it keeps serving health and whatever events it can still digest.
* **drained** — terminal: intake stopped, reorder buffers flushed,
  final checkpoint written.  Reached only via graceful shutdown.
* **failed** — terminal: the pipeline died even in degraded mode.

A batch that makes progress resets the consecutive-failure counter, so
only an *unbroken* run of failures escalates.  Every transition is
journaled (JSONL) and mirrored to the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import (
    SERVE_RESTARTS,
    SERVE_TENANT_STATE,
    SERVE_TRANSITIONS,
    get_registry,
)
from repro.syslog.resilient import RetryPolicy

from .journal import TransitionJournal

STATES = ("starting", "healthy", "restarting", "degraded", "drained", "failed")

# Gauge encoding for SERVE_TENANT_STATE, same idiom as BREAKER_STATE.
STATE_INDEX = {state: i for i, state in enumerate(STATES)}


@dataclass(frozen=True)
class Decision:
    """What the runtime should do about a pipeline failure."""

    action: str  # "restart" | "degrade" | "fail"
    delay: float  # backoff seconds before acting
    restarts: int  # consecutive failures so far


class Supervisor:
    """Decision core + transition journal for one tenant pipeline.

    ``policy`` bounds the restart storm: ``max_restarts`` consecutive
    failures are retried with ``RetryPolicy(max_restarts, base_delay)``
    backoff, then the tenant escalates to degraded mode.  The *last*
    backoff delay repeats for any failure past the schedule.

    ``progress_deadline`` is the stuck-detector: if the pipeline has
    pending input but has not completed a batch within that many
    seconds (caller's clock), :meth:`stuck` fires.  The deadline only
    applies while input is pending — an idle tenant at EOF is not stuck.
    """

    def __init__(
        self,
        tenant: str,
        *,
        max_restarts: int = 3,
        base_delay: float = 0.1,
        progress_deadline: float = 30.0,
        journal: TransitionJournal | None = None,
        clock=None,
    ) -> None:
        if max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if progress_deadline <= 0:
            raise ValueError("progress_deadline must be > 0")
        self.tenant = tenant
        self.max_restarts = max_restarts
        self.progress_deadline = progress_deadline
        self._delays = list(
            RetryPolicy(max_retries=max_restarts, base_delay=base_delay).delays()
        )
        self._journal = journal
        self._clock = clock
        self.state = "starting"
        self.restarts = 0  # consecutive failures since last progress
        self.total_restarts = 0
        self._last_progress: float | None = None
        self._set_state_gauge()

    # ------------------------------------------------------------------
    # event inputs

    def note_started(self) -> None:
        """The pipeline task is up and consuming."""
        self._transition("healthy", reason="started")
        self._last_progress = self._now()

    def note_progress(self) -> None:
        """A batch completed — the pipeline is demonstrably alive."""
        self.restarts = 0
        self._last_progress = self._now()
        if self.state == "restarting":
            self._transition("healthy", reason="recovered")

    def on_failure(self, reason: str) -> Decision:
        """The pipeline died or was declared stuck; decide what's next.

        Returns the decision *and* performs the state transition +
        journal write.  The runtime is responsible for actually
        sleeping ``delay`` and restarting/degrading.
        """
        self.restarts += 1
        self.total_restarts += 1
        get_registry().inc(SERVE_RESTARTS, tenant=self.tenant)
        if self.state == "degraded":
            # Even shed mode could not keep the pipeline alive.
            self._transition("failed", reason=reason)
            return Decision("fail", 0.0, self.restarts)
        if self.restarts > self.max_restarts:
            self._transition("degraded", reason=reason)
            return Decision("degrade", self._delay_for(self.restarts), self.restarts)
        self._transition("restarting", reason=reason)
        return Decision("restart", self._delay_for(self.restarts), self.restarts)

    def note_degraded_started(self) -> None:
        """The shed-mode pipeline is up; stay degraded but reset the run."""
        self.restarts = 0
        self._last_progress = self._now()

    def note_budget_degraded(self, budgets: list[str]) -> None:
        """The tenant breached a resource budget and shed in place.

        A budget breach is *not* a failure: the pipeline stays up (shed
        mode was applied live, no restart happened), so the consecutive-
        failure counter is untouched — but the supervisor state moves to
        ``degraded`` so the arc, journal, and state gauge tell the truth.
        """
        if self.state in ("degraded", "drained", "failed"):
            return
        self._transition(
            "degraded", reason="budget: " + ", ".join(budgets)
        )

    def note_drained(self) -> None:
        """Graceful shutdown completed: terminal state."""
        self._transition("drained", reason="graceful shutdown")

    def stuck(self, now: float | None = None, *, pending: bool) -> bool:
        """True if pending input has seen no progress past the deadline."""
        if not pending or self.state not in ("healthy", "restarting", "degraded"):
            return False
        if self._last_progress is None:
            return False
        now = self._now() if now is None else now
        return (now - self._last_progress) > self.progress_deadline

    # ------------------------------------------------------------------
    # internals

    def _delay_for(self, failure: int) -> float:
        return self._delays[min(failure - 1, len(self._delays) - 1)]

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        import time

        return time.monotonic()

    def _transition(self, to: str, *, reason: str) -> None:
        if to not in STATES:
            raise ValueError(f"unknown state {to!r}")
        entry = {
            "tenant": self.tenant,
            "from": self.state,
            "to": to,
            "reason": reason,
            "restarts": self.restarts,
            "total_restarts": self.total_restarts,
        }
        self.state = to
        if self._journal is not None:
            self._journal.append(entry)
        get_registry().inc(SERVE_TRANSITIONS, tenant=self.tenant, to=to)
        self._set_state_gauge()

    def _set_state_gauge(self) -> None:
        get_registry().set_gauge(
            SERVE_TENANT_STATE,
            STATE_INDEX[self.state],
            tenant=self.tenant,
        )
