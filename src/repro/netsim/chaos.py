"""Deterministic chaos harness for the serve daemon (DESIGN.md §14).

Drives a *real* ``repro serve`` process through scripted disasters —
log rotation mid-read, in-place truncation, disk-full during
checkpointing, SIGKILL mid-tail — and hands the test layer everything
it needs to assert the one property that matters: the digest a tenant
serves after surviving a disaster is ``stream_fingerprint``
byte-identical to an unfaulted run over the same data.

Determinism comes from three design facts, not from sleeping:

* faults are scripted, not random — :class:`~repro.netsim.faults.RotateLog`
  / :class:`TruncateLog` fire when the harness says, and disk faults
  (a config's ``faults`` block, :func:`repro.utils.inject.from_dict`)
  count attempts, not wall time;
* the harness *observes* the daemon through its HTTP surface (per-source
  ``pushed`` counts, tail rotation/truncation counters) and gates each
  scripted step on observed state, so races are waited out, never
  guessed at;
* with a positive ``max_reorder_delay`` the ingest's emission order is
  invariant to arrival timing and chunking (every arrival beats the
  watermark, so emission order is the buffer's deterministic sort) —
  which is why a live faulted run can be compared byte-for-byte against
  an in-process reference that read the final file contents whole.

The pytest layer (``tests/test_chaos_smoke.py``, ``make chaos-smoke``)
composes these pieces into the scenarios the acceptance gate names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

#: Default ceiling for every observation wait.  Generous because CI
#: boxes stall, irrelevant to determinism (gates fire on state, not
#: on the clock).
WAIT_TIMEOUT = 120.0


class ChaosTimeout(AssertionError):
    """An observation gate did not come true in time."""


class ChaosDaemon:
    """One live ``repro serve`` subprocess under harness control."""

    def __init__(
        self,
        config: dict,
        workdir: str | Path,
        seed: str = "0",
        repo_root: str | Path | None = None,
    ) -> None:
        self.config = config
        self.workdir = Path(workdir)
        self.seed = seed
        self.repo_root = Path(
            repo_root
            if repo_root is not None
            else Path(__file__).resolve().parents[3]
        )
        self.proc: subprocess.Popen | None = None
        self._stdout = ""
        self._stderr = ""

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "ChaosDaemon":
        """Write the config and launch the daemon process."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        config_path = self.workdir / "chaos-serve.json"
        config_path.write_text(json.dumps(self.config))
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["PYTHONHASHSEED"] = self.seed
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--config",
                str(config_path),
            ],
            cwd=str(self.repo_root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        return self

    @property
    def port_file(self) -> Path:
        return Path(self.config["workdir"]) / "http.port"

    def wait_port(self, timeout: float = WAIT_TIMEOUT) -> int:
        """Block until the daemon binds its HTTP port; returns it."""
        deadline = time.monotonic() + timeout
        while not self.port_file.exists():
            if self.proc is not None and self.proc.poll() is not None:
                raise ChaosTimeout(
                    "daemon exited before binding: "
                    + (self.proc.communicate()[1] or "")
                )
            if time.monotonic() >= deadline:
                raise ChaosTimeout("daemon never bound its HTTP port")
            time.sleep(0.02)
        return int(self.port_file.read_text())

    def wait_exit(self, timeout: float = WAIT_TIMEOUT) -> int:
        """Block until the process ends; returns the exit code."""
        assert self.proc is not None
        self._stdout, self._stderr = self.proc.communicate(
            timeout=timeout
        )
        return self.proc.returncode

    @property
    def stderr(self) -> str:
        return self._stderr

    def kill(self) -> None:
        """Hard cleanup for test teardown paths."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()

    # ---------------------------------------------------------------- HTTP

    def get(self, path: str):
        port = self.wait_port()
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30.0
        ) as response:
            return json.loads(response.read())

    def post(self, path: str):
        port = self.wait_port()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", data=b"", method="POST"
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return json.loads(response.read())

    def metrics_text(self) -> str:
        """The raw ``/metrics`` Prometheus text (not JSON)."""
        port = self.wait_port()
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=30.0
        ) as response:
            return response.read().decode("utf-8")

    def sources(self, tenant: str) -> list[dict]:
        """The per-source breaker/watermark/tail rows for one tenant."""
        return self.get(f"/tenants/{tenant}/sources")

    def health(self, tenant: str) -> dict:
        """One tenant's full health dict (stream/ingest/budgets/state)."""
        return self.get(f"/tenants/{tenant}/health")

    def state(self, tenant: str) -> str:
        """One tenant's supervisor state, via ``/healthz``."""
        return self.get("/healthz")["tenants"][tenant]

    def worker_pid(self, tenant: str) -> int | None:
        """The pid of the tenant's worker process (None when inline,
        dead, or between lives)."""
        return self.health(tenant).get("worker_pid")

    def drain(self) -> None:
        """Request the graceful ending (same as SIGTERM)."""
        self.post("/drain")

    # --------------------------------------------------------- observation

    def wait_for(
        self,
        predicate,
        what: str,
        timeout: float = WAIT_TIMEOUT,
    ) -> None:
        """Poll ``predicate()`` until truthy; every scripted chaos step
        gates on one of these, which is what keeps scenarios
        deterministic on arbitrarily slow machines."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc is not None and self.proc.poll() is not None:
                raise ChaosTimeout(
                    f"daemon exited while waiting for {what}: "
                    + (self.proc.communicate()[1] or "")
                )
            try:
                if predicate():
                    return
            except OSError:
                pass  # HTTP hiccup mid-poll: retry until the deadline
            if time.monotonic() >= deadline:
                raise ChaosTimeout(f"timed out waiting for {what}")
            time.sleep(0.05)

    def wait_pushed(
        self,
        tenant: str,
        counts: dict[str, int],
        timeout: float = WAIT_TIMEOUT,
    ) -> None:
        """Block until each named source has pushed >= its count."""

        def reached() -> bool:
            rows = {
                row["source"]: row for row in self.sources(tenant)
            }
            return all(
                rows[name]["pushed"] >= want
                for name, want in counts.items()
            )

        self.wait_for(
            reached, f"{tenant} pushed {counts}", timeout=timeout
        )

    def wait_counter(
        self,
        tenant: str,
        source: str,
        key: str,
        minimum: int = 1,
        timeout: float = WAIT_TIMEOUT,
    ) -> None:
        """Block until a tail counter (``rotations``/``truncations``)
        of one source row reaches ``minimum`` — i.e. until the daemon
        has *observed* a scripted file fault, so the next step cannot
        race it."""

        def reached() -> bool:
            for row in self.sources(tenant):
                if row["source"] == source:
                    return row.get(key, 0) >= minimum
            return False

        self.wait_for(
            reached,
            f"{tenant}:{source} {key} >= {minimum}",
            timeout=timeout,
        )

    # ------------------------------------------------- partial failure

    def kill_worker(self, tenant: str) -> int:
        """SIGKILL one tenant's worker process mid-stream; returns its pid.

        The bulkhead lever: only that tenant's bulkhead takes the hit —
        the harness asserts the neighbor's run stays a strict no-op.
        """
        import signal as _signal

        pid = self.worker_pid(tenant)
        if not pid:
            raise ChaosTimeout(f"{tenant} has no live worker to kill")
        os.kill(pid, _signal.SIGKILL)
        return pid

    def wait_new_worker(
        self,
        tenant: str,
        old_pid: int,
        timeout: float = WAIT_TIMEOUT,
    ) -> int:
        """Block until the tenant runs a *different* worker process.

        The HTTP-observed restart gate: the supervisor noticed the
        death (pipe EOF + waitpid) and respawned from checkpoint.
        """
        seen: list[int] = []

        def respawned() -> bool:
            pid = self.worker_pid(tenant)
            if pid and pid != old_pid:
                seen.append(pid)
                return True
            return False

        self.wait_for(
            respawned,
            f"{tenant} worker respawn after pid {old_pid}",
            timeout=timeout,
        )
        return seen[-1]


def tenant_fingerprint(tenant_workdir: str | Path) -> str:
    """Fingerprint of everything a tenant's event journal served."""
    from repro import hotpath
    from repro.serve.journal import EventJournal
    from repro.serve.tenant import EVENTS_FILE

    journal = EventJournal(Path(tenant_workdir) / EVENTS_FILE)
    try:
        return hotpath.stream_fingerprint(journal.read_all())
    finally:
        journal.close()


def reference_fingerprint(tenant_dict: dict) -> str:
    """Unfaulted in-process reference for one tenant spec.

    Runs the exact tenant pipeline (same spec, fresh workdir) over the
    sources' *final* contents in one uninterrupted pass, and returns
    the fingerprint the faulted live run must reproduce byte-for-byte.
    """
    from repro.serve.tenant import TenantRuntime, TenantSpec

    spec = TenantSpec.from_dict(tenant_dict)
    runtime = TenantRuntime(spec)
    runtime.workdir.mkdir(parents=True, exist_ok=True)
    runtime.start()
    while runtime.pending or runtime.refill():
        while runtime.pending:
            runtime.process_batch()
    runtime.drain()
    return tenant_fingerprint(runtime.workdir)


def transition_kinds(tenant_workdir: str | Path) -> list[str]:
    """The ``kind`` field of every durable/fallback journal entry (the
    supervisor's state arcs carry ``to`` instead and are skipped)."""
    from repro.serve.tenant import SUPERVISOR_FILE

    path = Path(tenant_workdir) / SUPERVISOR_FILE
    if not path.exists():
        return []
    kinds = []
    for line in path.read_text().splitlines():
        if line.strip():
            entry = json.loads(line)
            if "kind" in entry:
                kinds.append(entry["kind"])
    return kinds


def supervisor_arc(tenant_workdir: str | Path) -> list[str]:
    """The supervisor's state transitions (``to`` values), in order."""
    from repro.serve.tenant import SUPERVISOR_FILE

    path = Path(tenant_workdir) / SUPERVISOR_FILE
    out = []
    for line in path.read_text().splitlines():
        if line.strip():
            entry = json.loads(line)
            if "to" in entry:
                out.append(entry["to"])
    return out


__all__ = [
    "WAIT_TIMEOUT",
    "ChaosDaemon",
    "ChaosTimeout",
    "reference_fingerprint",
    "supervisor_arc",
    "tenant_fingerprint",
    "transition_kinds",
]
