"""Process and scratch-space hygiene: nothing a run starts may outlive it.

Every run works inside its own directory under ``.ledger_work/`` at the
repo root (git-ignored; a benchmark must not write outside its checkout),
every daemon runs in its own process group, and both are torn down on
every way out — normal return, exception, ``SIGTERM``.  A run refuses to
start while a daemon of an earlier run is still alive: a leaked daemon or
worker would compete for the two cores and skew the numbers.
"""

from __future__ import annotations

import atexit
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.netsim.chaos import ChaosDaemon
from repro.serve.daemon import PORT_FILE

from .measure import WorkloadFailed

ROOT = Path(__file__).resolve().parents[2]
WORK_ROOT = ROOT / ".ledger_work"
PID_FILE = "daemon.pid"


def _is_live_daemon(pid: int) -> bool:
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"repro.cli" in cmdline


def claim_workdir() -> Path:
    """A fresh private directory for this run, removed when it exits.

    Raises ``SystemExit`` if an earlier run's ``http.port`` file still
    belongs to a live daemon; sweeps the directories of dead runs.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    for port_file in WORK_ROOT.glob(f"*/**/{PORT_FILE}"):
        pid_file = port_file.with_name(PID_FILE)
        try:
            pid = int(pid_file.read_text())
        except (OSError, ValueError):
            continue
        if _is_live_daemon(pid):
            raise SystemExit(
                f"ledger: refusing to start: {port_file} belongs to a live "
                f"daemon (pid {pid}) leaked by an earlier run; kill its "
                "process group first"
            )
    for stale in WORK_ROOT.glob("run-*"):
        owner = stale.name.split("-")[1]
        if not (owner.isdigit() and Path(f"/proc/{owner}").exists()):
            shutil.rmtree(stale, ignore_errors=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_ROOT))

    def remove() -> None:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds once the last run is gone
        except OSError:
            pass

    atexit.register(remove)
    # atexit handlers do not run on an unhandled SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return workdir


class LedgerDaemon(ChaosDaemon):
    """A live ``repro serve`` subprocess in a process group of its own."""

    def __init__(self, config: dict, workdir: Path) -> None:
        super().__init__(config, workdir, repo_root=ROOT)
        self.port: int | None = None

    def start(self) -> "LedgerDaemon":
        state_dir = Path(self.config["workdir"])
        state_dir.mkdir(parents=True, exist_ok=True)
        config_path = self.workdir / "serve.json"
        config_path.write_text(json.dumps(self.config))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        with open(self.workdir / "daemon.stderr", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--config", str(config_path)],
                cwd=str(ROOT),
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,  # workers inherit the group
            )
        atexit.register(self.stop)
        (state_dir / PID_FILE).write_text(str(self.proc.pid))
        return self

    def stop(self) -> None:
        """Kill the daemon's whole process group and reap the daemon."""
        if self.proc is None or self.proc.poll() is not None:
            return  # never started, or reaped: its pid may be reused
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    @property
    def stderr(self) -> str:
        return (self.workdir / "daemon.stderr").read_text(errors="replace")

    def wait_port(self, timeout: float = 120.0) -> int:
        """The bound port, once the daemon has *finished* writing it: the
        port file exists, empty, for an instant before its content does."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return int(self.port_file.read_text())
            except (FileNotFoundError, ValueError):
                pass
            if self.proc.poll() is not None:
                raise WorkloadFailed(f"daemon exited before binding: {self.stderr}")
            if time.monotonic() >= deadline:
                raise WorkloadFailed("daemon never bound its HTTP port")
            time.sleep(0.01)

    def wait_healthy(self) -> None:
        """Block until the port is bound and every tenant is healthy."""
        self.port = self.wait_port()
        self.wait_for(
            lambda: set(self.get("/healthz")["tenants"].values()) == {"healthy"},
            "all tenants healthy",
        )

    def timed_get(self, path: str, timeout: float = 30.0):
        """``(status, body, seconds)``; status 0 on a transport failure."""
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException):
            status, body = 0, b""
        finally:
            conn.close()
        return status, body, time.perf_counter() - start

    def drain_and_wait(self, timeout: float = 120.0) -> float:
        """``POST /drain`` -> exit 0; returns the seconds it took.

        Waits in a blocking ``waitpid`` (``Popen.wait`` with a timeout
        polls, 50 ms apart); a timer kills a daemon that never exits.
        """
        watchdog = threading.Timer(timeout, self.stop)
        watchdog.start()
        try:
            start = time.perf_counter()
            self.drain()
            code = self.proc.wait()
            elapsed = time.perf_counter() - start
        finally:
            watchdog.cancel()
        if code != 0:
            raise WorkloadFailed(
                f"daemon exited {code} after drain: {self.stderr[-2000:]}"
            )
        return elapsed
