"""End-to-end crash-recovery smoke gate for `repro serve` (DESIGN.md §13).

The acceptance gate the serve daemon is built around: a real daemon
process SIGKILLed mid-stream (the config's ``faults`` block arms
``daemon.arrival`` with ``inject.DaemonCrash``: no atexit, no flush),
then restarted, must finish with a digest byte-identical
(``hotpath.stream_fingerprint``) to an uninterrupted in-process run —
for both of its tenants, across *different* ``PYTHONHASHSEED`` values (the Location pickle regression this gate
originally caught).  Plus the
other ending: SIGTERM → graceful drain → exit 0 with a final
checkpoint on disk.

Run via ``make serve-smoke`` (wired into ``make check``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import hotpath
from repro.serve.daemon import PORT_FILE
from repro.serve.journal import EventJournal
from repro.serve.tenant import EVENTS_FILE, TenantRuntime, TenantSpec
from repro.syslog.stream import write_log

pytestmark = pytest.mark.serve

REPO_ROOT = Path(__file__).resolve().parent.parent
N_MESSAGES = 600


def _env(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = seed
    return env


def _serve(config_path: Path, seed: str, timeout: float = 180.0):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--config", str(config_path)],
        cwd=str(REPO_ROOT),
        env=_env(seed),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _fingerprint(events_path: Path) -> str:
    journal = EventJournal(events_path)
    try:
        return hotpath.stream_fingerprint(journal.read_all())
    finally:
        journal.close()


@pytest.fixture(scope="module")
def farm(system_a, live_a, tmp_path_factory):
    """Two-tenant serve layout + reference fingerprints.

    ``t-serial`` and ``t-procs`` (the names are labels only: a tenant
    always runs the default stream) each read the live window split
    across two collector feeds.  References come from uninterrupted in-process
    runs in a separate workdir.
    """
    root = tmp_path_factory.mktemp("smoke")
    kb_path = root / "kb.json"
    system_a.kb.save(kb_path)
    messages = [m.message for m in live_a.messages][:N_MESSAGES]
    sources = {}
    for tenant in ("t-serial", "t-procs"):
        tdir = root / "logs" / tenant
        tdir.mkdir(parents=True)
        write_log(tdir / "s1.log", messages[0::2])
        write_log(tdir / "s2.log", messages[1::2])
        sources[tenant] = [str(tdir / "s1.log"), str(tdir / "s2.log")]

    def tenant_dict(name: str, workdir: Path) -> dict:
        return {
            "name": name,
            "sources": sources[name],
            "workdir": str(workdir / name),
            "kb_path": str(kb_path),
            "checkpoint_every": 50,
        }

    reference = {}
    ref_root = root / "reference"
    for name in ("t-serial", "t-procs"):
        spec = TenantSpec.from_dict(tenant_dict(name, ref_root))
        runtime = TenantRuntime(spec)
        runtime.workdir.mkdir(parents=True, exist_ok=True)
        runtime.start()
        while runtime.pending or runtime.refill():
            while runtime.pending:
                runtime.process_batch()
        runtime.drain()
        reference[name] = _fingerprint(runtime.workdir / EVENTS_FILE)

    return {
        "root": root,
        "tenant_dict": tenant_dict,
        "reference": reference,
    }


class TestKillNineRecovery:
    def test_sigkill_then_resume_is_byte_identical(self, farm):
        workdir = farm["root"] / "crashrun"
        tenants = [
            farm["tenant_dict"]("t-serial", workdir),
            farm["tenant_dict"]("t-procs", workdir),
        ]
        base = {
            "workdir": str(workdir),
            "once": True,
            "port": 0,
            "tenants": tenants,
            "supervisor": {"max_restarts": 3, "base_delay": 0.05},
        }

        crash_cfg = workdir / "crash.json"
        crash_cfg.parent.mkdir(parents=True, exist_ok=True)
        crash_cfg.write_text(
            json.dumps(
                {**base,
                 "faults": {"daemon.arrival": {"after": N_MESSAGES // 2}}}
            )
        )
        crashed = _serve(crash_cfg, seed="101")
        assert crashed.returncode == -signal.SIGKILL, crashed.stderr

        # Mid-stream state is on disk: at least one tenant checkpointed.
        assert any(
            (workdir / name / "checkpoint.ckpt").exists()
            for name in ("t-serial", "t-procs")
        )

        # Resume in a fresh process with a DIFFERENT hash seed — the
        # checkpoint/journal protocol may not depend on the writer's
        # PYTHONHASHSEED surviving the boundary.
        resume_cfg = workdir / "resume.json"
        resume_cfg.write_text(json.dumps(base))
        resumed = _serve(resume_cfg, seed="202")
        assert resumed.returncode == 0, resumed.stderr

        for name in ("t-serial", "t-procs"):
            got = _fingerprint(workdir / name / EVENTS_FILE)
            assert got == farm["reference"][name], (
                f"tenant {name}: crash+resume digest diverged from the "
                "uninterrupted run"
            )

    def test_resume_journals_the_supervisor_arc(self, farm):
        # Depends on the crash test having run in the same workdir.
        workdir = farm["root"] / "crashrun"
        arcs = [
            json.loads(line)["to"]
            for line in (workdir / "t-serial" / "supervisor.jsonl")
            .read_text()
            .splitlines()
        ]
        assert arcs[0] == "healthy"
        assert arcs[-1] == "drained"


class TestGracefulDrain:
    def test_sigterm_checkpoints_and_exits_zero(self, farm):
        workdir = farm["root"] / "drainrun"
        config = {
            "workdir": str(workdir),
            "once": False,
            "port": 0,
            "poll_interval": 0.05,
            "tenants": [farm["tenant_dict"]("t-serial", workdir)],
        }
        workdir.mkdir(parents=True, exist_ok=True)
        cfg = workdir / "serve.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--config", str(cfg)],
            cwd=str(REPO_ROOT),
            env=_env("303"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port_file = workdir / PORT_FILE
            deadline = time.monotonic() + 60.0
            while not port_file.exists():
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)
            # Let it digest for a moment, then ask for the clean ending.
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=120.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert (workdir / "t-serial" / "checkpoint.ckpt").exists()
