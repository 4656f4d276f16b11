"""Partial-failure chaos gate for bulkhead placement (DESIGN.md §15).

A real two-tenant ``repro serve`` daemon — one serial-lane tenant, one
process-lane tenant, *both* in ``placement = "process"`` worker
processes — has one tenant's worker SIGKILLed mid-stream.  The gate
pins the bulkhead contract from both sides:

* the **surviving** tenant's run is a strict no-op: zero quarantined
  lines, zero degraded/restart transitions, and a digest
  ``stream_fingerprint``-byte-identical to an uninterrupted in-process
  reference;
* the **killed** tenant resumes from its checkpoint under the parent's
  supervisor and finishes byte-identical to the same reference — the
  kill cost progress, never bytes.

Both stream-executor lanes take a turn as the kill target (and as the
survivor), and the per-tenant budget series are asserted present in
``/metrics``.  Every step gates on HTTP-observed state (pushed counts,
worker pids) — no sleeps decide correctness; see ``repro.netsim.chaos``.

Run via ``make placement-smoke`` (wired into ``make check``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.netsim.chaos import (
    ChaosDaemon,
    reference_fingerprint,
    supervisor_arc,
    tenant_fingerprint,
    transition_kinds,
)
from repro.syslog.parse import format_line
from repro.syslog.stream import write_log

pytestmark = pytest.mark.placement

REPO_ROOT = Path(__file__).resolve().parent.parent
TENANTS = ("t-serial", "t-procs")
N_MESSAGES = 600
PHASE1 = 400
PHASE1_PER_SOURCE = PHASE1 // 2
FULL_PER_SOURCE = N_MESSAGES // 2

#: Every budget metric the parent must surface for process tenants.
BUDGET_METRICS = (
    "syslogdigest_tenant_budget_limit",
    "syslogdigest_tenant_budget_used",
    "syslogdigest_tenant_over_budget",
    "syslogdigest_placement_workers",
)


def _append(path: Path, messages) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for message in messages:
            fh.write(format_line(message) + "\n")


@pytest.fixture(scope="module")
def farm(system_a, live_a, tmp_path_factory):
    """Layout + uninterrupted in-process reference prints per tenant."""
    root = tmp_path_factory.mktemp("placement-smoke")
    kb_path = root / "kb.json"
    system_a.kb.save(kb_path)
    messages = [m.message for m in live_a.messages][:N_MESSAGES]

    def tenant_dict(name: str, logdir: Path, workdir: Path) -> dict:
        return {
            "name": name,
            "sources": [
                str(logdir / name / "s1.log"),
                str(logdir / name / "s2.log"),
            ],
            "workdir": str(workdir / name),
            "kb_path": str(kb_path),
            "checkpoint_every": 50,
            "stream_workers": "processes" if name == "t-procs" else "serial",
            "n_workers": 2 if name == "t-procs" else 1,
            "placement": "process",
        }

    reference = {}
    ref_root = root / "reference"
    for name in TENANTS:
        logdir = ref_root / "logs"
        (logdir / name).mkdir(parents=True, exist_ok=True)
        write_log(logdir / name / "s1.log", messages[0::2])
        write_log(logdir / name / "s2.log", messages[1::2])
        # reference_fingerprint runs the spec inline in this process, so
        # equality doubles as the inline ≡ process placement gate.
        reference[name] = reference_fingerprint(
            tenant_dict(name, logdir, ref_root / "work")
        )

    return {
        "root": root,
        "messages": messages,
        "tenant_dict": tenant_dict,
        "reference": reference,
    }


def _scenario(farm, label: str):
    """Phase-1 logs + a process-placement two-tenant daemon config."""
    root = farm["root"] / label
    logdir = root / "logs"
    workdir = root / "work"
    messages = farm["messages"]
    for name in TENANTS:
        (logdir / name).mkdir(parents=True)
        write_log(logdir / name / "s1.log", messages[0:PHASE1:2])
        write_log(logdir / name / "s2.log", messages[1:PHASE1:2])
    config = {
        "workdir": str(workdir),
        "once": False,
        "port": 0,
        "poll_interval": 0.05,
        "tenants": [
            farm["tenant_dict"](name, logdir, workdir) for name in TENANTS
        ],
        "supervisor": {"max_restarts": 3, "base_delay": 0.05},
    }
    return config, logdir, workdir


def _src(logdir: Path, tenant: str, which: str) -> Path:
    return logdir / tenant / which


def _write_phase2(farm, logdir: Path, tenant: str) -> None:
    messages = farm["messages"]
    _append(_src(logdir, tenant, "s1.log"), messages[PHASE1:N_MESSAGES:2])
    _append(
        _src(logdir, tenant, "s2.log"), messages[PHASE1 + 1 : N_MESSAGES : 2]
    )


def _kill_one_worker(farm, label: str, victim: str, survivor: str,
                     seed: str, check_metrics: bool = False):
    """The gate scenario: SIGKILL ``victim``'s worker between phases."""
    config, logdir, workdir = _scenario(farm, label)
    daemon = ChaosDaemon(config, workdir, seed=seed, repo_root=REPO_ROOT)
    daemon.start()
    try:
        for name in TENANTS:
            daemon.wait_pushed(
                name,
                {
                    str(_src(logdir, name, "s1.log")): PHASE1_PER_SOURCE,
                    str(_src(logdir, name, "s2.log")): PHASE1_PER_SOURCE,
                },
            )
        # Phase-1 checkpoints are on disk; kill the victim's bulkhead,
        # then land phase 2 on *both* tenants — the survivor digests it
        # live while the victim is dead and restarting.
        old_pid = daemon.kill_worker(victim)
        for name in TENANTS:
            _write_phase2(farm, logdir, name)
        daemon.wait_new_worker(victim, old_pid)
        for name in TENANTS:
            daemon.wait_pushed(
                name,
                {
                    str(_src(logdir, name, "s1.log")): FULL_PER_SOURCE,
                    str(_src(logdir, name, "s2.log")): FULL_PER_SOURCE,
                },
            )
        if check_metrics:
            metrics = daemon.metrics_text()
            for metric in BUDGET_METRICS:
                assert metric in metrics, f"{metric} missing from /metrics"
        daemon.drain()
        assert daemon.wait_exit() == 0, daemon.stderr
    finally:
        daemon.kill()

    # The killed tenant resumed byte-identical from its checkpoint.
    assert (
        tenant_fingerprint(workdir / victim) == farm["reference"][victim]
    ), f"{victim}: post-kill resume diverged from the reference"
    arc = supervisor_arc(workdir / victim)
    assert "restarting" in arc and arc[-1] == "drained"

    # The survivor never noticed: strict operational no-op.
    assert (
        tenant_fingerprint(workdir / survivor)
        == farm["reference"][survivor]
    ), f"{survivor}: neighbor's kill leaked into this tenant"
    assert transition_kinds(workdir / survivor) == []
    assert set(supervisor_arc(workdir / survivor)) <= {"healthy", "drained"}
    assert not (workdir / survivor / "quarantine.jsonl").exists()


class TestKillOneWorker:
    def test_serial_lane_victim_process_lane_survivor(self, farm):
        _kill_one_worker(
            farm, "kill-serial", "t-serial", "t-procs", seed="77",
            check_metrics=True,
        )

    def test_process_lane_victim_serial_lane_survivor(self, farm):
        _kill_one_worker(
            farm, "kill-procs", "t-procs", "t-serial", seed="88"
        )
