"""Deterministic chaos gate for the serve daemon (DESIGN.md §14).

A real two-tenant ``repro serve`` process — one serial-lane tenant,
one process-lane tenant — is driven through scripted disasters while it
live-tails its source logs: rotation mid-read, in-place truncation,
disk-full during checkpointing, SIGKILL mid-tail.  After every
scenario, each tenant's served digest must be
``hotpath.stream_fingerprint`` byte-identical to an unfaulted
in-process run over the same final data; the clean no-fault scenario
additionally pins that live tailing itself is a strict no-op (no
quarantine, no degraded transitions).

Determinism comes from observation gates, not sleeps: every scripted
fault waits on daemon-reported state (per-source ``pushed`` counts,
rotation/truncation counters) through the HTTP surface, and a positive
``max_reorder_delay`` (the tenant default) makes the ingest's emission
order invariant to arrival timing — see ``repro.netsim.chaos`` for the
argument.

Run via ``make chaos-smoke`` (wired into ``make check``); the full
chaos tier is ``make chaos``.
"""

from __future__ import annotations

import json
import os
import signal
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

pytestmark = pytest.mark.chaos

REPO_ROOT = Path(__file__).resolve().parent.parent
TENANTS = ("t-serial", "t-procs")
N_MESSAGES = 600
PHASE1 = 400
#: Per-source line counts: each tenant's feed splits even/odd across
#: s1/s2, so phase 1 holds 200 lines per source and the full window 300.
PHASE1_PER_SOURCE = PHASE1 // 2
FULL_PER_SOURCE = N_MESSAGES // 2


def _append(path: Path, messages) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for message in messages:
            fh.write(format_line(message) + "\n")


@pytest.fixture(scope="module")
def farm(system_a, live_a, tmp_path_factory):
    """Chaos layout: message window, tenant specs, reference prints.

    The reference for *every* scenario is the same: an uninterrupted
    in-process run over the complete window — rotation and truncation
    (as scripted here) lose no lines, and crash recovery must not
    either.
    """
    root = tmp_path_factory.mktemp("chaos")
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
        }

    reference = {}
    ref_root = root / "reference"
    for name in TENANTS:
        logdir = ref_root / "logs"
        (logdir / name).mkdir(parents=True, exist_ok=True)
        write_log(logdir / name / "s1.log", messages[0::2])
        write_log(logdir / name / "s2.log", messages[1::2])
        reference[name] = reference_fingerprint(
            tenant_dict(name, logdir, ref_root / "work")
        )

    return {
        "root": root,
        "messages": messages,
        "tenant_dict": tenant_dict,
        "reference": reference,
    }


def _scenario(farm, label: str, *, phase1_only: bool = True, **overrides):
    """Lay out one scenario's logs + daemon config in fresh directories."""
    root = farm["root"] / label
    logdir = root / "logs"
    workdir = root / "work"
    messages = farm["messages"]
    upto = PHASE1 if phase1_only else N_MESSAGES
    for name in TENANTS:
        (logdir / name).mkdir(parents=True)
        write_log(logdir / name / "s1.log", messages[0:upto:2])
        write_log(logdir / name / "s2.log", messages[1:upto:2])
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
    config.update(overrides)
    return config, logdir, workdir


def _src(logdir: Path, tenant: str, which: str) -> Path:
    return logdir / tenant / which


def _write_phase2(farm, logdir: Path, tenant: str) -> None:
    """Append the window's second half to a tenant's live feeds."""
    messages = farm["messages"]
    _append(_src(logdir, tenant, "s1.log"), messages[PHASE1:N_MESSAGES:2])
    _append(
        _src(logdir, tenant, "s2.log"), messages[PHASE1 + 1 : N_MESSAGES : 2]
    )


def _assert_matches_reference(farm, workdir: Path) -> None:
    for name in TENANTS:
        got = tenant_fingerprint(workdir / name)
        assert got == farm["reference"][name], (
            f"tenant {name}: faulted live run diverged from the "
            "uninterrupted reference"
        )


class TestCleanRun:
    def test_live_tailing_alone_is_a_strict_noop(self, farm):
        """No faults => byte-identity plus zero operational noise."""
        config, logdir, workdir = _scenario(
            farm, "clean", phase1_only=False
        )
        daemon = ChaosDaemon(config, workdir, seed="11", repo_root=REPO_ROOT)
        daemon.start()
        try:
            for name in TENANTS:
                daemon.wait_pushed(
                    name,
                    {
                        str(_src(logdir, name, "s1.log")): FULL_PER_SOURCE,
                        str(_src(logdir, name, "s2.log")): FULL_PER_SOURCE,
                    },
                )
            daemon.drain()
            assert daemon.wait_exit() == 0, daemon.stderr
        finally:
            daemon.kill()
        _assert_matches_reference(farm, workdir)
        for name in TENANTS:
            assert transition_kinds(workdir / name) == []
            assert set(supervisor_arc(workdir / name)) <= {
                "healthy",
                "drained",
            }
            assert not (workdir / name / "quarantine.jsonl").exists()


class TestRotation:
    def test_rotate_while_reading_loses_nothing(self, farm):
        config, logdir, workdir = _scenario(farm, "rotate")
        daemon = ChaosDaemon(config, workdir, seed="22", repo_root=REPO_ROOT)
        daemon.start()
        try:
            # Rotate only after the tailer has demonstrably adopted the
            # file (a rotation before its first poll would orphan it).
            for name in TENANTS:
                daemon.wait_pushed(
                    name, {str(_src(logdir, name, "s1.log")): 100}
                )
            for name in TENANTS:
                s1 = _src(logdir, name, "s1.log")
                os.replace(s1, s1.with_name("s1.log.1"))
                write_log(
                    s1, farm["messages"][PHASE1:N_MESSAGES:2]
                )  # fresh inode
                _append(
                    _src(logdir, name, "s2.log"),
                    farm["messages"][PHASE1 + 1 : N_MESSAGES : 2],
                )
            for name in TENANTS:
                daemon.wait_pushed(
                    name,
                    {
                        str(_src(logdir, name, "s1.log")): FULL_PER_SOURCE,
                        str(_src(logdir, name, "s2.log")): FULL_PER_SOURCE,
                    },
                )
                rows = {
                    row["source"]: row for row in daemon.sources(name)
                }
                assert (
                    rows[str(_src(logdir, name, "s1.log"))]["rotations"]
                    >= 1
                )
            daemon.drain()
            assert daemon.wait_exit() == 0, daemon.stderr
        finally:
            daemon.kill()
        _assert_matches_reference(farm, workdir)


class TestTruncation:
    def test_truncate_in_place_restarts_cleanly(self, farm):
        config, logdir, workdir = _scenario(farm, "truncate")
        daemon = ChaosDaemon(config, workdir, seed="33", repo_root=REPO_ROOT)
        daemon.start()
        try:
            # Every phase-1 line must be pushed before the truncation
            # destroys them — the scripted fault models "copytruncate"
            # after the reader caught up, not data loss.
            for name in TENANTS:
                daemon.wait_pushed(
                    name,
                    {
                        str(_src(logdir, name, "s1.log")): PHASE1_PER_SOURCE,
                        str(_src(logdir, name, "s2.log")): PHASE1_PER_SOURCE,
                    },
                )
            for name in TENANTS:
                with open(_src(logdir, name, "s1.log"), "r+b") as fh:
                    fh.truncate(0)  # same inode, size collapses
            # The daemon must *observe* the truncation before new bytes
            # land, or a longer successor could masquerade as append.
            for name in TENANTS:
                daemon.wait_counter(
                    name,
                    str(_src(logdir, name, "s1.log")),
                    "truncations",
                )
            for name in TENANTS:
                _write_phase2(farm, logdir, name)
            for name in TENANTS:
                daemon.wait_pushed(
                    name,
                    {
                        str(_src(logdir, name, "s1.log")): FULL_PER_SOURCE,
                        str(_src(logdir, name, "s2.log")): FULL_PER_SOURCE,
                    },
                )
            daemon.drain()
            assert daemon.wait_exit() == 0, daemon.stderr
        finally:
            daemon.kill()
        _assert_matches_reference(farm, workdir)


class TestKillMidTail:
    def test_sigkill_mid_tail_resumes_byte_identical(self, farm):
        # Phase 1 is 800 arrivals across both tenants; the crash hook
        # fires at 900 — i.e. mid-way through tailing the phase-2
        # appends, with live cursors in the checkpoints.
        config, logdir, workdir = _scenario(
            farm, "sigkill", crash_after=900
        )
        daemon = ChaosDaemon(config, workdir, seed="44", repo_root=REPO_ROOT)
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
            for name in TENANTS:
                _write_phase2(farm, logdir, name)
            assert daemon.wait_exit() == -signal.SIGKILL, daemon.stderr
        finally:
            daemon.kill()
        # Mid-tail state is on disk: both tenants checkpointed.
        for name in TENANTS:
            assert (workdir / name / "checkpoint.ckpt").exists()

        # Restart over the same workdir, different hash seed; ``once``
        # drains when the (now complete) sources are exhausted.
        resume = dict(config)
        resume.pop("crash_after")
        resume["once"] = True
        second = ChaosDaemon(resume, workdir, seed="55", repo_root=REPO_ROOT)
        second.start()
        try:
            assert second.wait_exit() == 0, second.stderr
        finally:
            second.kill()
        _assert_matches_reference(farm, workdir)


class TestDiskFull:
    def test_disk_full_during_checkpoint_degrades_not_crashes(self, farm):
        # The first two checkpoint write attempts in the daemon process
        # hit injected ENOSPC ("checkpoint.ckpt" also matches the
        # ".new" temp names; events.bin and quarantine.jsonl never do).
        config, logdir, workdir = _scenario(
            farm,
            "diskfull",
            phase1_only=False,
            once=True,
            fault={
                "kind": "disk_full",
                "match": "checkpoint.ckpt",
                "after": 1,
                "times": 2,
            },
        )
        daemon = ChaosDaemon(config, workdir, seed="66", repo_root=REPO_ROOT)
        daemon.start()
        try:
            assert daemon.wait_exit() == 0, daemon.stderr
        finally:
            daemon.kill()
        kinds = []
        for name in TENANTS:
            kinds.extend(transition_kinds(workdir / name))
        assert "durable-write-failed" in kinds
        assert "durable-write-recovered" in kinds
        # Degradation never cost a single event.
        _assert_matches_reference(farm, workdir)
        for name in TENANTS:
            assert (workdir / name / "checkpoint.ckpt").exists()
