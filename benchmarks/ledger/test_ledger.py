"""Self-test of the ledger harness (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Every run here is ``--quick`` (sizes and run length / 20): the numbers are
smoke, the *shape* of the output is what is pinned — exactly the workloads
and metrics ``BENCHMARK.json`` declares, sane values, seeded inputs.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.ledger import feeds
from benchmarks.ledger.hygiene import PID_FILE, ROOT, WORK_ROOT
from benchmarks.ledger.tracing import Tracer, ranked_by_self

RUN = [sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _quick(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, "--quick", "--seed", "7", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_exactly_the_declared_metrics(workload, trace):
    done = _quick("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    assert "quick" in done.stdout.splitlines()[0]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert entry["unit"] == metric["unit"]
        assert not math.isnan(entry["value"]) and entry["value"] >= 0
        if not trace:
            assert entry["value"] > 0, metric["name"]
    if trace:
        value = {k: v["value"] for k, v in result["metrics"].items()}
        # A layer's self time is part of its busy time, and children
        # never add up to more than their parent.
        for name in value:
            if name.endswith(".self_s"):
                assert value[name] <= value[name[:-7] + ".busy_s"] + 1e-9
        assert (
            value["syslog.ingest.push_line.busy_s"]
            + value["serve.tenant.checkpoint.busy_s"]
            <= value["serve.tenant.process_batch.busy_s"]
            + value["serve.tenant.drain.busy_s"] + 1e-9
        )
        assert (
            value["core.grouping.group.busy_s"] > 0
        ) == workload.startswith("batch")
        assert "who owns the time" in done.stdout


def test_running_everything_prints_every_workload_and_a_summary():
    done = _quick()
    assert done.returncode == 0, done.stderr
    for workload in WORKLOADS:
        assert f"# ledger {workload}:" in done.stdout
    assert "# summary" in done.stdout
    for metric in SPEC["end_to_end"]:
        assert done.stdout.count(f"  {metric['name']} ") == len(WORKLOADS)


@pytest.mark.parametrize("feed", [feeds.BACKBONE, feeds.BURST, feeds.SPARSE])
def test_same_seed_same_file_other_seed_other_file(feed, tmp_path):
    def write(seed: int, name: str) -> bytes:
        gen = feeds.generator(feed)
        feeds.write_lines(tmp_path / name, feeds.feed_lines(gen, feed, seed, 400))
        return (tmp_path / name).read_bytes()

    assert write(7, "a.log") == write(7, "b.log")
    assert write(7, "a.log") != write(11, "c.log")


def test_burst_feed_is_time_ordered_and_squeezed():
    gen = feeds.generator(feeds.BURST)
    stamps = [line[:19] for line in feeds.feed_lines(gen, feeds.BURST, 7, 8000)]
    assert stamps == sorted(stamps)
    # Every line falls in the first 30 s of its 5-minute period.
    assert all(int(s[14:16]) % 5 == 0 and int(s[17:19]) < 30 for s in stamps)


def test_tracer_self_time_is_busy_minus_children():
    tracer = Tracer()

    class Layer:
        def child(self):
            time.sleep(0.01)

        def parent(self):
            time.sleep(0.01)
            self.child()
            self.child()

    layer = Layer()
    tracer.wrap(layer, "child", "child")
    tracer.wrap(layer, "parent", "parent")
    layer.parent()
    Layer().parent()  # other instances stay untimed
    assert tracer.calls == {"child": 2, "parent": 1}
    assert tracer.busy["child"] <= tracer.busy["parent"]
    assert tracer.self_s("parent") == pytest.approx(
        tracer.busy["parent"] - tracer.busy["child"]
    )
    assert tracer.self_s("child") == tracer.busy["child"]
    rows = ranked_by_self({"a": 1.0, "b": 3.0})
    assert [r[0] for r in rows] == ["b", "a"] and rows[0][2] == 0.75


def test_refuses_to_start_beside_a_leaked_daemon():
    # Something that looks like a daemon left behind by a run that died.
    leaked = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(120)", "-m", "repro.cli"]
    )
    dead_owner = subprocess.Popen([sys.executable, "-c", "pass"])
    dead_owner.wait()
    run_dir = WORK_ROOT / f"run-{dead_owner.pid}-leak"
    try:
        (run_dir / "state").mkdir(parents=True)
        (run_dir / "state" / "http.port").write_text("1")
        (run_dir / "state" / PID_FILE).write_text(str(leaked.pid))
        done = _quick("--workload", "batch_burst")
        assert done.returncode != 0
        assert "refusing to start" in done.stderr
        assert done.stdout == ""
        leaked.kill()
        leaked.wait()
        # The daemon is gone: its directory is swept and the run starts.
        assert _quick("--workload", "batch_burst").returncode == 0
        assert not run_dir.exists()
    finally:
        leaked.kill()
        leaked.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: the command must fail, not print a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "batch_backbone", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_run_leaves_no_process_and_no_scratch_behind():
    assert _quick("--workload", "serve_backlog").returncode == 0
    assert not WORK_ROOT.exists() or not any(WORK_ROOT.iterdir())
    listing = subprocess.run(
        ["ps", "-eo", "args"], capture_output=True, text=True
    ).stdout
    assert "repro.cli serve" not in listing
    assert "repro.serve.worker" not in listing
