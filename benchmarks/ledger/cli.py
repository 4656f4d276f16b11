"""Command line of the ledger.

Two modes share one program:

* ``--workload NAME`` runs that workload once in this process and ends
  with one JSON line (``correct``/``attempted``/``failed``/``metrics``) —
  the form the driver named in ``BENCHMARK.json`` consumes.
* without ``--workload`` every workload runs once, each in a fresh child
  process (so peak RSS is per workload and a leak cannot carry over), and
  a summary follows.

``--trace`` selects the separate traced run: per-layer metrics and the
ranked "who owns the time" list instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

from . import batch, serve
from .hygiene import ROOT, claim_workdir
from .measure import Outcome, WorkloadFailed
from .tracing import ranked_by_self

#: ``--quick`` divides every size and the run length by this.
QUICK_SCALE = 20

RUNNERS = {
    "batch_backbone": batch.run,
    "batch_burst": batch.run,
    "serve_backlog": serve.run,
    "serve_paced": serve.run,
    "serve_read": serve.run,
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _run_record(args) -> str:
    return (
        f"commit={_commit()} nproc={os.cpu_count()} "
        f"python={platform.python_version()} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
        + (" quick (sizes / 20: never compare these numbers)" if args.quick else "")
    )


def _result(spec: dict, outcome: Outcome, trace: bool) -> dict:
    """The driver's JSON object: exactly the metrics the spec declares."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    extra = set(outcome.metrics) - names
    if extra:
        raise WorkloadFailed(f"undeclared metrics emitted: {sorted(extra)}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in outcome.metrics:
            value = outcome.metrics[name][0]
        elif trace:
            value = 0.0  # a layer this workload never enters
        else:
            raise WorkloadFailed(f"end-to-end metric {name} not measured")
        if math.isnan(value) or math.isinf(value):
            raise WorkloadFailed(f"{name} is {value}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def _print_report(args, outcome: Outcome, result: dict) -> None:
    print(f"# ledger {args.workload}: {_run_record(args)}")
    notes = " ".join(f"{k}={v}" for k, v in outcome.notes.items())
    print(f"#   {notes}")
    print(
        f"#   attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    width = max(len(name) for name in result["metrics"])
    for name, entry in result["metrics"].items():
        samples = outcome.metrics.get(name, (0.0, 0))[1]
        print(
            f"  {name:<{width}}  {entry['value']:>14.4f} {entry['unit']:<6}"
            f" n={samples}"
        )
    if outcome.self_seconds:
        print("#   who owns the time (self seconds, share):")
        for name, seconds, share in ranked_by_self(outcome.self_seconds):
            print(f"  {name:<{width}}  {seconds:>10.4f} s  {share:6.1%}")


def _run_one(args, spec: dict) -> int:
    scale = QUICK_SCALE if args.quick else 1
    workdir = claim_workdir()
    try:
        outcome = RUNNERS[args.workload](
            args.workload, args.seed, args.seconds, scale, bool(args.trace), workdir
        )
        result = _result(spec, outcome, bool(args.trace))
    except WorkloadFailed as exc:
        print(f"ledger: {args.workload} FAILED: {exc}", file=sys.stderr)
        return 1
    _print_report(args, outcome, result)
    print(json.dumps(result))
    return 0


def _run_all(args, spec: dict) -> int:
    """Every workload once, each in its own child process."""
    print(f"# ledger: {_run_record(args)}")
    status = 0
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [
            sys.executable,
            str(Path(__file__).with_name("run.py")),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    print("# summary: workload attempted failed")
    for workload, result in results.items():
        print(f"  {workload:<16} {result['attempted']:>9} {result['failed']:>6}")
        if result["failed"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="how long one workload measures (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: the traced per-layer run instead of the end-to-end run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="sizes and run length / 20: a smoke run, never compared",
    )
    args = parser.parse_args(argv)
    if args.workload:
        return _run_one(args, spec)
    return _run_all(args, spec)
