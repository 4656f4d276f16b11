# Convenience targets; everything assumes the in-tree layout (PYTHONPATH=src).

PY = PYTHONPATH=src python

.PHONY: check test faults lifecycle ingest serve serve-smoke chaos chaos-smoke placement placement-smoke bench bench-refresh bench-ingest bench-ledger bench-ledger-trace clean

# The pre-merge gate: one pass of the full tier-1 suite.  Every
# byte-identity gate (checkpoint kill-and-resume, zero-drift canary,
# ingest clean-feed no-op, hot-path and executor-lane identity,
# shard-retry determinism, serve / chaos / placement smokes) is a test
# in it; the named targets below re-run single gates on demand.
check:
	$(PY) -m pytest -x -q

# Tier-1 without the heavier fault-injection tests.
test:
	$(PY) -m pytest -x -q -m "not faults"

# Only the fault-injection robustness tests + the fault bench.
faults:
	$(PY) -m pytest -q -m faults
	$(PY) -m pytest -q benchmarks/bench_faults.py

# Knowledge-lifecycle tests: model store, promotion gate, hot swap.
lifecycle:
	$(PY) -m pytest -q -m lifecycle

# Resilient multi-source ingest tests: watermark reordering, breakers,
# dedup, admission control, ingest x checkpoint round-trips.
ingest:
	$(PY) -m pytest -q -m ingest

# All serve-daemon tests: journal, supervisor state machine, tenant
# runtime, HTTP API, and the cross-process smoke gate.
serve:
	$(PY) -m pytest -q -m serve

# Just the end-to-end crash-recovery smoke gate (part of tier-1):
# kill -9 a live two-tenant daemon mid-stream, restart it, and require
# a byte-identical digest; SIGTERM must drain to exit 0.
serve-smoke:
	$(PY) -m pytest -q tests/test_serve_smoke.py

# Every chaos-marked test: live-daemon disaster scenarios plus any
# future chaos tiers.
chaos:
	$(PY) -m pytest -q -m chaos

# The deterministic chaos gate (part of tier-1): drive a live
# two-tenant daemon through scripted rotate-while-reading, truncate,
# disk-full-during-checkpoint, and SIGKILL-mid-tail, requiring a
# byte-identical digest against an unfaulted run each time; the clean
# run must produce zero quarantined lines and zero degraded
# transitions.
chaos-smoke:
	$(PY) -m pytest -q tests/test_chaos_smoke.py

# Every placement-marked test: the bulkhead tier — framed-pipe RPC
# protocol suite, worker-process supervision (SIGKILL / poison batch /
# RPC-deadline hang), budget shed, long-poll, HTTP hardening, and the
# cross-process partial-failure gate.
placement:
	$(PY) -m pytest -q -m placement tests/test_serve_rpc.py tests/test_serve_placement.py tests/test_placement_smoke.py

# The partial-failure chaos gate (part of tier-1): a live
# two-tenant daemon with per-tenant worker processes has one tenant's
# worker SIGKILLed mid-stream; the survivor must be a strict no-op and
# the victim must resume byte-identical, with the budget metric series
# present in /metrics.
placement-smoke:
	$(PY) -m pytest -q tests/test_placement_smoke.py

# Full paper-reproduction benchmark sweep (slow; writes benchmarks/results/).
bench:
	$(PY) -m pytest -q benchmarks/

# Drift response of the refresh→gate→promote loop (writes
# benchmarks/results/refresh_drift.txt).
bench-refresh:
	$(PY) -m pytest -q benchmarks/bench_refresh.py

# Ingest disorder harness: recall and buffer bounds under reorder +
# duplication + a flapping feed (writes benchmarks/results/
# ingest_disorder.txt).
bench-ingest:
	$(PY) -m pytest -q benchmarks/bench_ingest.py

# The ledger (BENCHMARK.json; benchmarks/ledger/README.md): all five
# workloads end to end, each in a fresh child process, from a bare
# checkout — run.py puts src/ on sys.path itself.
bench-ledger:
	python3 benchmarks/ledger/run.py --seed 7

# The separate traced run: per-layer numbers and the ranked list,
# including the per-lane core.stream.lane.* rows.
bench-ledger-trace:
	python3 benchmarks/ledger/run.py --seed 7 --trace 1

clean:
	rm -rf .pytest_cache $$(find . -name __pycache__ -type d)
