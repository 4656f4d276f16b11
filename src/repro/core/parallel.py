"""Sharded parallel execution of the digest grouping passes.

The temporal and rule passes only ever relate messages on the *same*
router, so partitioning the Syslog+ stream by router and running those
passes per shard produces exactly the edges the serial engine would —
edges are expressed over global message indices, and the union-find merge
of the paper's Section 4.2.3 is order-invariant, so unioning per-shard
edge sets afterwards yields identical connected components.  Only the
cross-router pass needs the merged stream; it runs once, serially, after
the shards.

Batch parallelism uses a process pool (the passes are pure Python, so
threads gain nothing under the GIL); each task ships one shard's messages
plus the read-only knowledge it needs and returns plain edge lists, which
keeps the payloads picklable.  If a pool cannot be created or a payload
cannot be pickled (restricted sandboxes, exotic platforms), the engine
degrades to running the same shard tasks serially in-process — the result
is identical either way, a property the tests pin.  Individual worker
failures are survivable too: a shard task that raises is retried once on
the pool, then falls back to in-process serial execution for that shard
— the same :func:`~repro.core.shards.run_ladder` the streaming executor
uses — so a dying worker degrades throughput, never correctness.

Streaming parallelism shares the same shard axis but its state machines
are *stateful* across batches; it lives in :mod:`repro.core.shards`.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from repro.core.config import DigestConfig
from repro.core.grouping import (
    Edge,
    GroupingEngine,
    GroupingOutcome,
    build_rule_partners,
    collect_outcome,
    cross_router_edges,
    rule_edges,
    temporal_edges,
)
from repro.core.knowledge import KnowledgeBase
from repro.core.shards import POOL_ERRORS, resolve_workers, run_ladder
from repro.core.syslogplus import SyslogPlus
from repro.mining.temporal import TemporalParams
from repro.obs import (
    SHARD_IMBALANCE,
    SHARD_MESSAGES,
    SHARD_SECONDS,
    SHARD_TASK_SECONDS,
    get_registry,
    stage_timer,
)
from repro.utils import inject
from repro.utils.unionfind import DenseUnionFind


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of routers to shards."""

    n_shards: int
    shard_of: dict[str, int]

    def split(self, stream: list[SyslogPlus]) -> list[list[SyslogPlus]]:
        """Partition a time-sorted stream into per-shard sorted streams."""
        shards: list[list[SyslogPlus]] = [[] for _ in range(self.n_shards)]
        for plus in stream:
            shards[self.shard_of[plus.router]].append(plus)
        return shards


def plan_shards(stream: list[SyslogPlus], n_shards: int) -> ShardPlan:
    """Greedy balanced assignment of routers to at most ``n_shards`` shards.

    Routers are placed heaviest-first onto the least-loaded shard
    (longest-processing-time heuristic), with deterministic tie-breaks so
    the same stream always yields the same plan.
    """
    counts = Counter(plus.router for plus in stream)
    n = max(1, min(n_shards, len(counts)))
    loads = [0] * n
    shard_of: dict[str, int] = {}
    for router, count in sorted(
        counts.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        shard = min(range(n), key=lambda s: (loads[s], s))
        shard_of[router] = shard
        loads[shard] += count
    return ShardPlan(n_shards=n, shard_of=shard_of)


def shard_edge_task(
    payload: tuple[
        list[SyslogPlus],
        TemporalParams,
        float,
        dict[str, tuple[str, ...]],
        float,
        object,
        bool,
        bool,
    ]
) -> tuple[list[Edge], set[tuple[str, str]]]:
    """Run the shard-local passes over one shard; top-level for pickling."""
    (
        shard,
        temporal_params,
        reset_after,
        partners,
        window,
        dictionary,
        enable_temporal,
        enable_rules,
    ) = payload
    edges: list[Edge] = []
    active: set[tuple[str, str]] = set()
    if enable_temporal:
        edges.extend(temporal_edges(shard, temporal_params, reset_after))
    if enable_rules:
        rule, active = rule_edges(shard, partners, window, dictionary)
        edges.extend(rule)
    return edges, active


def timed_shard_edge_task(
    payload, shard_id: int = 0, attempt: int = 0, fault=None
) -> tuple[list[Edge], set[tuple[str, str]], float]:
    """The production shard task: :func:`shard_edge_task` plus its wall
    time, measured in the worker.

    The duration rides back with the result so per-shard timings survive
    the process boundary (a child's registry writes would be lost).
    ``fault`` is the armed ``shard.task`` hook, shipped with the task and
    called with ``(shard_id, attempt)`` before the work; the computation
    ignores both, so retries are trivially deterministic: shard tasks
    are pure functions of their payload.
    """
    if fault is not None:
        fault(shard_id, attempt)
    t0 = perf_counter()
    edges, active = shard_edge_task(payload)
    return edges, active, perf_counter() - t0


class ParallelGroupingEngine:
    """Router-sharded grouping with the same contract as GroupingEngine.

    ``group`` returns a :class:`GroupingOutcome` identical — including
    group membership, group order and member order — to what the serial
    engine produces on the same stream.
    """

    def __init__(self, kb: KnowledgeBase, config: DigestConfig) -> None:
        self._kb = kb
        self._config = config
        self._partners = build_rule_partners(kb.rule_pairs())
        # The armed shard.task hook rides to the pool with every task,
        # so it must be picklable.
        self._fault = inject.hook(inject.SHARD_TASK)

    def group(self, stream: list[SyslogPlus]) -> GroupingOutcome:
        """Group the whole stream; input must be time-sorted."""
        cfg = self._config
        plan = plan_shards(stream, resolve_workers(cfg.n_workers))
        if plan.n_shards == 1:  # one worker, one router, or no messages
            return GroupingEngine(self._kb, cfg).group(stream)

        # The LPT plan leaves no shard empty (n_shards <= routers), so
        # a payload's position is its shard id.
        payloads = [
            (
                shard,
                self._kb.temporal,
                cfg.flush_after,
                self._partners,
                cfg.window,
                self._kb.dictionary,
                cfg.enable_temporal,
                cfg.enable_rules,
            )
            for shard in plan.split(stream)
        ]

        registry = get_registry()
        sizes = [len(payload[0]) for payload in payloads]
        if registry.enabled:
            for shard_id, size in enumerate(sizes):
                registry.set_gauge(
                    SHARD_MESSAGES, size, shard=str(shard_id)
                )
            # LPT imbalance: heaviest shard over the mean shard load.
            # 1.0 is a perfectly balanced plan.
            registry.set_gauge(
                SHARD_IMBALANCE, max(sizes) * len(sizes) / sum(sizes)
            )

        # Dense merge over batch positions; shard edges come back in
        # global indices and translate through one dict hop per endpoint.
        pos = {plus.index: i for i, plus in enumerate(stream)}
        uf = DenseUnionFind(len(stream))
        active_rules: set[tuple[str, str]] = set()
        with stage_timer("shard_passes", registry):
            results = self._run_shards(payloads)
        for shard_id, (edges, active, seconds) in enumerate(results):
            if registry.enabled:
                registry.set_gauge(
                    SHARD_SECONDS, seconds, shard=str(shard_id)
                )
                registry.observe(SHARD_TASK_SECONDS, seconds)
            for a, b in edges:
                uf.union(pos[a], pos[b])
            active_rules |= active

        if cfg.enable_cross_router:
            with stage_timer("cross_router_pass", registry):
                for a, b in cross_router_edges(
                    stream, cfg.cross_router_window, self._kb.dictionary
                ):
                    uf.union(pos[a], pos[b])
        with stage_timer("collect", registry):
            return collect_outcome(stream, uf, active_rules, pos)

    def _run_shards(self, payloads):
        """Run shard tasks on a process pool with per-task recovery.

        The shared ladder, so one bad worker can never kill the digest:
        a task that raises is retried once on the pool (transient worker
        death, OOM kill, flaky interpreter state); one that fails its
        retry — or every task, when the pool cannot be created or a
        payload cannot be pickled — runs serially in-process using the
        *production* task.  Shard tasks are pure functions of their
        payload, so a retry or fallback produces exactly the result the
        first attempt would have — determinism tests pin this.
        """
        results: list = [None] * len(payloads)
        try:
            pool = ProcessPoolExecutor(max_workers=len(payloads))
        except POOL_ERRORS:
            pool = None  # no process support (sandboxed platform)

        def run_attempt(pending, attempt, on_pool):
            if not on_pool:
                # The in-process fallback runs the production task
                # directly: injected worker faults model *worker*
                # failures and must not survive into the trusted path.
                for i in pending:
                    results[i] = timed_shard_edge_task(payloads[i])
                return {}
            task, fault = timed_shard_edge_task, self._fault
            try:
                futures = {
                    i: pool.submit(task, payloads[i], i, attempt, fault)
                    for i in pending
                }
            except POOL_ERRORS as exc:
                return dict.fromkeys(pending, repr(exc))
            errors = {}
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except Exception as exc:
                    errors[i] = repr(exc)
            return errors

        try:
            # Without a pool there is nothing to retry on: straight to
            # the in-process rung, counted as fallbacks only.
            run_ladder(
                range(len(payloads)), run_attempt, "batch", pool is not None
            )
        finally:
            if pool is not None:
                pool.shutdown()
        return results
