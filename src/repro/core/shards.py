"""Shard state and the one executor that steps it (DESIGN.md §12).

The temporal and rule passes only ever relate messages on the *same*
router, and the union-find merge of the paper's §4.2.3 is
order-invariant, so grouping state partitions by router into
:class:`ShardState` instances whose steps are independent.  *How* those
steps are executed can therefore never change a digest, and is written
exactly once: one step loop (:meth:`ShardState.apply`), one retry ladder
(:func:`run_ladder`, shared with the batch
:class:`~repro.core.parallel.ParallelGroupingEngine`), and one
:class:`ShardExecutor` whose lane is nothing but a transport — a plain
loop (``serial``, the default), a thread pool (``threads``), or pipes to
persistent worker processes that own the states (``processes``).  See
the ledger rows (``benchmarks/ledger/README.md``) before choosing a lane
other than ``serial``.
"""

from __future__ import annotations

import os
import pickle
import traceback
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import NamedTuple

from repro.core.config import DigestConfig
from repro.core.grouping import Edge, WindowIndex, rule_window
from repro.core.knowledge import KnowledgeBase
from repro.mining.temporal import TemporalSplitter
from repro.obs import (
    SHARD_FALLBACKS,
    SHARD_RETRIES,
    STREAM_WORKER_ROUNDTRIPS,
    STREAM_WORKER_RTT_SECONDS,
    get_registry,
)

#: What a missing or unusable process facility raises (sandboxed
#: platform, unpicklable payload): both engines degrade on these —
#: same grouping, one process.
POOL_ERRORS = (
    OSError,
    ValueError,
    RuntimeError,
    TypeError,
    AttributeError,
    pickle.PicklingError,
)


def resolve_workers(n_workers: int) -> int:
    """Turn the config knob into a concrete worker count (0 = all cores)."""
    if n_workers == 0:
        return os.cpu_count() or 1
    return n_workers


class StepItem(NamedTuple):
    """The shard-step view of one admitted message.

    Exactly the fields :meth:`ShardState.step` reads, and nothing else.
    The process lane ships one of these over a pipe per message, so the
    payload stays five plain fields instead of a full Syslog+ (whose
    template and location baggage the shard passes never touch).  All
    lanes step on StepItems, so shard state — including what a
    checkpoint captures — is identical whichever lane produced it.
    """

    index: int
    timestamp: float
    router: str
    template_key: str
    primary_location: object


class ShardState:
    """Per-shard grouping state: temporal splitters plus rule windows.

    One shard owns a subset of the routers; all its structures are keyed
    by router (or by a router-containing key), so two shards never touch
    the same entries and their steps can run concurrently.  Steps return
    edges over global message indices instead of mutating the shared
    union-find, which keeps them side-effect free outside the shard.

    The fault-injection seams live beside the loop that fires them
    (:meth:`apply`): ``fault_hook(shard_id, attempt)`` is called at the
    *start* of each attempt, before any state is touched;
    ``step_hook(shard_id, attempt, position)`` before *each* message's
    step, so an injected mid-list failure lands at a chosen message
    with the prefix cleanly applied.  Attempt 0 is the first run, 1 the
    retry; the final hook-free resume bypasses both.
    """

    def __init__(
        self,
        shard_id: int,
        kb: KnowledgeBase,
        config: DigestConfig,
        partners: dict[str, tuple[str, ...]],
        fault_hook: Callable[[int, int], None] | None = None,
        step_hook: Callable[[int, int, int], None] | None = None,
    ) -> None:
        self._shard_id = shard_id
        self._kb = kb
        self._config = config
        self._partners = partners
        self._fault_hook = fault_hook
        self._step_hook = step_hook
        self._splitters: dict[tuple, TemporalSplitter] = {}
        # Splitter instance serials namespace temporal group identities,
        # so an evicted-and-recreated splitter can never union with the
        # groups of its predecessor.  (shard_id, serial) is globally
        # unique across shards.
        self._serial_of: dict[tuple, int] = {}
        self._n_created = 0
        self._temporal_tail: dict[tuple, int] = {}
        # router -> that router's window of (arrival ts, step item)
        self._rule_window: dict[str, WindowIndex] = {}

    # ----------------------------------------------------------------- steps

    def apply(
        self,
        items: list[tuple[StepItem, float]],
        attempt: int = 0,
        use_hooks: bool = False,
        base: int = 0,
    ) -> tuple[int, list[Edge], str | None]:
        """Step ``items`` in order — the one step loop of every lane.

        ``base`` is the batch position of ``items[0]``.  Returns
        ``(cursor, edges, error)``: the batch position of the first
        message that did *not* fully apply (``base + len(items)`` when
        all did), the edges produced on the way there, and the formatted
        exception that stopped the loop (else ``None``).  Only a
        fully-applied step advances the cursor, so calling again with
        the unapplied suffix and ``base=cursor`` resumes at exactly the
        failed message — a retry never replays one into
        partially-advanced splitter or window state.  The error is text,
        not the exception, so the result crosses a pipe unchanged
        whatever was raised.
        """
        fault_hook = self._fault_hook if use_hooks else None
        step_hook = self._step_hook if use_hooks else None
        step = self.step
        edges: list[Edge] = []
        cursor = base
        try:
            if fault_hook is not None:
                fault_hook(self._shard_id, attempt)
            for item, now in items:
                if step_hook is not None:
                    step_hook(self._shard_id, attempt, cursor)
                stepped = step(item, now)
                if stepped:
                    edges.extend(stepped)
                cursor += 1
        except Exception:
            return cursor, edges, traceback.format_exc()
        return cursor, edges, None

    def step(self, plus: StepItem, now: float) -> list[Edge]:
        """Run the shard-local passes for one message; return new edges."""
        edges: list[Edge] = []
        if self._config.enable_temporal:
            edge = self._temporal_step(plus, now)
            if edge is not None:
                edges.append(edge)
        if self._config.enable_rules:
            self._rule_step(plus, now, edges)
        return edges

    def _temporal_step(self, plus: StepItem, now: float) -> Edge | None:
        key = (plus.router, plus.template_key, plus.primary_location)
        splitter = self._splitters.get(key)
        if (
            splitter is not None
            and now - splitter.last_ts > self._config.flush_after
        ):
            # Lazy rhythm reset past the flush horizon — identical to the
            # batch engine's rule, so groupings stay equivalent whether or
            # not the sweep already evicted the idle splitter.
            splitter = None
        if splitter is None:
            splitter = TemporalSplitter(
                self._config.temporal,
                skew_tolerance=self._config.skew_tolerance,
            )
            self._splitters[key] = splitter
            self._serial_of[key] = self._n_created
            self._n_created += 1
        group = splitter.observe(plus.timestamp)
        group_key = (self._serial_of[key], group)
        tail = self._temporal_tail.get(group_key)
        self._temporal_tail[group_key] = plus.index
        if tail is not None:
            return (tail, plus.index)
        return None

    def _rule_step(
        self, plus: StepItem, now: float, edges: list[Edge]
    ) -> None:
        probes = self._partners.get(plus.template_key)
        if not probes:
            return  # probed by nothing either (grouping.rule_edges)
        index = self._rule_window.get(plus.router)
        if index is None:
            index = self._rule_window[plus.router] = self._new_window()
        index.relate(
            probes,
            plus.template_key,
            plus.primary_location,
            (now, plus),
            edges,
        )

    def _new_window(self) -> WindowIndex:
        return rule_window(self._kb.dictionary, self._config.window)

    # ------------------------------------------------------------ maintenance

    def evict_idle(self, horizon: float) -> int:
        """Drop splitters whose key has been quiet past ``horizon``.

        Safe because the lazy reset in :meth:`_temporal_step` would
        recreate them from scratch on next touch anyway.  Returns how
        many splitters were evicted (stream health accounting).
        """
        idle = [
            key
            for key, splitter in self._splitters.items()
            if splitter.last_ts < horizon
        ]
        for key in idle:
            del self._splitters[key]
            del self._serial_of[key]
        return len(idle)

    def prune(self, open_indices: set[int]) -> int:
        """Drop window/tail entries that reference finalized messages.

        Returns the number of entries dropped (stream health accounting).
        """
        dropped = 0
        kept_tails = {
            key: idx
            for key, idx in self._temporal_tail.items()
            if idx in open_indices
        }
        dropped += len(self._temporal_tail) - len(kept_tails)
        self._temporal_tail = kept_tails
        for router, index in list(self._rule_window.items()):
            dropped += index.prune(open_indices)
            if not index:
                del self._rule_window[router]
        return dropped

    def adopt(
        self,
        kb: KnowledgeBase,
        config: DigestConfig,
        partners: dict[str, tuple[str, ...]],
        reset_splitters: bool,
    ) -> None:
        """Switch the shard to a newly promoted knowledge base.

        Called only at an epoch boundary (no open groups), when the rule
        and temporal-tail windows are already empty.  Splitters carry
        learned per-signature rhythm that stays valid across a refresh,
        so they are kept — unless the temporal parameters themselves
        changed, in which case they are dropped and will be lazily
        rebuilt.  ``_n_created`` is *never* reset: group serials must
        stay unique across the swap or a post-swap group could union
        with a pre-swap one.
        """
        self._kb = kb
        self._config = config
        self._partners = partners
        self._rule_window = {}  # empty here; rebuilt over the new dictionary
        if reset_splitters:
            self._splitters = {}
            self._serial_of = {}

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """Plain-data capture of the shard's grouping state.

        Splitters are decomposed into their scalar fields rather than
        pickled as live objects, so :meth:`restore` always rebuilds
        fresh instances — an evicted-then-restored key can never
        resurrect stale EWMA state that the eviction already discarded.
        """
        return {
            "splitters": {
                key: {
                    "last_ts": splitter._last_ts,
                    "group": splitter._group,
                    "ewma_prediction": splitter._ewma.prediction,
                    "ewma_count": splitter._ewma.count,
                }
                for key, splitter in self._splitters.items()
            },
            "serial_of": dict(self._serial_of),
            "n_created": self._n_created,
            "temporal_tail": dict(self._temporal_tail),
            "rule_window": {
                router: index.flatten()
                for router, index in self._rule_window.items()
            },
        }

    def restore(self, state: dict) -> None:
        """Rebuild the shard from a :meth:`snapshot` capture."""
        self._splitters = {}
        for key, fields in state["splitters"].items():
            splitter = TemporalSplitter(
                self._config.temporal,
                skew_tolerance=self._config.skew_tolerance,
            )
            splitter._last_ts = fields["last_ts"]
            splitter._group = fields["group"]
            splitter._ewma._prediction = fields["ewma_prediction"]
            splitter._ewma._count = fields["ewma_count"]
            self._splitters[key] = splitter
        self._serial_of = dict(state["serial_of"])
        self._n_created = state["n_created"]
        self._temporal_tail = dict(state["temporal_tail"])
        self._rule_window = {}
        for router, flat in state["rule_window"].items():
            index = self._rule_window[router] = self._new_window()
            index.load(flat)

    def counts(self) -> tuple[int, int]:
        """Live ``(temporal splitters, rule-window entries)`` — the leak
        diagnostics behind the stream's health keys."""
        return len(self._splitters), sum(map(len, self._rule_window.values()))


# --------------------------------------------------------------------------
# The one retry ladder

#: ``(attempt, fault hooks armed)``: the first run, one retry, and a
#: final resume that bypasses the hooks — injected worker faults must
#: never kill a digest, but a genuine repeated failure still surfaces.
LADDER = ((0, True), (1, True), (2, False))


def run_ladder(
    shard_ids: Iterable[int],
    run_attempt: Callable[[list[int], int, bool], dict[int, str]],
    engine: str,
    hooks_on: bool = True,
) -> None:
    """Drive shards through :data:`LADDER` until every one has succeeded.

    ``run_attempt(pending, attempt, use_hooks)`` runs one attempt for
    the still-pending shards and returns ``{shard_id: error text}`` for
    those that failed; where a shard resumes is the callback's business
    (the streaming executor keeps a progress cursor per shard, batch
    shard tasks are pure and simply re-run).  A shard entering attempt 1
    is counted as a retry and one entering attempt 2 as a fallback, once
    each, under ``engine``.  Raises if a shard fails even hook-free.
    ``hooks_on=False`` skips the hooks-on rungs, for a caller with
    nowhere to run them (the batch engine without a process pool).
    """
    pending = list(shard_ids)
    for attempt, use_hooks in LADDER:
        if use_hooks and not hooks_on:
            continue
        if attempt:
            get_registry().inc(
                SHARD_RETRIES if use_hooks else SHARD_FALLBACKS,
                len(pending),
                engine=engine,
            )
        errors = run_attempt(pending, attempt, use_hooks)
        pending = list(errors)
        if not pending:
            return
    raise RuntimeError(
        "shard steps failed even after the hook-free resume: "
        + "; ".join(f"shard {sid}: {text}" for sid, text in errors.items())
    )


# --------------------------------------------------------------------------
# Process transport: persistent per-shard worker processes


class WorkerProcessDied(RuntimeError):
    """A streaming shard worker process died mid-conversation.

    Unlike a *step* exception (which the ladder retries in place), a
    dead worker takes its shard's grouping state with it — the live
    stream cannot recover transparently.  Resume from the last
    checkpoint (``repro resume``), which rebuilds every shard from the
    snapshot.
    """


#: What a worker will run on request: :class:`ShardState`'s public methods.
WORKER_METHODS = frozenset(
    name for name in vars(ShardState) if not name.startswith("_")
)


def _shard_worker_main(conn, shard_id: int) -> None:
    """Request loop of one streaming shard worker process.

    The worker owns its :class:`ShardState` for the whole stream
    lifetime.  A request is ``(method, args)``: ``init`` builds the
    state, ``stop`` ends the loop, and any of :data:`WORKER_METHODS` is
    called on the state; the reply is ``("ok", result)``, or ``("err",
    repr)`` when the request itself failed (step faults are not
    failures of the request — :meth:`ShardState.apply` reports them in
    its result).  Top-level so the spawn start method can import it.
    """
    state: ShardState | None = None
    ppid = os.getppid()
    while True:
        try:
            # Orphan watchdog: under the fork start method every worker
            # inherits the parent ends of all the lane's pipes (its own
            # included), so a SIGKILLed parent never produces EOF here —
            # the workers would outlive the daemon forever, pinning its
            # stdio pipes.  Re-parenting is the signal EOF can't give.
            while not conn.poll(2.0):
                if os.getppid() != ppid:
                    return
            method, args = conn.recv()
        except (EOFError, OSError):
            break
        try:
            result = None
            if method in WORKER_METHODS:
                result = getattr(state, method)(*args)
            elif method == "init":
                state = ShardState(shard_id, *args)
            elif method != "stop":
                raise ValueError(f"unknown request {method!r}")
            conn.send(("ok", result))
        except Exception as exc:  # report, keep serving
            try:
                conn.send(("err", repr(exc)))
            except (OSError, BrokenPipeError):
                break
        if method == "stop":
            break
    conn.close()


def _terminate_workers(processes, connections) -> None:
    """Kill worker processes; module-level so weakref.finalize can hold it."""
    for conn in connections:
        try:
            conn.close()
        except OSError:
            pass
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=2.0)


class StreamWorkerPool:
    """Persistent per-shard worker processes for the streaming engine.

    One daemon process per shard, spawned once and reused for every
    batch.  Requests fan out over pipes to all addressed shards before
    any reply is read, so shards genuinely step concurrently; replies
    are collected in shard order, which keeps the merge deterministic.
    Forked where the platform allows it (cheapest, and inherits the
    parent's interpreter state); ``spawn`` otherwise.

    Raises :class:`WorkerProcessDied` if a worker vanishes mid-call —
    its shard state is gone, so the stream must be rebuilt from a
    checkpoint rather than limp on with a silently reset shard.
    """

    def __init__(self, n_shards: int) -> None:
        import multiprocessing as mp
        import weakref

        method = (
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        ctx = mp.get_context(method)
        self._conns = []
        self._procs = []
        for shard_id in range(n_shards):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, shard_id),
                daemon=True,
                name=f"stream-shard-{shard_id}",
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
        # Daemon workers die with the interpreter regardless; the
        # finalizer reclaims them as soon as the pool itself is dropped.
        self._finalizer = weakref.finalize(
            self, _terminate_workers, list(self._procs), list(self._conns)
        )

    @property
    def n_workers(self) -> int:
        """Live worker processes."""
        return sum(1 for p in self._procs if p.is_alive())

    def call_all(
        self, requests: dict[int, tuple[str, tuple]]
    ) -> dict[int, object]:
        """Fan one ``(method, args)`` per shard out, gather the results.

        All requests are written before any reply is read — the
        concurrency of the lane lives here.  ``("err", ...)`` replies
        raise.
        """
        t0 = perf_counter()
        shard_order = sorted(requests)
        cmd = requests[shard_order[0]][0]
        shard_id = shard_order[0]
        try:
            for shard_id in shard_order:
                self._conns[shard_id].send(requests[shard_id])
            replies = {}
            for shard_id in shard_order:
                replies[shard_id] = self._conns[shard_id].recv()
        except (EOFError, OSError) as exc:
            raise WorkerProcessDied(
                f"stream worker {shard_id} died during {cmd!r}; its shard "
                "state is lost — resume from the last checkpoint"
            ) from exc
        results: dict[int, object] = {}
        for shard_id, (status, value) in replies.items():
            if status == "err":
                raise RuntimeError(
                    f"stream worker {shard_id} failed {cmd!r}: {value}"
                )
            results[shard_id] = value
        registry = get_registry()
        if registry.enabled:
            registry.inc(
                STREAM_WORKER_ROUNDTRIPS, len(shard_order), cmd=cmd
            )
            registry.observe(
                STREAM_WORKER_RTT_SECONDS, perf_counter() - t0, cmd=cmd
            )
        return results

    def shutdown(self) -> None:
        """Stop every worker cleanly; idempotent."""
        try:
            self.call_all(dict.fromkeys(range(len(self._conns)), ("stop", ())))
        except WorkerProcessDied:
            pass  # already gone (or already shut down): just reap
        self._finalizer()


# --------------------------------------------------------------------------
# The one executor


class ShardExecutor:
    """``n_shards`` shard states behind one transport.

    A lane only decides how ``(method, args)`` reaches a shard's
    :class:`ShardState`; everything above that is written once.
    ``lane`` reports the transport actually running: the process lane
    degrades to ``threads`` where worker processes cannot be spawned (or
    the knowledge/hooks cannot be pickled), and to ``serial`` with a
    single shard — the grouping is identical either way.

    On the process lane the knowledge base and the (picklable) fault
    hooks cross the process boundary exactly once, at construction —
    and again only when an epoch-boundary hot swap broadcasts ``adopt``
    — so steady-state batches ship nothing but slim step items out and
    plain edge lists back.
    """

    def __init__(
        self,
        lane: str,
        n_shards: int,
        kb: KnowledgeBase,
        config: DigestConfig,
        partners: dict[str, tuple[str, ...]],
        fault_hook: Callable[[int, int], None] | None = None,
        step_hook: Callable[[int, int, int], None] | None = None,
    ) -> None:
        init = (kb, config, partners, fault_hook, step_hook)
        self._n_shards = n_shards
        self._pool: StreamWorkerPool | None = None
        self._states: list[ShardState] = []
        if lane == "processes" and n_shards == 1:
            lane = "serial"  # one shard: nothing to fan out
        if lane == "processes":
            try:
                pool = StreamWorkerPool(n_shards)
                pool.call_all(dict.fromkeys(range(n_shards), ("init", init)))
                self._pool = pool
            except POOL_ERRORS:
                lane = "threads"
        if self._pool is None:
            self._states = [
                ShardState(shard_id, *init) for shard_id in range(n_shards)
            ]
        self.lane = lane

    def call(
        self, requests: dict[int, tuple[str, tuple]], fan_out: bool = False
    ) -> dict[int, object]:
        """Deliver ``(method, args)`` to each addressed shard's state;
        return the results by shard, in request order.

        ``fan_out`` marks the one request worth a thread per shard —
        a batch's steps; maintenance requests stay a plain loop on the
        in-process lanes.
        """
        if self._pool is not None:
            return self._pool.call_all(requests)

        def deliver(shard_id: int):
            method, args = requests[shard_id]
            return getattr(self._states[shard_id], method)(*args)

        if fan_out and self.lane == "threads" and len(requests) > 1:
            with ThreadPoolExecutor(max_workers=len(requests)) as threads:
                return dict(zip(requests, threads.map(deliver, requests)))
        return {shard_id: deliver(shard_id) for shard_id in requests}

    def broadcast(self, method: str, *args) -> list:
        """The same request to every shard; results in shard order."""
        requests = dict.fromkeys(range(self._n_shards), (method, args))
        return list(self.call(requests).values())

    def step_many(
        self, per_shard: dict[int, list[tuple[StepItem, float]]]
    ) -> dict[int, list[Edge]]:
        """Step each shard's batch list through the ladder; return the
        edges per shard, in shard order."""
        edges: dict[int, list[Edge]] = {sid: [] for sid in sorted(per_shard)}
        todo = dict(per_shard)  # what each shard has yet to apply
        base = dict.fromkeys(edges, 0)  # batch position of todo[sid][0]

        def run_attempt(pending, attempt, use_hooks):
            replies = self.call(
                {
                    sid: ("apply", (todo[sid], attempt, use_hooks, base[sid]))
                    for sid in pending
                },
                fan_out=True,
            )
            errors = {}
            for sid, (cursor, stepped, error) in replies.items():
                edges[sid].extend(stepped)
                if error is not None:
                    # A retry ships only the unapplied suffix.
                    errors[sid] = error
                    todo[sid] = todo[sid][cursor - base[sid] :]
                    base[sid] = cursor
            return errors

        run_ladder(edges, run_attempt, engine="stream")
        return edges

    @property
    def n_worker_processes(self) -> int:
        """Live worker processes (0 on the in-process lanes)."""
        return self._pool.n_workers if self._pool is not None else 0

    def shutdown(self) -> None:
        """Stop the process lane's workers (a no-op on the other lanes)."""
        if self._pool is not None:
            self._pool.shutdown()
