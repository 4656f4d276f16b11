"""The three grouping passes and their union-find merge (Section 4.2).

Messages related by *any* pass end up in one group: relations are edges
over message indices and the final groups are the connected components.
That construction is what makes the result independent of the order the
passes run in (Section 4.2.3) — a property the ablation benches verify.

Each pass is implemented as a module-level *edge generator* over a
time-sorted Syslog+ stream.  Generators only relate messages through
their global ``plus.index``, never through list positions, so a generator
run over a per-router shard of the stream produces exactly the edges it
would contribute when run over the whole stream.  That is what the
sharded parallel engine (:mod:`repro.core.parallel`) exploits: the
temporal and rule passes only ever relate messages on the *same* router,
so their edge sets can be computed per shard concurrently and unioned
afterwards without changing the connected components.

The rule and cross-router passes of both engines keep their sliding
windows in one :class:`WindowIndex`: a new message only probes the
templates that can relate to it (rule partners for the rule pass, its
own template for the cross-router pass), asks the pass's predicate once
per bucket of indistinguishable entries, and collapses a matched bucket
to its newest entry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain

from repro.core.config import DigestConfig
from repro.core.knowledge import KnowledgeBase
from repro.core.syslogplus import SyslogPlus
from repro.locations.spatial import spatially_matched
from repro.mining.temporal import TemporalParams, TemporalSplitter
from repro.obs import stage_timer
from repro.utils.unionfind import DenseUnionFind, UnionFind

# An edge relates two messages by their global stream indices.
Edge = tuple[int, int]


@dataclass
class GroupingOutcome:
    """Groups plus bookkeeping for reporting."""

    groups: list[list[SyslogPlus]]
    active_rules: set[tuple[str, str]]  # rules that actually fired


def build_rule_partners(
    rule_pairs: set[tuple[str, str]]
) -> dict[str, tuple[str, ...]]:
    """Map each template key to the partner templates it shares a rule with.

    The rule pass only needs to probe window entries whose template is a
    partner of the arriving message's template; everything else can never
    produce an edge.  Self-pairs are dropped — the rule pass relates
    *different* templates only.
    """
    partners: dict[str, set[str]] = {}
    for x, y in rule_pairs:
        if x == y:
            continue
        partners.setdefault(x, set()).add(y)
        partners.setdefault(y, set()).add(x)
    return {key: tuple(sorted(vals)) for key, vals in partners.items()}


def temporal_edges(
    stream: list[SyslogPlus],
    params: TemporalParams,
    reset_after: float | None = None,
) -> list[Edge]:
    """Same template + same location, periodic in time (Section 4.2.1).

    ``reset_after`` bounds the rhythm memory: a splitter whose key has
    been quiet longer than this horizon is recreated from scratch, which
    is exactly what the streaming engine does when it evicts idle
    splitter state.  Keeping the rule identical in both engines is what
    preserves batch/stream grouping equivalence.  ``None`` never resets.
    """
    edges: list[Edge] = []
    splitters: dict[tuple, TemporalSplitter] = {}
    # Each splitter instance gets a serial number; group identity is
    # (serial, group) so a recreated splitter can never be confused with
    # the groups of its predecessor.
    serial_of: dict[tuple, int] = {}
    n_created = 0
    last_member: dict[tuple[int, int], int] = {}
    for plus in stream:
        # Keyed by the Location object itself (its hash is precomputed);
        # building the canonical string key per message is pure overhead.
        key = (
            plus.router,
            plus.template_key,
            plus.primary_location,
        )
        splitter = splitters.get(key)
        if (
            splitter is not None
            and reset_after is not None
            and plus.timestamp - splitter.last_ts > reset_after
        ):
            splitter = None
        if splitter is None:
            splitter = TemporalSplitter(params)
            splitters[key] = splitter
            serial_of[key] = n_created
            n_created += 1
        group = splitter.observe(plus.timestamp)
        group_key = (serial_of[key], group)
        tail = last_member.get(group_key)
        if tail is not None:
            edges.append((tail, plus.index))
        last_member[group_key] = plus.index
    return edges


class WindowIndex:
    """The sliding window of the rule and cross-router passes, both engines.

    ``template -> match key -> [(ts, message, ...), ...]``, oldest first,
    reaching ``window`` seconds back.  ``related(bucket key, arrival
    key)`` is the pass's predicate and ``key_of`` recovers the key of a
    restored entry: the rule pass keeps one index per router keyed by
    primary location (:func:`rule_window`), the cross-router pass one
    global index keyed by ``(router, local locations)``
    (:func:`cross_window`).

    Entries of one bucket are indistinguishable to the predicate, so an
    arrival relates to all of a bucket's in-window entries or to none:
    :meth:`relate` asks once per bucket, emits the edges, then
    **collapses the bucket to its newest entry**.  That loses no
    component: every entry the bucket held is now connected to the
    arrival; the newest expires last, so a later arrival that would
    have matched a dropped entry inside the window matches the survivor
    too; and a stream component finalizes whole, so :meth:`prune` drops
    the survivor together with everything it stands for.  Only edges
    between already-connected messages disappear — O(entries added
    since the bucket's last match) per arrival, not O(window entries).
    """

    __slots__ = ("_key_of", "_related", "_window", "_buckets")

    def __init__(self, key_of, related, window: float) -> None:
        self._key_of = key_of
        self._related = related
        self._window = window
        self._buckets: dict[str, dict[object, list[tuple]]] = {}

    def relate(
        self,
        probes: tuple[str, ...],
        template: str,
        key,
        entry: tuple,
        edges: list[Edge],
    ) -> tuple[str, ...]:
        """Append an edge to ``entry``'s message from every related
        in-window entry of the ``probes`` templates, then file ``entry``
        under ``(template, key)``.  Returns the probes that related.
        """
        horizon = entry[0] - self._window
        index = entry[1].index
        related = self._related
        hits: tuple[str, ...] = ()
        for probe in probes:
            buckets = self._buckets.get(probe)
            if not buckets:
                continue
            dead = 0
            hit = False
            for other_key, queue in buckets.items():
                if queue[-1][0] < horizon:
                    dead += 1
                elif related(other_key, key):
                    hit = True
                    for other in reversed(queue):
                        if other[0] < horizon:
                            break
                        edges.append((other[1].index, index))
                    del queue[:-1]
            if dead == len(buckets):
                buckets.clear()  # the sparse case: no key is re-hashed
            elif dead:
                for other_key in [
                    k for k, q in buckets.items() if q[-1][0] < horizon
                ]:
                    del buckets[other_key]
            if hit:
                hits += (probe,)
        queue = self._buckets.setdefault(template, {}).setdefault(key, [])
        if queue and queue[0][0] < horizon:
            # (ts, ...) < (horizon,) exactly when ts < horizon.
            del queue[: bisect_left(queue, (horizon,))]
        queue.append(entry)
        return hits

    def prune(self, open_indices: set[int]) -> int:
        """Drop the entries whose message has finalized, and the buckets
        that empties; return how many entries went."""
        dropped = 0
        for buckets in self._buckets.values():
            for key, queue in list(buckets.items()):
                kept = [e for e in queue if e[1].index in open_indices]
                dropped += len(queue) - len(kept)
                if kept:
                    buckets[key] = kept
                else:
                    del buckets[key]
        return dropped

    def __len__(self) -> int:
        return sum(
            len(queue)
            for buckets in self._buckets.values()
            for queue in buckets.values()
        )

    def flatten(self) -> dict[str, list[tuple]]:
        """The snapshot shape: per template, entries in arrival order."""
        return {
            template: sorted(
                chain.from_iterable(buckets.values()),
                key=lambda e: e[1].index,
            )
            for template, buckets in self._buckets.items()
            if buckets
        }

    def load(self, flat: dict[str, list[tuple]]) -> None:
        """Re-bucket a :meth:`flatten` capture (or a flat window written
        before buckets existed: buckets that have not matched yet)."""
        for template, entries in flat.items():
            buckets = self._buckets.setdefault(template, {})
            for entry in entries:
                buckets.setdefault(self._key_of(entry), []).append(entry)


def _touch_across(dictionary, a, b) -> bool:
    return a[0] != b[0] and _locations_touch(dictionary, a[1], b[1])


def rule_window(dictionary, window: float) -> WindowIndex:
    """One router's rule window of ``(ts, message)`` entries, keyed by
    primary location: related when the locations spatially match."""
    return WindowIndex(
        lambda entry: entry[1].primary_location,
        partial(spatially_matched, dictionary),
        window,
    )


def cross_window(dictionary, window: float) -> WindowIndex:
    """The cross-router window of ``(ts, message, local locations)``
    entries, keyed by ``(router, local locations)``: related across
    routers when any locations touch."""
    return WindowIndex(
        lambda entry: (entry[1].router, entry[2]),
        partial(_touch_across, dictionary),
        window,
    )


def rule_edges(
    stream: list[SyslogPlus],
    partners: dict[str, tuple[str, ...]],
    window: float,
    dictionary,
) -> tuple[list[Edge], set[tuple[str, str]]]:
    """Different templates, same router, spatially matched, within W."""
    edges: list[Edge] = []
    active: set[tuple[str, str]] = set()
    recent: dict[str, WindowIndex] = {}  # one rule window per router
    for plus in stream:
        template = plus.template_key
        probes = partners.get(template)
        if not probes:
            # Partners are symmetric: what probes nothing is probed by
            # nothing, so it need not be filed either.
            continue
        index = recent.get(plus.router)
        if index is None:
            index = recent[plus.router] = rule_window(dictionary, window)
        for partner in index.relate(
            probes,
            template,
            plus.primary_location,
            (plus.timestamp, plus),
            edges,
        ):
            active.add(
                (partner, template)
                if partner <= template
                else (template, partner)
            )
    return edges, active


def cross_router_edges(
    stream: list[SyslogPlus], window: float, dictionary
) -> list[Edge]:
    """Same template on connected locations, almost simultaneous."""
    edges: list[Edge] = []
    index = cross_window(dictionary, window)
    for plus in stream:
        template = plus.template_key
        locs = plus.local_locations()  # once per message, not per pair
        index.relate(
            (template,),
            template,
            (plus.router, locs),
            (plus.timestamp, plus, locs),
            edges,
        )
    return edges


def _locations_touch(dictionary, locs_a, locs_b) -> bool:
    """True when any of two messages' local locations touch.

    Covers the two ends of one link/session (``connected`` in the
    dictionary) and a message naming the far router's component directly
    (e.g. a BGP neighbor IP resolving to the peer's interface).
    """
    for loc_a in locs_a:
        for loc_b in locs_b:
            if loc_a.router == loc_b.router:
                if spatially_matched(dictionary, loc_a, loc_b):
                    return True
            elif dictionary.connected(loc_a, loc_b):
                return True
    return False


def _union_edges(uf, edges, pos: dict[int, int] | None) -> None:
    """Union edges into ``uf``, translating via ``pos`` when given."""
    if pos is None:
        for a, b in edges:
            uf.union(a, b)
    else:
        for a, b in edges:
            uf.union(pos[a], pos[b])


def collect_outcome(
    stream: list[SyslogPlus],
    uf: UnionFind | DenseUnionFind,
    active_rules: set[tuple[str, str]],
    pos: dict[int, int] | None = None,
) -> GroupingOutcome:
    """Materialize connected components into the canonical group order.

    ``pos`` maps global stream indices to the dense ``0..n-1`` ids a
    :class:`DenseUnionFind` was built over; omit it when ``uf`` is keyed
    by the global indices directly.
    """
    members: dict[int, list[SyslogPlus]] = {}
    if pos is None:
        for plus in stream:
            members.setdefault(uf.find(plus.index), []).append(plus)
    else:
        for plus in stream:
            members.setdefault(uf.find(pos[plus.index]), []).append(plus)
    groups = sorted(
        members.values(), key=lambda g: (g[0].timestamp, g[0].index)
    )
    return GroupingOutcome(groups=groups, active_rules=active_rules)


class GroupingEngine:
    """Batch grouping of a time-sorted Syslog+ stream."""

    def __init__(self, kb: KnowledgeBase, config: DigestConfig) -> None:
        self._kb = kb
        self._config = config
        self._rule_pairs = kb.rule_pairs()
        self._partners = build_rule_partners(self._rule_pairs)

    def group(self, stream: list[SyslogPlus]) -> GroupingOutcome:
        """Group the whole stream; input must be time-sorted."""
        # The batch knows its universe up front, so the merge runs over a
        # dense union-find (list indexing) with one dict hop per edge
        # endpoint to translate global indices.
        pos = {plus.index: i for i, plus in enumerate(stream)}
        uf = DenseUnionFind(len(stream))
        active_rules: set[tuple[str, str]] = set()
        if self._config.enable_temporal:
            with stage_timer("temporal_pass"):
                self._temporal_pass(stream, uf, pos)
        if self._config.enable_rules:
            with stage_timer("rule_pass"):
                self._rule_pass(stream, uf, active_rules, pos)
        if self._config.enable_cross_router:
            with stage_timer("cross_router_pass"):
                self._cross_router_pass(stream, uf, pos)
        with stage_timer("collect"):
            return collect_outcome(stream, uf, active_rules, pos)

    # ------------------------------------------------------------- temporal

    def _temporal_pass(
        self,
        stream: list[SyslogPlus],
        uf,
        pos: dict[int, int] | None = None,
    ) -> None:
        """Same template + same location, periodic in time (Section 4.2.1)."""
        edges = temporal_edges(
            stream, self._kb.temporal, self._config.flush_after
        )
        _union_edges(uf, edges, pos)

    # ------------------------------------------------------------- rule-based

    def _rule_pass(
        self,
        stream: list[SyslogPlus],
        uf,
        active_rules: set[tuple[str, str]],
        pos: dict[int, int] | None = None,
    ) -> None:
        """Different templates, same router, spatially matched, within W."""
        edges, active = rule_edges(
            stream, self._partners, self._config.window, self._kb.dictionary
        )
        _union_edges(uf, edges, pos)
        active_rules |= active

    # ------------------------------------------------------------- cross-router

    def _cross_router_pass(
        self,
        stream: list[SyslogPlus],
        uf,
        pos: dict[int, int] | None = None,
    ) -> None:
        """Same template on connected locations, almost simultaneous."""
        edges = cross_router_edges(
            stream, self._config.cross_router_window, self._kb.dictionary
        )
        _union_edges(uf, edges, pos)
