"""Definition oracle for the rule and cross-router relations.

Computes §4.2.2 and the cross-router relation *from their definitions* —
every pair ``i < j`` of a time-sorted Syslog+ stream, no window, no
index, no bucket — so the production passes (which keep a collapsing
window index, :class:`repro.core.grouping.WindowIndex`) can be checked
against something that shares none of their machinery.  Quadratic on
purpose; test-only.
"""

from __future__ import annotations

from repro.core.syslogplus import SyslogPlus
from repro.locations.spatial import spatially_matched

Edge = tuple[int, int]


def rule_relation(
    stream: list[SyslogPlus],
    rule_pairs: set[tuple[str, str]],
    window: float,
    dictionary,
) -> tuple[list[Edge], set[tuple[str, str]]]:
    """All rule-related pairs, and the rules that related one.

    ``i`` and ``j`` are related when their templates differ and share a
    rule, they come from the same router, ``t_j - t_i <= W``, and their
    primary locations spatially match.
    """
    edges: list[Edge] = []
    active: set[tuple[str, str]] = set()
    for j, later in enumerate(stream):
        for earlier in stream[:j]:
            x, y = earlier.template_key, later.template_key
            if x == y or not ({(x, y), (y, x)} & rule_pairs):
                continue
            if earlier.router != later.router:
                continue
            if later.timestamp - earlier.timestamp > window:
                continue
            if spatially_matched(
                dictionary, earlier.primary_location, later.primary_location
            ):
                edges.append((earlier.index, later.index))
                active.add((min(x, y), max(x, y)))
    return edges, active


def cross_router_relation(
    stream: list[SyslogPlus], window: float, dictionary
) -> list[Edge]:
    """All cross-router-related pairs.

    ``i`` and ``j`` are related when they share a template, come from
    different routers, ``t_j - t_i <= window``, and any of their local
    locations touch: spatially matched when on one router, two ends of
    one link or session otherwise.
    """
    edges: list[Edge] = []
    for j, later in enumerate(stream):
        for earlier in stream[:j]:
            if earlier.template_key != later.template_key:
                continue
            if earlier.router == later.router:
                continue
            if later.timestamp - earlier.timestamp > window:
                continue
            if any(
                spatially_matched(dictionary, a, b)
                if a.router == b.router
                else dictionary.connected(a, b)
                for a in earlier.local_locations()
                for b in later.local_locations()
            ):
                edges.append((earlier.index, later.index))
    return edges


def components(indices, edges) -> set[frozenset[int]]:
    """Connected components of ``edges`` over ``indices``."""
    parent = {index: index for index in indices}

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    for a, b in edges:
        parent[find(a)] = find(b)
    members: dict[int, set[int]] = {}
    for index in parent:
        members.setdefault(find(index), set()).add(index)
    return {frozenset(group) for group in members.values()}
