"""Definition oracles: the naive forms production is held to.

Two families, both test-only and slow on purpose:

* **Grouping relations** — §4.2.2 and the cross-router relation computed
  *from their definitions* — every pair ``i < j`` of a time-sorted
  Syslog+ stream, no window, no index, no bucket — so the production
  passes (which keep a collapsing window index,
  :class:`repro.core.grouping.WindowIndex`) can be checked against
  something that shares none of their machinery.
* **The per-message path** — signature matching (§4.1.1) as a probe of
  every template, location parsing (§4.1.2) as four pattern scans with
  no prefilter, and the hierarchy / connectivity / spatial queries
  recomputed from the dictionary's raw tables on every call.  Each is
  the form one production optimisation (compiled index, ``_ANY``
  prefilter, augment memo, ancestor / ``connected`` / spatial caches,
  member→bundle index) must stay byte-identical to;
  :func:`reference_kb` packages them as a knowledge base so a whole
  digest can run on them.
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.core.knowledge import KnowledgeBase
from repro.core.syslogplus import SyslogPlus
from repro.locations.dictionary import LocationDictionary
from repro.locations.extract import (
    _IFACE,
    _IP,
    _MULTILINK,
    _SLOT_REF,
    ExtractedLocation,
)
from repro.locations.hierarchy import ancestors_of_name, parse_interface_name
from repro.locations.model import Location, LocationKind
from repro.locations.spatial import spatially_matched
from repro.syslog.message import SyslogMessage
from repro.templates.learner import TemplateSet
from repro.templates.signature import Template
from repro.templates.tokenize import tokenize

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


# --------------------------------------------------- the per-message path


def match_template(
    templates: TemplateSet, code: str, words: tuple[str, ...]
) -> Template:
    """§4.1.1 by probing every template of ``code``.

    The most specific match wins, ties on the smaller key; nothing
    matching falls back to ``<code>/other``.
    """
    best: Template | None = None
    for template in templates.by_code.get(code, ()):
        if template.matches(words) and (
            best is None
            or (-template.specificity, template.key)
            < (-best.specificity, best.key)
        ):
            best = template
    if best is not None:
        return best
    return Template(key=f"{code}/other", error_code=code, words=())


def ancestors(
    dictionary: LocationDictionary, location: Location
) -> list[Location]:
    """Structural chain bottom-up, then every bundle holding ``location``
    (a linear scan of the membership table, in its insertion order)."""
    chain = ancestors_of_name(location.router, location.name)
    if location.kind is LocationKind.ROUTER:
        chain = [Location.router_level(location.router)]
    elif chain[0] != location:
        chain = [location] + chain
    return chain + [
        bundle
        for bundle, members in dictionary._multilink_members.items()
        if location in members
    ]


def connected(
    dictionary: LocationDictionary, a: Location, b: Location
) -> bool:
    """Two ends of one link or session, climbing both hierarchies."""
    if a.router == b.router:
        return False
    ups_b = set(ancestors(dictionary, b))
    return any(
        peer in ups_b
        for up in ancestors(dictionary, a)
        for peer in dictionary.peers(up)
    )


def spatial_match(
    dictionary: LocationDictionary, a: Location, b: Location
) -> bool:
    """Same router, and one is the other's ancestor or they share an
    ancestor below router level (two channels of a port, two members of
    a bundle)."""
    if a.router != b.router:
        return False
    if a == b:
        return True
    ups_a = set(ancestors(dictionary, a))
    ups_b = set(ancestors(dictionary, b))
    if a in ups_b or b in ups_a:
        return True
    return any(
        loc.kind is not LocationKind.ROUTER for loc in ups_a & ups_b
    )


def extract_locations(
    dictionary: LocationDictionary, router: str, detail: str
) -> list[ExtractedLocation]:
    """§4.1.2 as four pattern scans, each candidate validated against
    the dictionary; the router itself always comes last."""
    here = Location.router_level(router)
    named = [
        (Location(router, LocationKind.MULTILINK, m.group(1)), m.group(1))
        for m in _MULTILINK.finditer(detail)
    ]
    for m in _IFACE.finditer(detail):
        parsed = parse_interface_name(m.group(1))
        if parsed is not None:
            named.append(
                (Location(router, parsed.kind, m.group(1)), m.group(1))
            )
    named += [
        (Location(router, LocationKind.SLOT, m.group(1)), m.group(0))
        for m in _SLOT_REF.finditer(detail)
    ]
    owned = dictionary.components_of(router)
    candidates = [
        (location, "local", text)
        for location, text in named
        if location in owned
    ]
    for m in _IP.finditer(detail):
        owner = dictionary.location_of_ip(m.group(1))
        if owner is None:
            continue  # an address no router of the network owns
        if owner.router == router:
            role = "local"
        elif connected(dictionary, here, owner) or connected(
            dictionary, owner, here
        ):
            role = "neighbor"
        else:
            role = "remote"
        candidates.append((owner, role, m.group(1)))
    candidates.append((here, "router", router))
    found: list[ExtractedLocation] = []
    for location, role, text in candidates:
        if all(item.location != location for item in found):
            found.append(ExtractedLocation(location, role, text))
    return found


def augment(
    kb: KnowledgeBase, message: SyslogMessage
) -> tuple[Template, tuple[ExtractedLocation, ...], Location]:
    """Template, locations and primary location of one message, computed
    afresh (no memo): what :class:`~repro.core.syslogplus.Augmenter`
    must attach to every message, repeated body or not."""
    template = match_template(
        kb.templates, message.error_code, tokenize(message.detail)
    )
    locations = tuple(
        extract_locations(kb.dictionary, message.router, message.detail)
    )
    primary = next(
        (item.location for item in locations if item.role == "local"),
        Location.router_level(message.router),
    )
    return template, locations, primary


class _ProbingTemplates(TemplateSet):
    def match_words(self, code, words):
        return match_template(self, code, words)


class _UncachedDictionary(LocationDictionary):
    def ancestors(self, location):
        return ancestors(self, location)

    def connected(self, a, b):
        return connected(self, a, b)

    def spatially_matched_pair(self, a, b):
        return spatial_match(self, a, b)


def reference_kb(kb: KnowledgeBase) -> KnowledgeBase:
    """``kb`` with ``templates`` / ``dictionary`` that answer the naive way.

    Same tables (shared, read-only), none of the compiled index, caches
    or reverse index: a digest run on the result is the reference a
    production run must fingerprint-equal.
    """
    tables = {
        f.name: getattr(kb.dictionary, f.name)
        for f in fields(LocationDictionary)
        if f.init
    }
    return replace(
        kb,
        templates=_ProbingTemplates(by_code=kb.templates.by_code),
        dictionary=_UncachedDictionary(**tables),
    )
