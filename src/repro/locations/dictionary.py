"""The location dictionary: everything the network knows about "where".

Built offline from router configs (Section 4.1.2), it provides:

* per-router component inventory (slots, ports, interfaces, multilinks);
* name -> IP and IP -> location mappings;
* the location hierarchy (structural parents plus multilink membership);
* cross-router connectivity: link endpoints, BGP sessions, and multi-hop
  paths (e.g. MPLS secondary paths), used by cross-router grouping.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.locations.hierarchy import ancestors_of_name, parse_interface_name
from repro.locations.model import Location, LocationKind

#: Bounds on the hierarchy/connectivity caches.  Keys come from message
#: locations, which are attacker-influenced at the margins (unparsed
#: component names), so the caches clear wholesale when full instead of
#: growing without bound.
_MAX_ANCESTOR_CACHE = 1 << 18
_MAX_PAIR_CACHE = 1 << 20


@dataclass
class LocationDictionary:
    """Mutable registry of locations and their relationships.

    Hierarchy and connectivity queries (:meth:`ancestors`,
    :meth:`connected`, :meth:`spatially_matched_pair`) memoize their
    results: the grouping passes ask the same questions for every
    message of a busy location, and name parsing plus the ancestor climb
    dominate the per-message cost at scale.  Every mutator invalidates
    the caches, and they are dropped from pickles so process-pool
    payloads stay small.
    """

    _routers: set[str] = field(default_factory=set)
    _components: dict[str, set[Location]] = field(default_factory=dict)
    _ip_to_location: dict[str, Location] = field(default_factory=dict)
    _location_to_ip: dict[Location, str] = field(default_factory=dict)
    _peers: dict[Location, set[Location]] = field(default_factory=dict)
    _multilink_members: dict[Location, set[Location]] = field(
        default_factory=dict
    )
    _sites: dict[str, str] = field(default_factory=dict)
    _ancestor_cache: dict[Location, tuple[Location, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _ancestor_set_cache: dict[Location, frozenset[Location]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _connected_cache: dict[tuple[Location, Location], bool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _spatial_cache: dict[tuple[Location, Location], bool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Lazily-built reverse of _multilink_members (member -> bundles, in
    # bundle insertion order); None until first ancestor query needs it.
    _member_bundles: dict[Location, list[Location]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _invalidate(self) -> None:
        """Drop memoized query results after any mutation."""
        self._ancestor_cache.clear()
        self._ancestor_set_cache.clear()
        self._connected_cache.clear()
        self._spatial_cache.clear()
        self._member_bundles = None

    def __getstate__(self) -> dict:
        # Caches are pure derived state; rebuilding them beats shipping
        # them to process-pool workers.
        state = self.__dict__.copy()
        state["_ancestor_cache"] = {}
        state["_ancestor_set_cache"] = {}
        state["_connected_cache"] = {}
        state["_spatial_cache"] = {}
        state["_member_bundles"] = None
        return state

    # ------------------------------------------------------------------ build

    def add_router(self, router: str, site: str | None = None) -> Location:
        """Register a router; ``site`` is a state/metro code (e.g. ``GA``)."""
        self._routers.add(router)
        loc = Location.router_level(router)
        self._components.setdefault(router, set()).add(loc)
        if site:
            self._sites[router] = site
        self._invalidate()
        return loc

    def add_component(self, router: str, name: str) -> Location:
        """Register component ``name`` (and its structural ancestors)."""
        if router not in self._routers:
            self.add_router(router)
        chain = ancestors_of_name(router, name)
        self._components[router].update(chain)
        self._invalidate()
        return chain[0]

    def set_ip(self, location: Location, ip: str) -> None:
        """Associate an IP address with a component."""
        self._ip_to_location[ip] = location
        self._location_to_ip[location] = ip
        self._invalidate()

    def add_link(self, a: Location, b: Location) -> None:
        """Register a bidirectional adjacency (link end / session end)."""
        if a.router == b.router:
            raise ValueError(f"link endpoints on the same router: {a}, {b}")
        self._peers.setdefault(a, set()).add(b)
        self._peers.setdefault(b, set()).add(a)
        self._invalidate()

    def add_multilink_member(self, bundle: Location, member: Location) -> None:
        """Record that ``member`` (physical) belongs to ``bundle``."""
        if bundle.kind is not LocationKind.MULTILINK:
            raise ValueError(f"not a multilink location: {bundle}")
        self._multilink_members.setdefault(bundle, set()).add(member)
        self._invalidate()

    def merge(self, other: LocationDictionary) -> None:
        """Fold another dictionary (e.g. one router's config) into this one."""
        self._routers.update(other._routers)
        for router, comps in other._components.items():
            self._components.setdefault(router, set()).update(comps)
        self._ip_to_location.update(other._ip_to_location)
        self._location_to_ip.update(other._location_to_ip)
        for loc, peers in other._peers.items():
            self._peers.setdefault(loc, set()).update(peers)
        for bundle, members in other._multilink_members.items():
            self._multilink_members.setdefault(bundle, set()).update(members)
        self._sites.update(other._sites)
        self._invalidate()

    def resolve_descriptions(self) -> int:
        """Wire up links declared by interface descriptions.

        Config descriptions name the far end (``to <router> <interface>``);
        they can only be resolved once *all* configs are merged, so the
        parser records them via :meth:`add_pending_link` and this method
        resolves them.  Returns the number of links created.
        """
        created = 0
        for router, far_router, local_name, far_name in self._pending_links:
            local = Location(
                router, self._kind_of_name(local_name), local_name
            )
            far = Location(
                far_router, self._kind_of_name(far_name), far_name
            )
            if self.has_component(far):
                self.add_link(local, far)
                created += 1
        self._pending_links.clear()
        return created

    _pending_links: list[tuple[str, str, str, str]] = field(
        default_factory=list
    )

    def add_pending_link(
        self, router: str, far_router: str, local_name: str, far_name: str
    ) -> None:
        """Queue a link declared in a description for later resolution."""
        self._pending_links.append((router, far_router, local_name, far_name))

    @staticmethod
    def _kind_of_name(name: str) -> LocationKind:
        parsed = parse_interface_name(name)
        return parsed.kind if parsed else LocationKind.ROUTER

    # ------------------------------------------------------------------ query

    @property
    def routers(self) -> frozenset[str]:
        """All registered router names."""
        return frozenset(self._routers)

    def site_of(self, router: str) -> str | None:
        """State/metro code of a router, if known."""
        return self._sites.get(router)

    def has_component(self, location: Location) -> bool:
        """True if ``location`` was registered (directly or as an ancestor)."""
        return location in self._components.get(location.router, ())

    def components_of(self, router: str) -> frozenset[Location]:
        """All registered locations of a router."""
        return frozenset(self._components.get(router, ()))

    def location_of_ip(self, ip: str) -> Location | None:
        """The component owning ``ip``, if any."""
        return self._ip_to_location.get(ip)

    def ip_of(self, location: Location) -> str | None:
        """The IP configured on ``location``, if any."""
        return self._location_to_ip.get(location)

    def ancestors(self, location: Location) -> list[Location]:
        """Location and its hierarchy ancestors, bottom-up to router level.

        Multilink membership contributes extra ancestors: a physical member
        interface also maps up into every bundle containing it.
        """
        return list(self._ancestors_tuple(location))

    def _compute_ancestors(self, location: Location) -> list[Location]:
        chain = ancestors_of_name(location.router, location.name)
        if location.kind is LocationKind.ROUTER:
            chain = [Location.router_level(location.router)]
        elif chain[0] != location:
            # Component names that do not parse positionally (e.g. a bare
            # slot number) still belong to their own ancestor chain.
            chain = [location] + chain
        # Reverse index, built by iterating bundles in insertion order so
        # a member's bundles come out as a linear scan of
        # ``_multilink_members`` would find them.
        index = self._member_bundles
        if index is None:
            index = {}
            for bundle, members in self._multilink_members.items():
                for member in members:
                    index.setdefault(member, []).append(bundle)
            self._member_bundles = index
        return chain + index.get(location, [])

    def _ancestors_tuple(self, location: Location) -> tuple[Location, ...]:
        """Memoized :meth:`ancestors`."""
        cached = self._ancestor_cache.get(location)
        if cached is None:
            if len(self._ancestor_cache) >= _MAX_ANCESTOR_CACHE:
                self._ancestor_cache.clear()
            cached = tuple(self._compute_ancestors(location))
            self._ancestor_cache[location] = cached
        return cached

    def _ancestor_set(self, location: Location) -> frozenset[Location]:
        """Memoized set form of :meth:`ancestors`, for membership tests."""
        cached = self._ancestor_set_cache.get(location)
        if cached is None:
            if len(self._ancestor_set_cache) >= _MAX_ANCESTOR_CACHE:
                self._ancestor_set_cache.clear()
            cached = frozenset(self._ancestors_tuple(location))
            self._ancestor_set_cache[location] = cached
        return cached

    def peers(self, location: Location) -> frozenset[Location]:
        """Directly connected far-end locations (link/session endpoints)."""
        return frozenset(self._peers.get(location, ()))

    def connected(self, a: Location, b: Location) -> bool:
        """True when ``a`` and ``b`` are two ends of one link/session/path.

        The check climbs both hierarchies: a logical interface on one end is
        connected to the peer port's logical interface even if the link was
        registered at physical level.
        """
        if a.router == b.router:
            return False
        key = (a, b)
        hit = self._connected_cache.get(key)
        if hit is None:
            if len(self._connected_cache) >= _MAX_PAIR_CACHE:
                self._connected_cache.clear()
            hit = self._compute_connected(a, b)
            self._connected_cache[key] = hit
        return hit

    def _compute_connected(self, a: Location, b: Location) -> bool:
        ups_b = self._ancestor_set(b)
        peers = self._peers
        for ua in self._ancestors_tuple(a):
            for peer in peers.get(ua, ()):
                if peer in ups_b:
                    return True
        return False

    def spatially_matched_pair(self, a: Location, b: Location) -> bool:
        """Memoized spatial match (see :mod:`repro.locations.spatial`).

        Same-router pairs map to a common hierarchy location when one is
        the other's ancestor or they share a sub-router ancestor.
        """
        if a.router != b.router:
            return False
        if a == b:
            return True
        key = (a, b)
        hit = self._spatial_cache.get(key)
        if hit is None:
            if len(self._spatial_cache) >= _MAX_PAIR_CACHE:
                self._spatial_cache.clear()
            hit = self._compute_spatial(a, b)
            self._spatial_cache[key] = hit
        return hit

    def _compute_spatial(self, a: Location, b: Location) -> bool:
        ups_a = self._ancestor_set(a)
        ups_b = self._ancestor_set(b)
        if a in ups_b or b in ups_a:
            return True
        for loc in ups_a & ups_b:
            if loc.kind is not LocationKind.ROUTER:
                return True
        return False

    def multilink_members(self, bundle: Location) -> frozenset[Location]:
        """Physical members of a bundle."""
        return frozenset(self._multilink_members.get(bundle, ()))

    def all_links(self) -> list[tuple[Location, Location]]:
        """Each registered adjacency once, as an ordered pair."""
        seen: set[frozenset[Location]] = set()
        out: list[tuple[Location, Location]] = []
        for a, bs in self._peers.items():
            for b in bs:
                key = frozenset((a, b))
                if key not in seen:
                    seen.add(key)
                    out.append(tuple(sorted((a, b))))  # type: ignore[arg-type]
        return out

    def stats(self) -> dict[str, int]:
        """Inventory counts, for reporting."""
        return {
            "routers": len(self._routers),
            "components": sum(len(c) for c in self._components.values()),
            "ips": len(self._ip_to_location),
            "adjacencies": len(self.all_links()),
            "multilinks": len(self._multilink_members),
        }


def build_dictionary(
    parts: Iterable[LocationDictionary],
) -> LocationDictionary:
    """Merge per-router dictionaries and resolve cross-router links."""
    merged = LocationDictionary()
    for part in parts:
        merged.merge(part)
        merged._pending_links.extend(part._pending_links)
    merged.resolve_descriptions()
    return merged
