"""Extracting location information from free-form message text.

Section 4.1.2: the number of *location formats* is small (IP addresses,
``x/x/x`` ports, interface names, slot references), so they are matched with
predefined patterns — but naive pattern matching over-triggers (remote IPs,
scanner IPs, counters that look like ports).  Every candidate is therefore
validated against the location dictionary: a location is kept only when the
originating router actually owns it, or when it resolves to a directly
connected neighbor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.locations.dictionary import LocationDictionary
from repro.locations.hierarchy import parse_interface_name
from repro.locations.model import Location, LocationKind

_IP = re.compile(r"\b(\d{1,3}(?:\.\d{1,3}){3})\b")
_IFACE = re.compile(
    r"\b((?:[A-Za-z][A-Za-z-]*)?\d+/\d+(?:/\d+)?(?::\d+)?)\b"
)
_MULTILINK = re.compile(r"\b((?:Multilink|Bundle-Ether|lag)-?\d+)\b")
_SLOT_REF = re.compile(r"\bslot\s+(\d+)\b", re.IGNORECASE)

# One combined scan as a *prefilter*: IGNORECASE over the union is a strict
# superset of each per-category pattern, so no match here proves no
# per-category pattern matches anywhere and the four exact scans can be
# skipped.  (The exact scans still run on a hit — a single alternation
# pass would drop overlapping cross-category matches like the IFACE
# reading of "Multilink-12/3" shadowed by the MULTILINK branch.)
_ANY = re.compile(
    "|".join(
        p.pattern for p in (_MULTILINK, _IFACE, _SLOT_REF, _IP)
    ),
    re.IGNORECASE,
)


@dataclass(frozen=True, slots=True)
class ExtractedLocation:
    """A validated location found in a message.

    ``role`` records how it was resolved: ``local`` (owned by the
    originating router), ``neighbor`` (owned by a connected router, e.g. a
    BGP neighbor IP), or ``router`` (the originating router itself — always
    present as a fallback).
    """

    location: Location
    role: str
    source_text: str


class LocationExtractor:
    """Finds and validates locations embedded in syslog detail text."""

    def __init__(self, dictionary: LocationDictionary) -> None:
        self._dictionary = dictionary

    def extract(self, router: str, detail: str) -> list[ExtractedLocation]:
        """All validated locations in ``detail``, most specific first.

        Always includes the router-level location last so every message has
        at least one location (Section 4.1.2's router-id fallback).
        """
        if _ANY.search(detail) is None:
            # Nothing location-shaped anywhere in the text: only the
            # router-id fallback applies.
            return [
                ExtractedLocation(
                    Location.router_level(router), "router", router
                )
            ]

        found: list[ExtractedLocation] = []
        seen: set[Location] = set()

        def keep(loc: Location, role: str, text: str) -> None:
            if loc not in seen:
                seen.add(loc)
                found.append(ExtractedLocation(loc, role, text))

        for match in _MULTILINK.finditer(detail):
            loc = Location(router, LocationKind.MULTILINK, match.group(1))
            if self._dictionary.has_component(loc):
                keep(loc, "local", match.group(1))

        for match in _IFACE.finditer(detail):
            name = match.group(1)
            parsed = parse_interface_name(name)
            if parsed is None:
                continue
            loc = Location(router, parsed.kind, name)
            if self._dictionary.has_component(loc):
                keep(loc, "local", name)

        for match in _SLOT_REF.finditer(detail):
            loc = Location(router, LocationKind.SLOT, match.group(1))
            if self._dictionary.has_component(loc):
                keep(loc, "local", match.group(0))

        for match in _IP.finditer(detail):
            ip = match.group(1)
            owner = self._dictionary.location_of_ip(ip)
            if owner is None:
                continue  # remote/invalid IP (e.g. scanning attack source)
            if owner.router == router:
                keep(owner, "local", ip)
            elif self._dictionary.connected(
                Location.router_level(router), owner
            ) or self._dictionary.connected(owner, Location.router_level(router)):
                keep(owner, "neighbor", ip)
            else:
                # An IP of some unrelated router in the network: still a
                # known location, but mark it remote; grouping ignores it.
                keep(owner, "remote", ip)

        keep(Location.router_level(router), "router", router)
        return found

    def primary(self, router: str, detail: str) -> Location:
        """Most specific local location, falling back to router level."""
        for item in self.extract(router, detail):
            if item.role == "local":
                return item.location
        return Location.router_level(router)
