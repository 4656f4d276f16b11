"""Spatial matching of locations (Section 4.2).

Two locations are *spatially matched* when they can be mapped to the same
location in the hierarchy of Figure 3 — e.g. a message on slot ``2`` matches
a message on interface ``Serial2/0/0:1`` of the same router because the
interface maps upwards to slot ``2``.  Multilink membership participates in
the climb through the dictionary's ancestor expansion.
"""

from __future__ import annotations

from repro.locations.dictionary import LocationDictionary
from repro.locations.model import Location


def spatially_matched(
    dictionary: LocationDictionary, a: Location, b: Location
) -> bool:
    """True when ``a`` and ``b`` map to a common hierarchy location.

    Router-level locations match everything on the same router (a message
    with no finer location is about the router as a whole).

    The dictionary memoizes the answer per pair.
    """
    return dictionary.spatially_matched_pair(a, b)


def common_ancestor(
    dictionary: LocationDictionary, a: Location, b: Location
) -> Location | None:
    """Lowest common ancestor of two locations on the same router, if any."""
    if a.router != b.router:
        return None
    ups_b = set(dictionary.ancestors(b))
    for candidate in dictionary.ancestors(a):  # bottom-up order
        if candidate in ups_b:
            return candidate
    return None
