"""Location dictionary tests."""

from __future__ import annotations

import pytest

from repro.locations.dictionary import LocationDictionary, build_dictionary
from repro.locations.model import Location, LocationKind


@pytest.fixture()
def dictionary() -> LocationDictionary:
    d = LocationDictionary()
    d.add_router("r1", "GA")
    d.add_router("r2", "TX")
    a = d.add_component("r1", "Serial1/0/10:0")
    b = d.add_component("r2", "Serial2/0/10:0")
    d.set_ip(a, "10.0.0.1")
    d.set_ip(b, "10.0.0.2")
    d.add_link(a, b)
    return d


class TestInventory:
    def test_component_registers_ancestors(self, dictionary):
        assert dictionary.has_component(
            Location("r1", LocationKind.SLOT, "1")
        )
        assert dictionary.has_component(
            Location("r1", LocationKind.PORT, "1/0")
        )

    def test_site_lookup(self, dictionary):
        assert dictionary.site_of("r1") == "GA"
        assert dictionary.site_of("nope") is None

    def test_ip_lookup_both_ways(self, dictionary):
        loc = dictionary.location_of_ip("10.0.0.1")
        assert loc is not None and loc.router == "r1"
        assert dictionary.ip_of(loc) == "10.0.0.1"
        assert dictionary.location_of_ip("8.8.8.8") is None

    def test_stats(self, dictionary):
        stats = dictionary.stats()
        assert stats["routers"] == 2
        assert stats["ips"] == 2
        assert stats["adjacencies"] == 1


class TestConnectivity:
    def test_link_ends_are_connected(self, dictionary):
        a = Location("r1", LocationKind.LOGICAL_IF, "Serial1/0/10:0")
        b = Location("r2", LocationKind.LOGICAL_IF, "Serial2/0/10:0")
        assert dictionary.connected(a, b)
        assert dictionary.connected(b, a)

    def test_connected_climbs_hierarchy(self, dictionary):
        """The check climbs each end *up* to the link, never down: the far
        end's slot is an ancestor of the linked interface, not a link end,
        so it is not connected in either direction."""
        slot = Location("r2", LocationKind.SLOT, "2")
        a = Location("r1", LocationKind.LOGICAL_IF, "Serial1/0/10:0")
        assert not dictionary.connected(a, slot)
        assert not dictionary.connected(slot, a)

    def test_same_router_never_connected(self, dictionary):
        a = Location("r1", LocationKind.LOGICAL_IF, "Serial1/0/10:0")
        assert not dictionary.connected(a, Location.router_level("r1"))

    def test_link_on_same_router_rejected(self, dictionary):
        a = Location("r1", LocationKind.PORT, "1/0")
        b = Location("r1", LocationKind.SLOT, "1")
        with pytest.raises(ValueError):
            dictionary.add_link(a, b)

    def test_unrelated_not_connected(self, dictionary):
        dictionary.add_router("r3")
        c = dictionary.add_component("r3", "Serial3/0/10:0")
        a = Location("r1", LocationKind.LOGICAL_IF, "Serial1/0/10:0")
        assert not dictionary.connected(a, c)


class TestMultilink:
    def test_members_participate_in_ancestors(self, dictionary):
        bundle = dictionary.add_component("r1", "Multilink3")
        member = Location("r1", LocationKind.LOGICAL_IF, "Serial1/0/10:0")
        dictionary.add_multilink_member(bundle, member)
        assert bundle in dictionary.ancestors(member)
        assert member in dictionary.multilink_members(bundle)

    def test_non_bundle_rejected(self, dictionary):
        not_bundle = Location("r1", LocationKind.PORT, "1/0")
        with pytest.raises(ValueError):
            dictionary.add_multilink_member(
                not_bundle, Location.router_level("r1")
            )


class TestMergeAndPending:
    def test_build_dictionary_resolves_pending_links(self):
        d1 = LocationDictionary()
        d1.add_router("r1")
        d1.add_component("r1", "Serial1/0/10:0")
        d1.add_pending_link("r1", "r2", "Serial1/0/10:0", "Serial2/0/10:0")
        d2 = LocationDictionary()
        d2.add_router("r2")
        d2.add_component("r2", "Serial2/0/10:0")
        merged = build_dictionary([d1, d2])
        a = Location("r1", LocationKind.LOGICAL_IF, "Serial1/0/10:0")
        b = Location("r2", LocationKind.LOGICAL_IF, "Serial2/0/10:0")
        assert merged.connected(a, b)

    def test_pending_link_to_unknown_component_dropped(self):
        d1 = LocationDictionary()
        d1.add_router("r1")
        d1.add_component("r1", "Serial1/0/10:0")
        d1.add_pending_link("r1", "rX", "Serial1/0/10:0", "SerialX/0/10:0")
        merged = build_dictionary([d1])
        a = Location("r1", LocationKind.LOGICAL_IF, "Serial1/0/10:0")
        assert not merged.peers(a)
