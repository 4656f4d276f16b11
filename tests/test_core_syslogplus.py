"""Syslog+ augmentation tests."""

from __future__ import annotations

import pytest

from repro.core.syslogplus import Augmenter
from repro.locations.model import LocationKind
from repro.syslog.message import SyslogMessage


class TestAugmenter:
    def test_indices_are_sequential(self, system_a, live_a):
        augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
        stream = augmenter.augment_all(
            m.message for m in live_a.messages[:50]
        )
        assert [p.index for p in stream] == list(range(50))

    def test_template_assigned_to_every_message(self, system_a, live_a):
        augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
        for lm in live_a.messages[:200]:
            plus = augmenter.augment(lm.message)
            assert plus.template.error_code == lm.message.error_code

    def test_interface_message_gets_interface_location(self, system_a, data_a):
        link = data_a.network.links[0]
        message = SyslogMessage(
            timestamp=0.0,
            router=link.router_a,
            error_code="LINK-3-UPDOWN",
            detail=f"Interface {link.ifname_a}, changed state to down",
        )
        augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
        plus = augmenter.augment(message)
        assert plus.primary_location.kind is LocationKind.LOGICAL_IF
        assert plus.primary_location.name == link.ifname_a

    def test_locationless_message_falls_back_to_router(self, system_a, data_a):
        router = next(iter(data_a.network.routers))
        message = SyslogMessage(
            timestamp=0.0,
            router=router,
            error_code="SYS-5-CONFIG_I",
            detail="Configured from console by oper1 on vty0 (7.7.7.7)",
        )
        augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
        plus = augmenter.augment(message)
        assert plus.primary_location.kind is LocationKind.ROUTER

    def test_local_locations_exclude_remote(self, system_a, data_a):
        """An IP of a non-adjacent router is known but not 'local'."""
        routers = list(data_a.network.routers.values())
        a = routers[0]
        far = next(
            (
                r
                for r in routers
                if r.name not in data_a.network.neighbors_of(a.name)
                and r.name != a.name
            ),
            None,
        )
        if far is None:  # fully meshed tiny nets: nothing to assert
            return
        message = SyslogMessage(
            timestamp=0.0,
            router=a.name,
            error_code="TCP-6-BADAUTH",
            detail=f"Invalid MD5 digest from {far.loopback_ip}:1 to 1.1.1.1:179",
        )
        augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
        plus = augmenter.augment(message)
        assert all(loc.router == a.name for loc in plus.local_locations())
        assert all(
            item.role != "neighbor" or item.location.router != far.name
            for item in plus.locations
        )


class TestExceptionSafety:
    def test_resume_after_midbatch_failure(
        self, system_a, live_a, monkeypatch
    ):
        """A mid-batch parse failure must not desynchronize indices.

        ``augment_all`` assigns indices only after the whole batch has
        augmented, so a failed batch leaves the counter untouched and a
        retry reuses the same index range.
        """
        augmenter = Augmenter(system_a.kb.templates, system_a.kb.dictionary)
        first = augmenter.augment_all(
            m.message for m in live_a.messages[:10]
        )
        assert [p.index for p in first] == list(range(10))

        original = augmenter._extractor.extract

        def poisoned(router, detail):
            if detail == "POISON PILL Serial0/0":
                raise RuntimeError("mid-batch parse failure")
            return original(router, detail)

        monkeypatch.setattr(augmenter._extractor, "extract", poisoned)

        batch = [m.message for m in live_a.messages[10:15]]
        poison = SyslogMessage(
            timestamp=batch[-1].timestamp,
            router=batch[0].router,
            error_code="LINK-3-UPDOWN",
            detail="POISON PILL Serial0/0",
        )
        with pytest.raises(RuntimeError, match="mid-batch"):
            augmenter.augment_all(batch[:3] + [poison] + batch[3:])

        # The failed batch consumed no indices: retrying it (without the
        # poison) continues exactly where the first batch left off.
        retry = augmenter.augment_all(batch)
        assert [p.index for p in retry] == list(range(10, 15))
