"""Grouping tests, centered on the paper's Table 2 toy example."""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import DigestConfig
from repro.core.grouping import (
    GroupingEngine,
    build_rule_partners,
    rule_edges,
)
from repro.core.knowledge import KnowledgeBase
from repro.core.shards import ShardState
from repro.core.stream import _step_item
from repro.core.syslogplus import Augmenter
from repro.locations.dictionary import LocationDictionary
from repro.locations.model import Location, LocationKind
from repro.mining.rules import AssociationRule, RuleMiner
from repro.mining.rulestore import RuleStore
from repro.mining.temporal import TemporalParams
from repro.syslog.message import SyslogMessage
from repro.templates.learner import TemplateSet
from repro.templates.signature import Template


def _toy_templates() -> TemplateSet:
    make = lambda key, code, words: Template(key, code, tuple(words))
    return TemplateSet(
        by_code={
            "LINK-3-UPDOWN": [
                make("t1", "LINK-3-UPDOWN",
                     "Interface changed state to down".split()),
                make("t3", "LINK-3-UPDOWN",
                     "Interface changed state to up".split()),
            ],
            "LINEPROTO-5-UPDOWN": [
                make("t2", "LINEPROTO-5-UPDOWN",
                     "Line protocol on Interface changed state to down".split()),
                make("t4", "LINEPROTO-5-UPDOWN",
                     "Line protocol on Interface changed state to up".split()),
            ],
        }
    )


def _toy_dictionary() -> LocationDictionary:
    d = LocationDictionary()
    d.add_router("r1", "GA")
    d.add_router("r2", "TX")
    a = d.add_component("r1", "Serial1/0/10:0")
    b = d.add_component("r2", "Serial1/0/20:0")
    d.add_link(a, b)
    return d


def _toy_rules() -> RuleStore:
    store = RuleStore(miner=RuleMiner(window=120.0))
    for x, y in [("t1", "t2"), ("t3", "t4"), ("t1", "t3")]:
        store._rules[(x, y)] = AssociationRule(
            x=x, y=y, support_x=0.1, support_pair=0.09, confidence=0.9
        )
    return store


@pytest.fixture()
def toy_kb() -> KnowledgeBase:
    return KnowledgeBase(
        templates=_toy_templates(),
        dictionary=_toy_dictionary(),
        temporal=TemporalParams(alpha=0.05, beta=5.0),
        rules=_toy_rules(),
        frequencies={},
        history_days=30.0,
    )


def _table2_messages() -> list[SyslogMessage]:
    """The 16 messages of Table 2: a link flapping twice, both ends."""
    out = []
    for flap in range(2):
        base = flap * 20.0
        for offset, state in ((0.0, "down"), (10.0, "up")):
            for router, iface in (
                ("r1", "Serial1/0/10:0"),
                ("r2", "Serial1/0/20:0"),
            ):
                out.append(
                    SyslogMessage(
                        timestamp=base + offset,
                        router=router,
                        error_code="LINK-3-UPDOWN",
                        detail=f"Interface {iface}, changed state to {state}",
                    )
                )
                out.append(
                    SyslogMessage(
                        timestamp=base + offset + 1.0,
                        router=router,
                        error_code="LINEPROTO-5-UPDOWN",
                        detail=(
                            f"Line protocol on Interface {iface},"
                            f" changed state to {state}"
                        ),
                    )
                )
    out.sort(key=lambda m: m.timestamp)
    return out


def _group(kb: KnowledgeBase, config: DigestConfig, messages):
    augmenter = Augmenter(kb.templates, kb.dictionary)
    stream = augmenter.augment_all(messages)
    return GroupingEngine(kb, config).group(stream)


class TestTable2ToyExample:
    def test_all_sixteen_messages_become_one_event(self, toy_kb):
        outcome = _group(toy_kb, DigestConfig(), _table2_messages())
        assert len(outcome.groups) == 1
        assert len(outcome.groups[0]) == 16

    def test_temporal_only_groups_per_template_and_location(self, toy_kb):
        config = DigestConfig().only_passes(True, False, False)
        outcome = _group(toy_kb, config, _table2_messages())
        # 4 templates x 2 routers = 8 groups of 2 messages each.
        assert len(outcome.groups) == 8
        assert all(len(g) == 2 for g in outcome.groups)

    def test_rules_merge_within_router(self, toy_kb):
        config = DigestConfig().only_passes(True, True, False)
        outcome = _group(toy_kb, config, _table2_messages())
        # One group per router, each holding its 8 messages.
        assert len(outcome.groups) == 2
        routers = {g[0].router for g in outcome.groups}
        assert routers == {"r1", "r2"}

    def test_active_rules_are_reported(self, toy_kb):
        outcome = _group(toy_kb, DigestConfig(), _table2_messages())
        assert ("t1", "t2") in outcome.active_rules
        assert ("t3", "t4") in outcome.active_rules

    def test_unrelated_router_is_not_merged(self, toy_kb):
        toy_kb.dictionary.add_router("r9", "WA")
        messages = _table2_messages() + [
            SyslogMessage(
                timestamp=0.5,
                router="r9",
                error_code="LINK-3-UPDOWN",
                detail="Interface Serial9/9/9:0, changed state to down",
            )
        ]
        messages.sort(key=lambda m: m.timestamp)
        outcome = _group(toy_kb, DigestConfig(), messages)
        assert len(outcome.groups) == 2
        sizes = sorted(len(g) for g in outcome.groups)
        assert sizes == [1, 16]

    def test_far_apart_flaps_split_into_two_events(self, toy_kb):
        late = [
            SyslogMessage(
                timestamp=m.timestamp + 5 * 24 * 3600.0,
                router=m.router,
                error_code=m.error_code,
                detail=m.detail,
            )
            for m in _table2_messages()
        ]
        messages = sorted(
            _table2_messages() + late, key=lambda m: m.timestamp
        )
        outcome = _group(toy_kb, DigestConfig(), messages)
        assert len(outcome.groups) == 2
        assert all(len(g) == 16 for g in outcome.groups)


class TestBucketCollapse:
    """``k`` messages of one template at one location, then ``m`` of a
    rule partner there: the first partner relates to all ``k`` and
    collapses their bucket, each later one relates to the survivor —
    ``k + m - 1`` rule edges where a flat window emits ``k * m``."""

    K, M = 40, 25

    def _stream(self, kb):
        iface = "Serial1/0/10:0"
        downs = [
            ("LINK-3-UPDOWN", f"Interface {iface}, changed state to down")
        ] * self.K
        protos = [
            (
                "LINEPROTO-5-UPDOWN",
                f"Line protocol on Interface {iface}, changed state to down",
            )
        ] * self.M
        messages = [
            SyslogMessage(
                timestamp=0.5 * i, router="r1", error_code=code, detail=detail
            )
            for i, (code, detail) in enumerate(downs + protos)
        ]
        return Augmenter(kb.templates, kb.dictionary).augment_all(messages)

    def test_batch_rule_pass(self, toy_kb):
        k, m = self.K, self.M
        edges, active = rule_edges(
            self._stream(toy_kb),
            build_rule_partners(toy_kb.rule_pairs()),
            120.0,
            toy_kb.dictionary,
        )
        assert len(edges) == k + m - 1
        assert set(edges[:k]) == {(i, k) for i in range(k)}
        assert edges[k:] == [(k - 1, k + j) for j in range(1, m)]
        assert active == {("t1", "t2")}

    def test_stream_shard_step(self, toy_kb):
        config = DigestConfig().only_passes(False, True, False)
        shard = ShardState(
            0, toy_kb, config, build_rule_partners(toy_kb.rule_pairs())
        )
        edges = []
        for plus in self._stream(toy_kb):
            edges.extend(shard.step(_step_item(plus), plus.timestamp))
        assert len(edges) == self.K + self.M - 1
        # The matched bucket is down to its survivor; the partners'
        # own bucket, which nothing has matched yet, still holds all M.
        assert shard.counts() == (0, 1 + self.M)


class TestOrderInvariance:
    def test_pass_order_does_not_change_groups(self, toy_kb):
        """The union-find merge makes pass order irrelevant (§4.2.3)."""
        messages = _table2_messages()
        augmenter = Augmenter(toy_kb.templates, toy_kb.dictionary)
        stream = augmenter.augment_all(messages)

        def run_with_order(order):
            engine = GroupingEngine(toy_kb, DigestConfig())
            from repro.utils.unionfind import UnionFind

            uf = UnionFind(range(len(stream)))
            passes = {
                "T": lambda: engine._temporal_pass(stream, uf),
                "R": lambda: engine._rule_pass(stream, uf, set()),
                "C": lambda: engine._cross_router_pass(stream, uf),
            }
            for name in order:
                passes[name]()
            return frozenset(
                frozenset(members) for members in uf.groups().values()
            )

        results = {run_with_order(order) for order in
                   itertools.permutations("TRC")}
        assert len(results) == 1


class TestGroupingOnGeneratedData:
    def test_groups_partition_the_stream(self, system_a, live_a):
        outcome = _group(
            system_a.kb, system_a.config,
            [m.message for m in live_a.messages],
        )
        total = sum(len(g) for g in outcome.groups)
        assert total == len(live_a.messages)
        indices = [p.index for g in outcome.groups for p in g]
        assert len(set(indices)) == total

    def test_groups_do_not_span_unrelated_incident_kinds(
        self, system_a, live_a
    ):
        """A group should not mix e.g. a CPU alarm with a TCP scan."""
        truth = {}
        for i, lm in enumerate(live_a.messages):
            truth[i] = lm.event_id
        outcome = _group(
            system_a.kb, system_a.config,
            [m.message for m in live_a.messages],
        )
        incompatible = {("cpu_oscillation", "tcp_scan"),
                        ("env_temp_alarm", "config_session")}
        for group in outcome.groups:
            kinds = {
                truth[p.index].split("-", 1)[1]
                for p in group
                if truth[p.index] is not None
            }
            for a, b in incompatible:
                assert not ({a, b} <= kinds)
