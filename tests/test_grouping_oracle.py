"""Production grouping passes ≡ their definitions (``tests/oracle.py``).

The rule and cross-router passes keep a bucketed window that collapses a
matched bucket to its newest entry, so they emit far fewer edges than
the definition has related pairs.  The property here: over generated
streams that repeat a small cast of ``(router, template, location)``
combinations in bursts — the shape that fills buckets — the edges they
do emit are all true relations and span exactly the definition's
connected components, with the same rules active; and a
:class:`DigestStream` pushed one by one or in batches, sweeping and
pruning on the way, ends with exactly the events those components say.
"""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DigestConfig
from repro.core.grouping import (
    GroupingEngine,
    build_rule_partners,
    cross_router_edges,
    rule_edges,
    temporal_edges,
)
from repro.core.knowledge import KnowledgeBase
from repro.core.stream import DigestStream
from repro.core.syslogplus import Augmenter
from repro.hotpath import stream_fingerprint
from repro.locations.dictionary import LocationDictionary
from repro.mining.rules import AssociationRule
from repro.mining.temporal import TemporalParams
from repro.syslog.message import SyslogMessage
from repro.templates.signature import Template
from tests.oracle import components, cross_router_relation, rule_relation
from tests.test_core_grouping import _toy_rules, _toy_templates

ROUTERS = ("r1", "r2", "r3")
#: Two interfaces of one port (spatially matched with each other) and one
#: on another slot (matched with neither).
INTERFACES = ("Serial1/0/10:0", "Serial1/0/11:0", "Serial2/0/10:0")
#: ``(error code, detail format)``; the last names no component, so its
#: primary location is the router itself and matches everything on it.
KINDS = (
    ("LINK-3-UPDOWN", "Interface {ifc}, changed state to down"),
    ("LINK-3-UPDOWN", "Interface {ifc}, changed state to up"),
    (
        "LINEPROTO-5-UPDOWN",
        "Line protocol on Interface {ifc}, changed state to down",
    ),
    (
        "LINEPROTO-5-UPDOWN",
        "Line protocol on Interface {ifc}, changed state to up",
    ),
    ("SYS-5-RESTART", "System restarted"),
)
CONFIG = DigestConfig(window=60.0, cross_router_window=2.0, idle_flush=200.0)
#: Whole-second gaps, so ``t_j - t_i <= W`` has no rounding to disagree
#: about: simultaneous arrivals, steps that land inside, exactly on and
#: just past each window (2 s and 60 s), and quiet spells past the flush
#: horizon that make the stream finalize and prune.
GAPS = (0.0, 0.0, 1.0, 2.0, 3.0, 30.0, 30.0, 60.0, 61.0, 500.0)


def _kb() -> KnowledgeBase:
    """The Table 2 toy world (t1..t4 and their rules), widened: a
    router-level template t5 with rules of its own, three routers with
    three interfaces each, and a link per router pair."""
    templates = _toy_templates()
    templates.by_code["SYS-5-RESTART"] = [
        Template("t5", "SYS-5-RESTART", ("System", "restarted"))
    ]
    dictionary = LocationDictionary()
    ends = {
        (router, ifc): dictionary.add_component(router, ifc)
        for router in ROUTERS
        for ifc in INTERFACES
    }
    dictionary.add_link(ends["r1", INTERFACES[0]], ends["r2", INTERFACES[0]])
    dictionary.add_link(ends["r2", INTERFACES[2]], ends["r3", INTERFACES[2]])
    dictionary.add_link(ends["r1", INTERFACES[1]], ends["r3", INTERFACES[1]])
    rules = _toy_rules()
    for x, y in [("t1", "t5"), ("t4", "t5")]:
        rules._rules[(x, y)] = AssociationRule(
            x=x, y=y, support_x=0.1, support_pair=0.09, confidence=0.9
        )
    return KnowledgeBase(
        templates=templates,
        dictionary=dictionary,
        temporal=TemporalParams(alpha=0.05, beta=5.0, s_max=100.0),
        rules=rules,
        frequencies={},
        history_days=30.0,
    )


@st.composite
def bursty_streams(draw, routers=ROUTERS, kinds=KINDS) -> list[SyslogMessage]:
    """Time-sorted messages drawn from a cast of at most five
    ``(router, interface, kind)`` combinations.

    The fewer routers and kinds the cast may draw on, the more of its
    members can relate to each other: one router for the rule pass
    (which never looks across routers), one kind for the cross-router
    pass (which never looks across templates).
    """
    cast = draw(
        st.lists(
            st.tuples(
                st.sampled_from(routers),
                st.sampled_from(INTERFACES),
                st.sampled_from(kinds),
            ),
            min_size=2,
            max_size=5,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(GAPS), st.sampled_from(cast)),
            min_size=1,
            max_size=90,
        )
    )
    stamps = accumulate(gap for gap, _ in picks)
    return [
        SyslogMessage(
            timestamp=ts,
            router=router,
            error_code=code,
            detail=fmt.format(ifc=ifc),
        )
        for ts, (_, (router, ifc, (code, fmt))) in zip(stamps, picks)
    ]


def _index_sets(events) -> set[frozenset[int]]:
    return {frozenset(event.indices) for event in events}


class TestPassesMatchTheirDefinitions:
    @settings(max_examples=200, deadline=None)
    @given(bursty_streams(routers=ROUTERS[:1]))
    def test_rule_pass(self, messages):
        kb = _kb()
        stream = Augmenter(kb.templates, kb.dictionary).augment_all(messages)
        indices = [plus.index for plus in stream]
        edges, active = rule_edges(
            stream,
            build_rule_partners(kb.rule_pairs()),
            CONFIG.window,
            kb.dictionary,
        )
        defined, defined_active = rule_relation(
            stream, kb.rule_pairs(), CONFIG.window, kb.dictionary
        )
        assert set(edges) <= set(defined)
        assert components(indices, edges) == components(indices, defined)
        assert active == defined_active

    @settings(max_examples=200, deadline=None)
    @given(bursty_streams(kinds=KINDS[:1]))
    def test_cross_router_pass(self, messages):
        kb = _kb()
        stream = Augmenter(kb.templates, kb.dictionary).augment_all(messages)
        indices = [plus.index for plus in stream]
        edges = cross_router_edges(
            stream, CONFIG.cross_router_window, kb.dictionary
        )
        defined = cross_router_relation(
            stream, CONFIG.cross_router_window, kb.dictionary
        )
        assert set(edges) <= set(defined)
        assert components(indices, edges) == components(indices, defined)

    # Without the temporal pass nothing else joins the entries of one
    # bucket, so a wrong collapse cannot hide behind a temporal edge.
    @pytest.mark.parametrize("temporal", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(bursty_streams(routers=ROUTERS[:2]), st.integers(1, 40))
    def test_both_engines_end_with_the_defined_events(
        self, temporal, messages, chunk
    ):
        kb = _kb()
        stream = Augmenter(kb.templates, kb.dictionary).augment_all(messages)
        config = CONFIG.with_temporal(kb.temporal).only_passes(temporal)
        expected = components(
            [plus.index for plus in stream],
            temporal_edges(stream, kb.temporal, config.flush_after) * temporal
            + rule_relation(
                stream, kb.rule_pairs(), config.window, kb.dictionary
            )[0]
            + cross_router_relation(
                stream, config.cross_router_window, kb.dictionary
            ),
        )
        batch = GroupingEngine(kb, config).group(stream)
        assert {
            frozenset(plus.index for plus in group) for group in batch.groups
        } == expected

        one_by_one = DigestStream(kb, config, sweep_interval=50.0)
        singly = [e for m in messages for e in one_by_one.push(m)]
        singly += one_by_one.close()
        batched = DigestStream(kb, config, sweep_interval=50.0)
        chunked = []
        for i in range(0, len(messages), chunk):
            chunked += batched.push_many(messages[i : i + chunk])
        chunked += batched.close()
        assert _index_sets(singly) == expected
        assert _index_sets(chunked) == expected
        # Same events, not merely the same partition — though emission
        # order may differ: a batch sweeps once, at its last message.
        by_start = lambda e: (e.start_ts, e.indices)
        assert stream_fingerprint(
            sorted(singly, key=by_start)
        ) == stream_fingerprint(sorted(chunked, key=by_start))
