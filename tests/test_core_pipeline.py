"""End-to-end pipeline tests on generated data."""

from __future__ import annotations

import pytest

from repro.core.config import DigestConfig
from repro.core.pipeline import SyslogDigest


class TestLearn:
    def test_learn_requires_history(self, data_a):
        with pytest.raises(ValueError):
            SyslogDigest.learn([], list(data_a.configs.values()))

    def test_learned_artifacts_present(self, system_a):
        kb = system_a.kb
        assert len(kb.templates) > 10
        assert len(kb.rules) > 0
        assert kb.frequencies
        assert kb.dictionary.routers
        assert kb.history_days > 5

    def test_config_temporal_follows_kb(self, system_a):
        assert system_a.config.temporal == system_a.kb.temporal


class TestDigest:
    def test_events_partition_messages(self, digest_a, live_a):
        total = sum(e.n_messages for e in digest_a.events)
        assert total == digest_a.n_messages == len(live_a.messages)

    def test_substantial_compression(self, digest_a):
        assert digest_a.compression_ratio < 0.15

    def test_pass_toggles_order_compression(self, system_a, live_a):
        """Table 7's ordering: ratio(T) > ratio(T+R) > ratio(T+R+C)."""
        messages = [m.message for m in live_a.messages]
        ratios = {}
        for label, passes in (
            ("T", (True, False, False)),
            ("T+R", (True, True, False)),
            ("T+R+C", (True, True, True)),
        ):
            system = SyslogDigest(
                system_a.kb, system_a.config.only_passes(*passes)
            )
            ratios[label] = system.digest(messages).compression_ratio
        assert ratios["T"] > ratios["T+R"] > ratios["T+R+C"]

    def test_every_event_labelled(self, digest_a):
        assert all(e.label for e in digest_a.events)

    def test_active_rules_reported(self, digest_a, system_a):
        assert digest_a.active_rules <= system_a.kb.rule_pairs()
        assert digest_a.active_rules

    def test_per_day_counts(self, digest_a, live_a):
        from repro.utils.timeutils import DAY

        origin = 10 * DAY
        per_day = digest_a.per_day(origin)
        assert sum(d["messages"] for d in per_day.values()) == len(
            live_a.messages
        )

    def test_per_day_clamps_pre_origin_events(self, digest_a):
        """A late origin must not create negative day buckets."""
        from repro.utils.timeutils import DAY

        late_origin = 11 * DAY  # one day into the live window
        per_day = digest_a.per_day(late_origin)
        assert all(day >= 0 for day in per_day)
        assert sum(d["messages"] for d in per_day.values()) == sum(
            e.n_messages for e in digest_a.events
        )

    def test_per_router_counts(self, digest_a):
        per_router = digest_a.per_router()
        assert per_router
        for counts in per_router.values():
            assert counts["events"] >= 1
            assert counts["messages"] >= counts["events"]

    def test_render_smoke(self, digest_a):
        text = digest_a.render(top=3)
        assert len(text.splitlines()) == 3


class TestGroundTruthQuality:
    def test_incident_messages_not_scattered(self, digest_a, live_a):
        """Most injected incidents resolve to very few digest events."""
        event_of_index: dict[int, int] = {}
        for event_no, event in enumerate(digest_a.events):
            for i in event.indices:
                event_of_index[i] = event_no
        from collections import Counter, defaultdict

        incident_events = defaultdict(set)
        for i, lm in enumerate(live_a.messages):
            if lm.event_id is not None:
                incident_events[lm.event_id].add(event_of_index[i])
        splits = Counter(len(evs) for evs in incident_events.values())
        mean_split = sum(k * v for k, v in splits.items()) / max(
            sum(splits.values()), 1
        )
        assert mean_split <= 6.0

    def test_no_event_mixes_many_incidents(self, digest_a, live_a):
        truth = [lm.event_id for lm in live_a.messages]
        for event in digest_a.events:
            ids = {
                truth[i] for i in event.indices if truth[i] is not None
            }
            assert len(ids) <= 4
