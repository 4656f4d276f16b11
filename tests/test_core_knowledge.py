"""Knowledge base serialization tests."""

from __future__ import annotations

import json

import pytest

from repro.core.knowledge import (
    KB_FORMAT_VERSION,
    KnowledgeBase,
    KnowledgeFormatError,
)


class TestJsonRoundTrip:
    def test_roundtrip_preserves_templates(self, system_a):
        kb = system_a.kb
        back = KnowledgeBase.from_json(kb.to_json())
        assert {
            t.key: t.words for t in back.templates.all_templates()
        } == {t.key: t.words for t in kb.templates.all_templates()}

    def test_roundtrip_preserves_rules(self, system_a):
        kb = system_a.kb
        back = KnowledgeBase.from_json(kb.to_json())
        assert back.rule_pairs() == kb.rule_pairs()
        assert back.rules.miner == kb.rules.miner

    def test_roundtrip_preserves_temporal_params(self, system_a):
        back = KnowledgeBase.from_json(system_a.kb.to_json())
        assert back.temporal == system_a.kb.temporal

    def test_roundtrip_preserves_frequencies(self, system_a):
        back = KnowledgeBase.from_json(system_a.kb.to_json())
        assert back.frequencies == system_a.kb.frequencies
        assert back.history_days == system_a.kb.history_days

    def test_roundtrip_preserves_dictionary_behaviour(self, system_a):
        kb = system_a.kb
        back = KnowledgeBase.from_json(kb.to_json())
        assert back.dictionary.routers == kb.dictionary.routers
        assert set(back.dictionary.all_links()) == set(
            kb.dictionary.all_links()
        )
        for router in kb.dictionary.routers:
            assert back.dictionary.site_of(router) == kb.dictionary.site_of(
                router
            )

    def test_save_load_file(self, tmp_path, system_a):
        path = tmp_path / "kb.json"
        system_a.kb.save(path)
        back = KnowledgeBase.load(path)
        assert back.temporal == system_a.kb.temporal

    def test_digest_identical_after_roundtrip(self, system_a, live_a):
        """The serialized knowledge base drives identical digests."""
        from repro.core.pipeline import SyslogDigest

        back = KnowledgeBase.from_json(system_a.kb.to_json())
        system2 = SyslogDigest(back, system_a.config)
        messages = [m.message for m in live_a.messages[:3000]]
        r1 = system_a.digest(messages)
        r2 = system2.digest(messages)
        assert r1.n_events == r2.n_events
        assert [e.indices for e in r1.events] == [
            e.indices for e in r2.events
        ]


@pytest.mark.lifecycle
class TestFormatVersion:
    def test_payload_declares_format_version(self, system_a):
        payload = json.loads(system_a.kb.to_json())
        assert payload["format_version"] == KB_FORMAT_VERSION

    def test_newer_format_raises_with_found_version(self, system_a):
        payload = json.loads(system_a.kb.to_json())
        payload["format_version"] = 99
        with pytest.raises(KnowledgeFormatError) as err:
            KnowledgeBase.from_json(json.dumps(payload))
        assert err.value.found == 99
        assert err.value.source == "<string>"
        assert "99" in str(err.value)

    def test_non_integer_format_raises(self, system_a):
        payload = json.loads(system_a.kb.to_json())
        payload["format_version"] = "2.0"
        with pytest.raises(KnowledgeFormatError) as err:
            KnowledgeBase.from_json(json.dumps(payload))
        assert err.value.found == "2.0"

    def test_load_names_the_offending_file(self, tmp_path, system_a):
        payload = json.loads(system_a.kb.to_json())
        payload["format_version"] = 99
        path = tmp_path / "future-kb.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(KnowledgeFormatError) as err:
            KnowledgeBase.load(path)
        assert err.value.source == str(path)
        assert str(path) in str(err.value)

    def test_missing_top_level_key_names_it(self, system_a):
        payload = json.loads(system_a.kb.to_json())
        del payload["rules"]
        with pytest.raises(KnowledgeFormatError, match="lacks .* rules"):
            KnowledgeBase.from_json(json.dumps(payload))

    def test_legacy_payload_without_version_loads(self, system_a):
        payload = json.loads(system_a.kb.to_json())
        del payload["format_version"]
        back = KnowledgeBase.from_json(json.dumps(payload))
        assert {t.key for t in back.templates.all_templates()} == {
            t.key for t in system_a.kb.templates.all_templates()
        }


@pytest.mark.lifecycle
class TestFingerprintAndClone:
    def test_fingerprint_is_stable_across_key_order(self, system_a):
        kb = system_a.kb
        shuffled = json.dumps(
            json.loads(kb.to_json()), sort_keys=True, indent=3
        )
        assert (
            KnowledgeBase.from_json(shuffled).fingerprint()
            == kb.fingerprint()
        )

    def test_clone_fingerprints_identically(self, system_a):
        assert (
            system_a.kb.clone().fingerprint()
            == system_a.kb.fingerprint()
        )

    def test_fingerprint_tracks_content(self, system_a):
        changed = system_a.kb.clone()
        changed.history_days += 1.0
        assert changed.fingerprint() != system_a.kb.fingerprint()

    def test_clone_is_independent(self, system_a):
        kb = system_a.kb
        fp = kb.fingerprint()
        clone = kb.clone()
        clone.frequencies[("made-up-router", "made-up/0")] = 123
        clone.history_days += 5.0
        assert ("made-up-router", "made-up/0") not in kb.frequencies
        assert kb.fingerprint() == fp


class TestFrequencyLookup:
    def test_per_day_normalization(self, system_a):
        kb = system_a.kb
        (router, template), count = next(iter(kb.frequencies.items()))
        assert kb.frequency(router, template) == count / kb.history_days

    def test_unknown_signature_is_zero(self, system_a):
        assert system_a.kb.frequency("nope", "nope/0") == 0.0
