"""Versioned model store: atomic commits, rollback, retention, journal."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.knowledge import KnowledgeFormatError
from repro.core.modelstore import KnowledgeStore, KnowledgeStoreError
from repro.utils.fsio import atomic_write_text

pytestmark = pytest.mark.lifecycle


@pytest.fixture()
def store(tmp_path, system_a):
    store = KnowledgeStore(tmp_path / "kbstore")
    store.commit(system_a.kb, note="initial", activate=True)
    return store


class TestCommitAndLoad:
    def test_first_commit_becomes_v1(self, store):
        assert store.version_ids() == [1]
        assert store.active_version() == 1

    def test_versions_are_monotonic(self, store, system_a):
        info2 = store.commit(system_a.kb, note="again")
        assert info2.version == 2
        assert store.version_ids() == [1, 2]
        # Committing without activate leaves the pointer alone.
        assert store.active_version() == 1

    def test_load_roundtrips_knowledge(self, store, system_a):
        kb, info = store.load_active()
        assert kb.fingerprint() == system_a.kb.fingerprint()
        assert info.fingerprint == system_a.kb.fingerprint()
        assert info.n_templates == len(system_a.kb.templates)
        assert info.n_rules == len(system_a.kb.rules)

    def test_load_verifies_fingerprint(self, store):
        info = store.versions()[0]
        payload = json.loads(
            store._kb_path(info.version).read_text(encoding="utf-8")
        )
        payload["history_days"] = payload["history_days"] + 1
        atomic_write_text(
            store._kb_path(info.version), json.dumps(payload)
        )
        with pytest.raises(KnowledgeStoreError, match="fingerprint"):
            store.load(info.version)
        # verify=False loads anyway (operator escape hatch).
        store.load(info.version, verify=False)

    def test_missing_version_raises(self, store):
        with pytest.raises(KnowledgeStoreError, match="no version 42"):
            store.load(42)

    def test_empty_store_has_no_active(self, tmp_path):
        fresh = KnowledgeStore(tmp_path / "empty")
        assert fresh.active_version() is None
        with pytest.raises(KnowledgeStoreError, match="no active"):
            fresh.load_active()

    def test_newer_payload_format_raises_format_error(
        self, store, system_a
    ):
        info = store.versions()[0]
        payload = json.loads(system_a.kb.to_json())
        payload["format_version"] = 99
        atomic_write_text(
            store._kb_path(info.version), json.dumps(payload)
        )
        with pytest.raises(KnowledgeFormatError) as err:
            store.load(info.version, verify=False)
        assert err.value.found == 99
        assert str(info.version) in err.value.source

    def test_foreign_store_format_refused(self, store):
        meta = store._meta_path(1)
        payload = json.loads(meta.read_text(encoding="utf-8"))
        payload["store_format"] = 99
        atomic_write_text(meta, json.dumps(payload))
        with pytest.raises(KnowledgeStoreError, match="store format"):
            store.load(1)


class TestActivateAndRollback:
    def test_activate_switches_pointer(self, store, system_a):
        info = store.commit(system_a.kb, note="v2")
        store.activate(info.version)
        assert store.active_version() == 2

    def test_rollback_returns_to_previous(self, store, system_a):
        store.commit(system_a.kb, note="v2", activate=True)
        assert store.active_version() == 2
        info = store.rollback()
        assert info.version == 1
        assert store.active_version() == 1

    def test_rollback_to_explicit_version(self, store, system_a):
        store.commit(system_a.kb, note="v2", activate=True)
        store.commit(system_a.kb, note="v3", activate=True)
        store.rollback(to=1)
        assert store.active_version() == 1

    def test_rollback_without_history_raises(self, store):
        with pytest.raises(KnowledgeStoreError, match="roll back"):
            store.rollback()

    def test_rollback_loads_identical_knowledge(self, store, system_a):
        fp1 = store.load_active()[0].fingerprint()
        candidate = system_a.kb.clone()
        candidate.history_days += 7.0
        store.commit(candidate, note="drifted", activate=True)
        assert store.load_active()[0].fingerprint() != fp1
        store.rollback()
        assert store.load_active()[0].fingerprint() == fp1


class TestJournal:
    def test_lifecycle_is_journaled(self, store, system_a):
        store.commit(system_a.kb, note="v2", activate=True)
        store.record_rejection(["match rate below floor"], version=2)
        store.rollback()
        kinds = [e["kind"] for e in store.log()]
        assert kinds == [
            "commit",
            "activate",
            "commit",
            "activate",
            "reject",
            "rollback",
        ]
        reject = [e for e in store.log() if e["kind"] == "reject"][0]
        assert reject["reasons"] == ["match rate below floor"]

    def test_journal_survives_reopen(self, store, tmp_path, system_a):
        store.commit(system_a.kb, note="v2", activate=True)
        reopened = KnowledgeStore(store.root)
        assert reopened.active_version() == 2
        assert [e["kind"] for e in reopened.log()] == [
            "commit",
            "activate",
            "commit",
            "activate",
        ]


class TestRetention:
    def test_prune_keeps_newest_and_active(self, tmp_path, system_a):
        store = KnowledgeStore(tmp_path / "kbstore", retention=2)
        store.commit(system_a.kb, note="v1", activate=True)
        for i in range(2, 6):
            store.commit(system_a.kb, note=f"v{i}")
        # v1 stays despite being oldest: it is active.
        assert store.active_version() == 1
        assert store.version_ids() == [1, 4, 5]
        store.load(1)

    def test_pruned_versions_are_gone_from_disk(self, tmp_path, system_a):
        store = KnowledgeStore(tmp_path / "kbstore", retention=1)
        store.commit(system_a.kb, note="v1", activate=True)
        store.commit(system_a.kb, note="v2", activate=True)
        store.commit(system_a.kb, note="v3", activate=True)
        assert store.version_ids() == [3]
        assert not store._kb_path(2).exists()
        assert not store._meta_path(2).exists()

    def test_retention_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="retention"):
            KnowledgeStore(tmp_path / "x", retention=0)


class TestCrashSafety:
    """Kill-mid-promote leaves old OR new active — never a mixed store."""

    def test_crash_before_activate_keeps_old_serving(
        self, store, system_a, monkeypatch
    ):
        fp_before = store.load_active()[0].fingerprint()

        boom = RuntimeError("killed mid-promote")

        def dying_activate(version, _kind="activate"):
            raise boom

        monkeypatch.setattr(store, "activate", dying_activate)
        with pytest.raises(RuntimeError):
            store.commit(system_a.kb, note="doomed", activate=True)
        # The new version exists (orphaned but valid)...
        assert store.version_ids() == [1, 2]
        # ...while the pointer still serves the old one, intact.
        assert store.active_version() == 1
        assert store.load_active()[0].fingerprint() == fp_before

    def test_crash_during_pointer_write_leaves_old_pointer(
        self, store, system_a, monkeypatch
    ):
        info = store.commit(system_a.kb, note="v2")
        real_replace = os.replace

        def dying_replace(src, dst):
            if str(dst).endswith("ACTIVE"):
                raise OSError("power loss")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError):
            store.activate(info.version)
        monkeypatch.setattr(os, "replace", real_replace)
        # The temp file never replaced the pointer: old version serves.
        assert store.active_version() == 1

    def test_interrupted_commit_leaves_loadable_store(
        self, store, system_a, monkeypatch
    ):
        real_replace = os.replace

        def dying_replace(src, dst):
            if str(dst).endswith(".meta.json"):
                raise OSError("power loss")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError):
            store.commit(system_a.kb, note="doomed")
        monkeypatch.setattr(os, "replace", real_replace)
        # The half-committed version has no meta file, so it simply does
        # not exist as far as the store is concerned.
        assert store.version_ids() == [1]
        assert store.active_version() == 1
        store.load_active()
