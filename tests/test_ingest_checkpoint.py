"""Ingest × checkpoint: kill mid-reorder-buffer, resume, stay identical.

The contract (DESIGN.md §8 + §10): ingest state rides inside the stream
snapshot, so one checkpoint file captures both consistently — a message
is either still in the reorder buffer or already inside the stream
state, never both, never neither.  A run restored from such a
checkpoint and re-fed each source's remaining arrivals produces output
byte-identical to an uninterrupted run, for the serial and the
thread-sharded engine, and breaker state (including an *open* breaker
mid-outage) survives the round trip.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.checkpoint import (
    read_checkpoint,
    restore_ingest,
    restore_stream,
    write_checkpoint,
)
from repro.core.config import IngestConfig
from repro.core.present import present_event
from repro.core.stream import DigestStream
from repro.hotpath import stream_fingerprint
from repro.syslog.ingest import BREAKER_FAILURE_THRESHOLD, MultiSourceIngest
from repro.syslog.resilient import Quarantine
from repro.syslog.stream import sort_messages

from tests.test_syslog_ingest import _msg, _tiny_stream

pytestmark = pytest.mark.ingest


@pytest.fixture(scope="module")
def ordered_a(live_a):
    return sort_messages(m.message for m in live_a.messages)


@pytest.fixture(scope="module")
def arrivals_a(ordered_a):
    """ordered_a split round-robin across two collector feeds."""
    return [
        ("east" if i % 2 == 0 else "west", m)
        for i, m in enumerate(ordered_a)
    ]


def _rendered(events):
    return [present_event(e) for e in events]


def _replay_tail(ingest, arrivals):
    """Re-feed ``arrivals``, skipping what each source already consumed."""
    seen = {name: 0 for name in ingest.pushed_counts()}
    done = ingest.pushed_counts()
    events = []
    for source, message in arrivals:
        if seen.get(source, 0) < done.get(source, 0):
            seen[source] = seen.get(source, 0) + 1
            continue
        events.extend(ingest.push(source, message))
    events.extend(ingest.close())
    return events


def _full_run(kb, config, arrivals):
    ingest = MultiSourceIngest(DigestStream(kb, config))
    events = []
    for source, message in arrivals:
        events.extend(ingest.push(source, message))
    events.extend(ingest.close())
    return events


class TestKillMidBuffer:
    def _kill_and_resume(self, system_a, arrivals, config, tmp_path):
        full = _full_run(system_a.kb, config, arrivals)

        cut = len(arrivals) // 2
        first_stream = DigestStream(system_a.kb, config)
        first = MultiSourceIngest(first_stream)
        events = []
        for source, message in arrivals[:cut]:
            events.extend(first.push(source, message))
        assert first.n_buffered > 0  # the kill lands mid-reorder-buffer
        path = tmp_path / "ingest.ckpt"
        write_checkpoint(path, first_stream)
        n_buffered = len(read_checkpoint(path)["ingest"]["buffer"])
        assert n_buffered == first.n_buffered > 0
        # The process dies here; `first` is never touched again.

        resumed_stream = restore_stream(path, system_a.kb)
        resumed = restore_ingest(resumed_stream)
        assert resumed.n_buffered == n_buffered
        assert resumed.pushed_counts() == first.pushed_counts()
        events.extend(_replay_tail(resumed, arrivals))
        assert _rendered(events) == _rendered(full)

    def test_serial_resume_is_byte_identical(
        self, system_a, arrivals_a, tmp_path
    ):
        self._kill_and_resume(
            system_a, arrivals_a, system_a.config, tmp_path
        )

    def test_workers4_resume_is_byte_identical(
        self, system_a, arrivals_a, tmp_path
    ):
        self._kill_and_resume(
            system_a, arrivals_a, system_a.config.with_workers(4), tmp_path
        )

    def test_checkpoint_info_reads_ingest_header_back(
        self, system_a, arrivals_a, tmp_path
    ):
        stream = DigestStream(system_a.kb, system_a.config)
        ingest = MultiSourceIngest(stream)
        for source, message in arrivals_a[: len(arrivals_a) // 2]:
            ingest.push(source, message)
        path = tmp_path / "ingest.ckpt"
        write_checkpoint(path, stream)
        read_back = read_checkpoint(path)["ingest"]
        assert len(read_back["buffer"]) == ingest.n_buffered > 0
        ingest.close()


class TestRetiredIngestFields:
    """Checkpoints written while the front-end still had sequence-gap
    accounting, stall detection and a configurable breaker carry those
    fields in their pickles; they keep restoring."""

    SLOTS = {
        "last_arrival_clock": None,
        "last_seq": 7,
        "opened_at": None,
        "seq_gaps": 0,
    }
    CONFIG = {
        "breaker_failure_threshold": 5,
        "probe_base_delay": 60.0,
        "probe_max_retries": 6,
        "stall_timeout": 0.0,
    }

    def test_restores_and_finishes_byte_identically(
        self, system_a, arrivals_a, tmp_path, monkeypatch
    ):
        full = _full_run(system_a.kb, system_a.config, arrivals_a)

        stream = DigestStream(system_a.kb, system_a.config)
        ingest = MultiSourceIngest(stream)
        events = []
        for source, message in arrivals_a[: len(arrivals_a) // 2]:
            events.extend(ingest.push(source, message))
        # Hand-build the old bytes: the retired slots back in every
        # source's capture, the retired attributes on the config.
        state = stream.snapshot()
        for captured in state["ingest"]["sources"].values():
            captured.update(self.SLOTS)
        for name, value in self.CONFIG.items():
            object.__setattr__(state["ingest"]["config"], name, value)
        monkeypatch.setattr(stream, "snapshot", lambda: state)
        path = tmp_path / "retired.ckpt"
        write_checkpoint(path, stream)
        blob = path.read_bytes()
        assert all(name.encode() in blob for name in [*self.SLOTS, *self.CONFIG])

        resumed = restore_ingest(restore_stream(path, system_a.kb))
        assert resumed.pushed_counts() == ingest.pushed_counts()
        events.extend(_replay_tail(resumed, arrivals_a))
        assert stream_fingerprint(events) == stream_fingerprint(full)


    def test_unpickled_config_drops_retired_fields(self):
        config = IngestConfig()
        for name, value in self.CONFIG.items():
            object.__setattr__(config, name, value)
        blob = pickle.dumps(config)
        assert b"stall_timeout" in blob
        restored = pickle.loads(blob)
        assert "stall_timeout" not in restored.__dict__
        assert not set(self.CONFIG) & set(vars(restored))
        assert restored == IngestConfig()
        assert b"stall_timeout" not in pickle.dumps(restored)


class TestBreakerSurvivesRestore:
    def _opened_ingest(self, quarantine=None):
        stream = _tiny_stream()
        ingest = MultiSourceIngest(
            stream,
            IngestConfig(max_reorder_delay=10.0),
            quarantine=quarantine,
        )
        ingest.push("good", _msg(0.0, router="rg"))
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            ingest.push_line("bad", "\x15garbage")
        return stream, ingest

    def test_open_breaker_survives_and_still_rejects(self, tmp_path):
        stream, ingest = self._opened_ingest()
        (bad,) = [s for s in ingest.sources() if s.name == "bad"]
        assert bad.state == "open"
        path = tmp_path / "breaker.ckpt"
        write_checkpoint(path, stream)

        resumed_stream = restore_stream(path, _tiny_kb())
        quarantine = Quarantine()
        resumed = restore_ingest(resumed_stream, quarantine=quarantine)
        (bad2,) = [s for s in resumed.sources() if s.name == "bad"]
        assert bad2.state == "open"
        assert bad2.parse_failures == BREAKER_FAILURE_THRESHOLD
        assert bad2.next_probe_at == bad.next_probe_at
        assert resumed.journal() == ingest.journal()

        # The restored breaker still enforces rejection before the
        # probe window...
        resumed.push("bad", _msg(1.0, router="rb"))
        assert resumed.last_outcome == "breaker_rejected"
        assert [r.kind for r in quarantine.records()] == ["breaker"]
        # ...and still re-closes through the normal probe path after it.
        resumed.push("good", _msg(120.0, router="rg"))
        resumed.push("bad", _msg(121.0, router="rb"))
        assert resumed.last_outcome == "admitted"
        (bad2,) = [s for s in resumed.sources() if s.name == "bad"]
        assert bad2.state == "closed"
        resumed.close()
        ingest.close()

    def test_restore_rejects_version_mismatch(self):
        stream, ingest = self._opened_ingest()
        state = stream.snapshot()["ingest"]
        state["version"] = 999
        with pytest.raises(ValueError, match="version"):
            MultiSourceIngest.from_snapshot(_tiny_stream(), state)
        ingest.close()


class TestPlainStreams:
    def test_has_ingest_false_without_front_end(
        self, system_a, ordered_a, tmp_path
    ):
        stream = DigestStream(system_a.kb, system_a.config)
        for message in ordered_a[:20]:
            stream.push(message)
        path = tmp_path / "plain.ckpt"
        write_checkpoint(path, stream)
        assert read_checkpoint(path)["ingest"] is None

    def test_restore_ingest_raises_without_state(
        self, system_a, ordered_a, tmp_path
    ):
        stream = DigestStream(system_a.kb, system_a.config)
        stream.push(ordered_a[0])
        path = tmp_path / "plain.ckpt"
        write_checkpoint(path, stream)
        resumed = restore_stream(path, system_a.kb)
        with pytest.raises(ValueError, match="no ingest state"):
            restore_ingest(resumed)


def _tiny_kb():
    from tests.test_syslog_ingest import _tiny_kb as make

    return make()
