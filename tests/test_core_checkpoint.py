"""Checkpoint/restore: kill-and-resume must be byte-identical.

The contract under test (DESIGN.md §8): a stream restored from a
checkpoint and fed the log tail produces exactly the events an
uninterrupted stream would have produced — same groups, same scores,
same order — with one shard and with several, on every executor lane.
"""

from __future__ import annotations

import pickle
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.cli import _push_interruptible
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_info,
    load_resume_state,
    previous_checkpoint_path,
    read_checkpoint,
    restore_stream,
    write_checkpoint,
)
from repro.core.present import present_event
from repro.core.shards import StepItem, WorkerProcessDied
from repro.core.stream import SNAPSHOT_VERSION, DigestStream, _step_item
from repro.hotpath import stream_fingerprint
from repro.obs import (
    CHECKPOINT_WRITES,
    MetricsRegistry,
    scoped_registry,
)
from repro.syslog.stream import sort_messages


@pytest.fixture(scope="module")
def ordered_a(live_a):
    return sort_messages(m.message for m in live_a.messages)


def _run(stream, messages):
    events = []
    for message in messages:
        events.extend(stream.push(message))
    events.extend(stream.close())
    return events


def _rendered(events):
    """The digest's byte-level identity: every presented line, in order."""
    return [present_event(e) for e in events]


class TestKillAndResume:
    def test_serial_resume_is_byte_identical(
        self, system_a, ordered_a, tmp_path
    ):
        full = _run(DigestStream(system_a.kb, system_a.config), ordered_a)

        half = len(ordered_a) // 2
        first = DigestStream(system_a.kb, system_a.config)
        events = []
        for message in ordered_a[:half]:
            events.extend(first.push(message))
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)
        assert info.n_admitted == half
        # The process dies here; `first` is never touched again.

        resumed = restore_stream(path, system_a.kb)
        assert resumed.n_admitted == half
        for message in ordered_a[info.n_admitted :]:
            events.extend(resumed.push(message))
        events.extend(resumed.close())
        assert _rendered(events) == _rendered(full)

    def test_workers_resume_is_byte_identical(
        self, system_a, ordered_a, tmp_path
    ):
        config = system_a.config.with_workers(4)
        chunk = 250
        chunks = [
            ordered_a[i : i + chunk]
            for i in range(0, len(ordered_a), chunk)
        ]
        full_stream = DigestStream(system_a.kb, config)
        full = []
        for part in chunks:
            full.extend(full_stream.push_many(part))
        full.extend(full_stream.close())

        cut = len(chunks) // 2
        first = DigestStream(system_a.kb, config)
        events = []
        for part in chunks[:cut]:
            events.extend(first.push_many(part))
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)

        resumed = restore_stream(path, system_a.kb)
        tail = ordered_a[info.n_admitted :]
        for i in range(0, len(tail), chunk):
            events.extend(resumed.push_many(tail[i : i + chunk]))
        events.extend(resumed.close())
        assert _rendered(events) == _rendered(full)

    def test_process_lane_kill_and_resume_is_byte_identical(
        self, system_a, ordered_a, tmp_path
    ):
        """Worker processes hard-killed mid-stream; resume on a fresh set.

        The snapshot gathers every worker's shard state over the wire,
        so a checkpoint taken from the process lane restores into brand
        new workers with nothing lost — and the killed stream itself
        fails loudly rather than grouping on half-dead shards.
        """
        config = system_a.config.with_workers(4).with_stream_workers(
            "processes"
        )
        chunk = 250
        chunks = [
            ordered_a[i : i + chunk]
            for i in range(0, len(ordered_a), chunk)
        ]
        full_stream = DigestStream(system_a.kb, config)
        assert full_stream.stream_lane == "processes"
        full = []
        for part in chunks:
            full.extend(full_stream.push_many(part))
        full.extend(full_stream.close())
        full_stream.shutdown_workers()

        cut = len(chunks) // 2
        first = DigestStream(system_a.kb, config)
        events = []
        for part in chunks[:cut]:
            events.extend(first.push_many(part))
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)

        # SIGTERM every live worker: the stream must refuse to continue.
        for proc in first._exec._pool._procs:
            proc.terminate()
            proc.join()
        with pytest.raises(WorkerProcessDied, match="checkpoint"):
            first.push_many(chunks[cut])

        resumed = restore_stream(path, system_a.kb)
        assert resumed.stream_lane == "processes"  # a fresh worker set
        tail = ordered_a[info.n_admitted :]
        for i in range(0, len(tail), chunk):
            events.extend(resumed.push_many(tail[i : i + chunk]))
        events.extend(resumed.close())
        resumed.shutdown_workers()
        assert _rendered(events) == _rendered(full)

    def test_cross_lane_resume_is_byte_identical(
        self, system_a, ordered_a, tmp_path
    ):
        """A checkpoint taken on one lane resumes on worker processes.

        The lane is an execution detail: passing ``restore_stream`` the
        checkpoint's config on another lane swaps it without touching
        grouping state, and the output matches an uninterrupted serial
        run.
        """
        config = system_a.config.with_workers(4)  # serial lane
        chunk = 250
        chunks = [
            ordered_a[i : i + chunk]
            for i in range(0, len(ordered_a), chunk)
        ]
        full_stream = DigestStream(system_a.kb, config)
        full = []
        for part in chunks:
            full.extend(full_stream.push_many(part))
        full.extend(full_stream.close())

        cut = len(chunks) // 2
        first = DigestStream(system_a.kb, config)
        events = []
        for part in chunks[:cut]:
            events.extend(first.push_many(part))
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)

        resumed = restore_stream(
            path, system_a.kb, config=config.with_stream_workers("processes")
        )
        assert resumed.stream_lane == "processes"
        tail = ordered_a[info.n_admitted :]
        for i in range(0, len(tail), chunk):
            events.extend(resumed.push_many(tail[i : i + chunk]))
        events.extend(resumed.close())
        resumed.shutdown_workers()
        assert _rendered(events) == _rendered(full)

    def test_snapshot_restore_roundtrip_without_file(
        self, system_a, ordered_a
    ):
        half = len(ordered_a) // 2
        first = DigestStream(system_a.kb, system_a.config)
        for message in ordered_a[:half]:
            first.push(message)
        state = pickle.loads(pickle.dumps(first.snapshot()))

        twin = DigestStream(system_a.kb, system_a.config)
        twin.restore(state)
        rest = ordered_a[half:]
        assert _rendered(_run(twin, list(rest))) == _rendered(
            _run(first, list(rest))
        )


class TestParentFormatCheckpoint:
    """Checkpoints written before ``core/shards.py`` existed must keep
    restoring: their pickles name ``repro.core.stream.StepItem`` and
    carry a ``DigestConfig`` with since-retired fields — the routing
    toggle ``shard_by_router``, the shed/swap policies and the periodic
    checkpoint pair, set to values no longer expressible — and the old
    ``"threads"`` lane default."""

    @pytest.mark.parametrize("lane", [None, "serial", "threads", "processes"])
    def test_restores_and_continues_byte_identically(
        self, system_a, ordered_a, tmp_path, monkeypatch, lane
    ):
        assert SNAPSHOT_VERSION == 6
        config = system_a.config.with_workers(2)
        chunk = 250
        chunks = [
            ordered_a[i : i + chunk]
            for i in range(0, len(ordered_a), chunk)
        ]
        full_stream = DigestStream(system_a.kb, config)
        full = []
        for part in chunks:
            full.extend(full_stream.push_many(part))
        full.extend(full_stream.close())

        cut = len(chunks) // 2
        first = DigestStream(
            system_a.kb, config.with_stream_workers("threads")
        )
        events = []
        for part in chunks[:cut]:
            events.extend(first.push_many(part))
        # Hand-build the parent commit's bytes from a live snapshot:
        # StepItem pickled under its old module path, and the retired
        # fields back in the config's pickled state.
        retired = {
            "shard_by_router": True,
            "shed_policy": "largest",
            "swap_policy": "drain",
            "checkpoint_path": str(tmp_path / "periodic.ckpt"),
            "checkpoint_interval": 1800.0,
        }
        for name, value in retired.items():
            object.__setattr__(first._config, name, value)
        monkeypatch.setattr(StepItem, "__module__", "repro.core.stream")
        path = tmp_path / "parent-format.ckpt"
        info = write_checkpoint(path, first)
        monkeypatch.undo()
        blob = path.read_bytes()
        assert b"repro.core.stream" in blob and b"StepItem" in blob
        assert b"repro.core.shards" not in blob
        assert all(name.encode() in blob for name in retired)

        restored_config = read_checkpoint(path)["config"]
        assert not set(retired) & set(vars(restored_config))
        assert restored_config.stream_workers == "threads"

        # No lane: the checkpoint's own config (and its threads lane).
        resume_config = (
            None if lane is None else restored_config.with_stream_workers(lane)
        )
        resumed = restore_stream(path, system_a.kb, config=resume_config)
        try:
            assert resumed.stream_lane == (lane or "threads")
            tail = ordered_a[info.n_admitted :]
            for i in range(0, len(tail), chunk):
                events.extend(resumed.push_many(tail[i : i + chunk]))
            events.extend(resumed.close())
        finally:
            resumed.shutdown_workers()
        assert stream_fingerprint(events) == stream_fingerprint(full)
        assert not (tmp_path / "periodic.ckpt").exists()

    def test_registry_mirror_watermarks_are_ignored(
        self, system_a, ordered_a, tmp_path, monkeypatch
    ):
        """v6 checkpoints written while the stream mirrored its counters
        into the metrics registry carry the mirror's ``emitted``
        watermarks; restore ignores them and finishes unchanged."""
        full = _run(DigestStream(system_a.kb, system_a.config), ordered_a)
        half = len(ordered_a) // 2
        first = DigestStream(system_a.kb, system_a.config)
        events = []
        for message in ordered_a[:half]:
            events.extend(first.push(message))
        state = first.snapshot()
        assert "emitted" not in state
        state["emitted"] = {
            "syslogdigest_stream_finalized_events_total": float(
                first.health()["finalized_events"]
            )
        }
        monkeypatch.setattr(first, "snapshot", lambda: state)
        path = tmp_path / "emitted.ckpt"
        info = write_checkpoint(path, first)
        assert read_checkpoint(path)["emitted"] == state["emitted"]

        resumed = restore_stream(path, system_a.kb)
        for message in ordered_a[info.n_admitted :]:
            events.extend(resumed.push(message))
        events.extend(resumed.close())
        assert stream_fingerprint(events) == stream_fingerprint(full)

    @pytest.mark.parametrize("lane", ["serial", "threads", "processes"])
    def test_flat_windows_with_crowded_buckets_restore(
        self, burst_mix, tmp_path, monkeypatch, lane
    ):
        """Before windows were bucketed, every admitted message sat in
        one flat queue per template and nothing ever collapsed — cut in
        the middle of a burst, such a checkpoint holds dozens of
        entries that share a bucket today.  Restore re-buckets them as
        buckets that have not matched yet, and the run continues
        byte-identically."""
        digest, messages = burst_mix
        config = digest.config.with_workers(2)
        chunk = 500
        full_stream = DigestStream(digest.kb, config)
        full = []
        for i in range(0, len(messages), chunk):
            full.extend(full_stream.push_many(messages[i : i + chunk]))
        full.extend(full_stream.close())

        cut = 2_000
        first = DigestStream(digest.kb, config)
        events = []
        for i in range(0, cut, chunk):
            events.extend(first.push_many(messages[i : i + chunk]))
        state = first.snapshot()
        # The old windows at this instant: every open message still
        # inside the window, in arrival order, none left out.
        now = state["last_ts"]
        for shard in state["shards"]:
            shard["rule_window"] = {}
        state["cross_window"] = {}
        for plus in state["open"].values():
            age = now - plus.timestamp
            if age <= config.window:
                shard = state["shards"][first._shard_index(plus.router)]
                shard["rule_window"].setdefault(plus.router, {}).setdefault(
                    plus.template_key, []
                ).append((plus.timestamp, _step_item(plus)))
            if age <= config.cross_router_window:
                state["cross_window"].setdefault(
                    plus.template_key, []
                ).append((plus.timestamp, plus, plus.local_locations()))
        crowded = max(
            Counter(item.primary_location for _ts, item in entries)
            .most_common(1)[0][1]
            for shard in state["shards"]
            for flat in shard["rule_window"].values()
            for entries in flat.values()
        )
        assert crowded > 50  # entries of one template at one location
        assert any(len(q) > 1 for q in state["cross_window"].values())
        monkeypatch.setattr(first, "snapshot", lambda: state)
        path = tmp_path / "flat-windows.ckpt"
        info = write_checkpoint(path, first)
        assert info.n_admitted == cut

        resumed = restore_stream(
            path, digest.kb, config=config.with_stream_workers(lane)
        )
        try:
            assert resumed.stream_lane == lane
            for i in range(cut, len(messages), chunk):
                events.extend(resumed.push_many(messages[i : i + chunk]))
            events.extend(resumed.close())
        finally:
            resumed.shutdown_workers()
        assert stream_fingerprint(events) == stream_fingerprint(full)


class TestRestoreAfterMaintenance:
    def test_eviction_and_pruning_survive_restore(
        self, system_a, ordered_a
    ):
        """Restore after sweeps must not resurrect evicted/pruned state.

        The snapshot decomposes splitters into scalars and rebuilds
        fresh instances, so an evicted splitter stays gone and a
        restored one carries exactly the EWMA the original had — no
        stale rhythm state can leak back in.
        """
        cut = (len(ordered_a) * 3) // 4
        first = DigestStream(system_a.kb, system_a.config)
        for message in ordered_a[:cut]:
            first.push(message)
        health = first.health()
        assert health["evicted_splitters"] > 0  # sweeps actually ran
        assert health["pruned_entries"] > 0

        twin = DigestStream(system_a.kb, system_a.config)
        twin.restore(first.snapshot())
        assert twin.n_splitters == first.n_splitters
        assert twin.n_window_entries == first.n_window_entries
        for ours, theirs in zip(twin._exec._states, first._exec._states):
            assert set(ours._splitters) == set(theirs._splitters)
            for key, splitter in ours._splitters.items():
                original = theirs._splitters[key]
                assert splitter._last_ts == original._last_ts
                assert splitter._group == original._group
                assert (
                    splitter._ewma.prediction == original._ewma.prediction
                )
                assert splitter._ewma.count == original._ewma.count
        rest = ordered_a[cut:]
        assert _rendered(_run(twin, list(rest))) == _rendered(
            _run(first, list(rest))
        )


class TestValidation:
    def test_restore_requires_fresh_stream(self, system_a, ordered_a):
        first = DigestStream(system_a.kb, system_a.config)
        first.push(ordered_a[0])
        state = first.snapshot()
        dirty = DigestStream(system_a.kb, system_a.config)
        dirty.push(ordered_a[0])
        with pytest.raises(ValueError, match="freshly constructed"):
            dirty.restore(state)

    def test_restore_rejects_config_mismatch(self, system_a, ordered_a):
        first = DigestStream(system_a.kb, system_a.config)
        first.push(ordered_a[0])
        state = first.snapshot()
        other = DigestStream(
            system_a.kb, system_a.config.with_window(9999.0)
        )
        with pytest.raises(ValueError, match="config"):
            other.restore(state)

    def test_restore_rejects_version_mismatch(self, system_a, ordered_a):
        first = DigestStream(system_a.kb, system_a.config)
        first.push(ordered_a[0])
        state = first.snapshot()
        state["version"] = SNAPSHOT_VERSION + 1
        fresh = DigestStream(system_a.kb, system_a.config)
        with pytest.raises(ValueError, match="version"):
            fresh.restore(state)

    def test_read_rejects_foreign_files(self, tmp_path):
        bogus = tmp_path / "not-a-checkpoint"
        bogus.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(ValueError, match="not a syslogdigest"):
            read_checkpoint(bogus)

    def test_read_rejects_future_format(self, tmp_path):
        bogus = tmp_path / "future.ckpt"
        bogus.write_bytes(
            pickle.dumps(
                {
                    "magic": "syslogdigest-checkpoint",
                    "format": CHECKPOINT_FORMAT + 1,
                    "snapshot": {},
                }
            )
        )
        with pytest.raises(ValueError, match="format"):
            read_checkpoint(bogus)

    def test_restore_stream_asserts_explicit_config(
        self, system_a, ordered_a, tmp_path
    ):
        first = DigestStream(system_a.kb, system_a.config)
        first.push(ordered_a[0])
        path = tmp_path / "digest.ckpt"
        write_checkpoint(path, first)
        with pytest.raises(ValueError, match="config"):
            restore_stream(
                path, system_a.kb, system_a.config.with_window(9999.0)
            )


class TestAtomicity:
    def test_no_tmp_file_left_behind(self, system_a, ordered_a, tmp_path):
        first = DigestStream(system_a.kb, system_a.config)
        for message in ordered_a[:50]:
            first.push(message)
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))
        again = checkpoint_info(path)
        assert again.n_admitted == info.n_admitted == 50
        assert again.snapshot_version == SNAPSHOT_VERSION

    def test_crashed_rewrite_preserves_previous(
        self, system_a, ordered_a, tmp_path, monkeypatch
    ):
        import os as real_os

        import repro.utils.fsio as fsio

        first = DigestStream(system_a.kb, system_a.config)
        for message in ordered_a[:50]:
            first.push(message)
        path = tmp_path / "digest.ckpt"
        write_checkpoint(path, first)
        good = path.read_bytes()

        for message in ordered_a[50:100]:
            first.push(message)

        def explode(_fd):
            raise OSError("disk died mid-checkpoint")

        # Durable writes all flow through fsio; failing its fsync is
        # the narrowest way to crash the file write itself.
        monkeypatch.setattr(
            fsio,
            "os",
            SimpleNamespace(
                fsync=explode,
                replace=real_os.replace,
                open=real_os.open,
                close=real_os.close,
                O_RDONLY=real_os.O_RDONLY,
            ),
        )
        with pytest.raises(OSError):
            write_checkpoint(path, first)
        # The half-written temp never replaced the real checkpoint.
        assert path.read_bytes() == good
        assert checkpoint_info(path).n_admitted == 50


class TestPreviousGeneration:
    """Every rewrite demotes the old checkpoint to ``.prev``; restore
    falls back to it when the newest file is corrupt (DESIGN.md §14)."""

    def _two_generations(self, system_a, ordered_a, tmp_path):
        stream = DigestStream(system_a.kb, system_a.config)
        for message in ordered_a[:50]:
            stream.push(message)
        path = tmp_path / "digest.ckpt"
        write_checkpoint(path, stream)
        for message in ordered_a[50:100]:
            stream.push(message)
        write_checkpoint(path, stream)
        return path

    def test_rewrite_demotes_old_file_to_prev(
        self, system_a, ordered_a, tmp_path
    ):
        path = self._two_generations(system_a, ordered_a, tmp_path)
        prev = previous_checkpoint_path(path)
        assert prev.exists()
        assert checkpoint_info(path).n_admitted == 100
        assert checkpoint_info(prev).n_admitted == 50

    def test_load_prefers_the_newest_when_healthy(
        self, system_a, ordered_a, tmp_path
    ):
        path = self._two_generations(system_a, ordered_a, tmp_path)
        snapshot, used, error = load_resume_state(path)
        assert used == path
        assert error is None
        assert snapshot["n_admitted"] == 100

    def test_corrupt_newest_falls_back_to_prev(
        self, system_a, ordered_a, tmp_path
    ):
        path = self._two_generations(system_a, ordered_a, tmp_path)
        path.write_bytes(b"\x00garbage: torn mid-write")
        snapshot, used, error = load_resume_state(path)
        assert used == previous_checkpoint_path(path)
        assert error is not None  # surfaced so the caller can journal it
        assert snapshot["n_admitted"] == 50
        # The fallback snapshot restores like any other.
        resumed = DigestStream(system_a.kb, system_a.config)
        resumed.restore(snapshot)
        assert resumed.n_admitted == 50

    def test_both_generations_corrupt_raises_the_primary(
        self, system_a, ordered_a, tmp_path
    ):
        path = self._two_generations(system_a, ordered_a, tmp_path)
        path.write_bytes(b"\x00garbage")
        previous_checkpoint_path(path).write_bytes(b"\x00worse")
        with pytest.raises(Exception):
            load_resume_state(path)

    def test_missing_both_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_resume_state(tmp_path / "never-written.ckpt")

    def test_prev_alone_restores_after_newest_vanishes(
        self, system_a, ordered_a, tmp_path
    ):
        path = self._two_generations(system_a, ordered_a, tmp_path)
        path.unlink()
        snapshot, used, error = load_resume_state(path)
        assert used == previous_checkpoint_path(path)
        assert snapshot["n_admitted"] == 50
        # A vanished newest file is not corruption: nothing to journal.
        assert error is None


class TestAutomaticCheckpoints:
    """Periodic checkpoints are the CLI's cadence (``stats --stream
    --checkpoint``): the stream itself never writes one."""

    def test_stream_checkpoints_periodically(
        self, system_a, ordered_a, tmp_path
    ):
        path = tmp_path / "auto.ckpt"
        chunk, interval = 50, 1800.0
        registry = MetricsRegistry()
        with scoped_registry(registry):
            stream = DigestStream(system_a.kb, system_a.config)
            full, interrupted = _push_interruptible(
                stream, ordered_a, str(path), interval, chunk=chunk
            )
        full.extend(stream.close())
        assert not interrupted
        # One cut after the first chunk, then one after each chunk that
        # ends `interval` stream-clock seconds past the previous cut.
        cuts = []
        for end in range(chunk, len(ordered_a) + chunk, chunk):
            clock = ordered_a[min(end, len(ordered_a)) - 1].timestamp
            if not cuts or clock - cuts[-1] >= interval:
                cuts.append(clock)
        assert 2 <= len(cuts) < len(ordered_a) / chunk
        assert registry.counter_value(CHECKPOINT_WRITES) == len(cuts)
        info = checkpoint_info(path)
        older = checkpoint_info(previous_checkpoint_path(path))
        assert (older.stream_clock, info.stream_clock) == tuple(cuts[-2:])
        assert stream.checkpoint_age >= 0.0

        # The periodic checkpoint resumes like a manual one.  The prefix
        # replay has a path but no interval: it checkpoints on signal
        # only, as `resume` does.
        signal_only = tmp_path / "signal-only.ckpt"
        events, _ = _push_interruptible(
            DigestStream(system_a.kb, system_a.config),
            ordered_a[: info.n_admitted],
            str(signal_only),
            chunk=chunk,
        )
        assert not signal_only.exists()
        resumed = restore_stream(path, system_a.kb)
        tail = ordered_a[info.n_admitted :]
        for i in range(0, len(tail), chunk):
            events.extend(resumed.push_many(tail[i : i + chunk]))
        events.extend(resumed.close())
        assert stream_fingerprint(events) == stream_fingerprint(full)


class TestCheckpointAgeClock:
    """checkpoint_age runs on the injected monotonic clock, not message time."""

    def _stream(self, system_a, clock):
        return DigestStream(system_a.kb, system_a.config, clock=clock)

    def test_age_is_minus_one_before_any_checkpoint(self, system_a):
        stream = self._stream(system_a, clock=lambda: 50.0)
        assert stream.checkpoint_age == -1.0
        assert stream.health()["checkpoint_age_seconds"] == -1.0

    def test_age_follows_the_injected_clock(
        self, system_a, ordered_a, tmp_path
    ):
        now = [100.0]
        stream = self._stream(system_a, clock=lambda: now[0])
        for message in ordered_a[:20]:
            stream.push(message)
        write_checkpoint(tmp_path / "age.ckpt", stream)
        assert stream.checkpoint_age == 0.0
        now[0] += 12.5
        assert stream.checkpoint_age == 12.5
        # Message timestamps advancing (or jumping back) never move the
        # age: only the monotonic clock does.
        for message in ordered_a[20:40]:
            stream.push(message)
        assert stream.checkpoint_age == 12.5

    def test_age_restarts_at_zero_on_restore(
        self, system_a, ordered_a, tmp_path
    ):
        writer_now = [1000.0]
        writer = self._stream(system_a, clock=lambda: writer_now[0])
        for message in ordered_a[:20]:
            writer.push(message)
        path = tmp_path / "restore-age.ckpt"
        write_checkpoint(path, writer)
        writer_now[0] += 500.0
        # The restoring process has a completely unrelated clock; the
        # writer's age must not leak through the checkpoint.
        restorer_now = [3.0]
        restored = restore_stream(path, system_a.kb)
        restored._clock = lambda: restorer_now[0]
        restored.note_checkpoint()
        assert restored.checkpoint_age == 0.0
        restorer_now[0] += 2.0
        assert restored.checkpoint_age == 2.0

    def test_non_monotonic_fake_clock_clamps_at_zero(
        self, system_a, ordered_a, tmp_path
    ):
        now = [100.0]
        stream = self._stream(system_a, clock=lambda: now[0])
        for message in ordered_a[:5]:
            stream.push(message)
        write_checkpoint(tmp_path / "clamp.ckpt", stream)
        now[0] -= 50.0
        assert stream.checkpoint_age == 0.0
