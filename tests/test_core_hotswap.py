"""Epoch-boundary knowledge hot-swap on the streaming digest.

Contract (DESIGN.md §9): a promoted base adopts only at an epoch
boundary — an instant with no open groups — so no event ever mixes
messages augmented under different knowledge versions.  The checkpoint
interaction is pinned here too: a snapshot records the *served* version,
never a pending one, and a store-backed resume reloads exactly that
version — kill-and-resume across a promotion boundary stays
byte-identical, serial and sharded.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.checkpoint import (
    checkpoint_info,
    restore_stream,
    write_checkpoint,
)
from repro.core.modelstore import KnowledgeStore
from repro.core.present import present_event
from repro.core.refresh import refresh_candidate
from repro.core.stream import DigestStream
from repro.netsim.canary import drift_messages
from repro.syslog.stream import sort_messages
from repro.utils.timeutils import DAY, HOUR

pytestmark = pytest.mark.lifecycle


@pytest.fixture(scope="module")
def ordered_a(live_a):
    return sort_messages(m.message for m in live_a.messages)


@pytest.fixture(scope="module")
def gapped_a(ordered_a):
    """The live window with a 6 h quiet gap a third of the way in.

    Dense traffic keeps groups open indefinitely, so a deferred swap
    only adopts at close(); the gap guarantees a mid-stream epoch
    boundary (every open group sails past its idle horizon).
    """
    # Aligned to the 250-message chunks the sharded resume tests push —
    # a convenience, not a requirement: push_many adopts at an
    # intra-batch boundary too (TestMidBatchSwapBoundary pins the
    # deliberately misaligned case).
    cut = max(250, (len(ordered_a) // 3) // 250 * 250)
    head = list(ordered_a[:cut])
    tail = [
        replace(m, timestamp=m.timestamp + 6 * HOUR)
        for m in ordered_a[cut:]
    ]
    return head + tail


@pytest.fixture(scope="module")
def kb2(system_a, data_a, ordered_a):
    """A genuinely refreshed base (new drift template, same temporal)."""
    routers = sorted(data_a.network.routers)[:4]
    drift = drift_messages(routers, 10 * DAY + 600.0, n_messages=120)
    candidate, _report = refresh_candidate(
        system_a.kb, sort_messages(list(ordered_a) + drift)
    )
    assert candidate.fingerprint() != system_a.kb.fingerprint()
    return candidate


def _rendered(events):
    return [present_event(e) for e in events]


def _run(stream, messages):
    events = []
    for message in messages:
        events.extend(stream.push(message))
    events.extend(stream.close())
    return events


class TestSwapSemantics:
    def test_swap_before_first_push_adopts_immediately(
        self, system_a, kb2
    ):
        stream = DigestStream(system_a.kb, system_a.config, kb_version=1)
        assert stream.kb_version == 1
        assert stream.request_swap(kb2, version=2) == []
        assert not stream.swap_pending
        assert stream.kb_version == 2
        assert stream.n_swaps == 1

    def test_deferred_swap_waits_for_boundary(
        self, system_a, kb2, ordered_a
    ):
        stream = DigestStream(system_a.kb, system_a.config, kb_version=1)
        half = len(ordered_a) // 2
        events = []
        for message in ordered_a[:half]:
            events.extend(stream.push(message))
        stream.request_swap(kb2, version=2)
        # Mid-burst there are open groups: the stream keeps serving v1.
        assert stream.swap_pending
        assert stream.kb_version == 1
        for message in ordered_a[half:]:
            events.extend(stream.push(message))
        events.extend(stream.close())
        # close() finalizes everything, so the boundary always arrives.
        assert not stream.swap_pending
        assert stream.kb_version == 2
        assert stream.n_swaps == 1
        assert events

    def test_identical_knowledge_swap_is_a_noop(
        self, system_a, ordered_a
    ):
        baseline = _run(
            DigestStream(system_a.kb, system_a.config), list(ordered_a)
        )
        stream = DigestStream(system_a.kb, system_a.config, kb_version=1)
        half = len(ordered_a) // 2
        events = []
        for message in ordered_a[:half]:
            events.extend(stream.push(message))
        stream.request_swap(system_a.kb.clone(), version=1)
        for message in ordered_a[half:]:
            events.extend(stream.push(message))
        events.extend(stream.close())
        # The boundary search may finalize an idle group a push earlier
        # than the plain run's sweep would have, shifting emission order
        # but never content: same events, byte for byte.
        assert sorted(_rendered(events)) == sorted(_rendered(baseline))

    def test_second_request_replaces_pending(
        self, system_a, kb2, ordered_a
    ):
        stream = DigestStream(system_a.kb, system_a.config, kb_version=1)
        half = len(ordered_a) // 2
        for message in ordered_a[:half]:
            stream.push(message)
        stream.request_swap(system_a.kb.clone(), version=7)
        stream.request_swap(kb2, version=2)
        stream.close()
        assert stream.kb_version == 2
        assert stream.n_swaps == 1

    def test_health_and_metrics_track_swap_state(
        self, system_a, kb2, ordered_a
    ):
        stream = DigestStream(system_a.kb, system_a.config, kb_version=1)
        assert stream.health()["kb_swaps"] == 0
        assert stream.health()["kb_swap_pending"] == 0.0
        half = len(ordered_a) // 2
        for message in ordered_a[:half]:
            stream.push(message)
        stream.request_swap(kb2, version=2)
        if stream.swap_pending:
            assert stream.health()["kb_swap_pending"] == 1.0
        stream.close()
        health = stream.health()
        assert health["kb_swaps"] == 1
        assert health["kb_swap_pending"] == 0.0


class TestCheckpointInteraction:
    def test_snapshot_carries_served_not_pending_version(
        self, system_a, kb2, ordered_a
    ):
        stream = DigestStream(system_a.kb, system_a.config, kb_version=1)
        half = len(ordered_a) // 2
        for message in ordered_a[:half]:
            stream.push(message)
        stream.request_swap(kb2, version=2)
        assert stream.swap_pending  # killed while a swap is pending...
        state = stream.snapshot()
        assert state["kb_version"] == 1

        twin = DigestStream(system_a.kb, system_a.config)
        twin.restore(state)
        # ...the restored stream serves the checkpointed version and has
        # no pending swap: re-requesting it is the operator's move.
        assert twin.kb_version == 1
        assert not twin.swap_pending
        assert twin.n_swaps == 0

    def test_store_backed_resume_after_promotion_serial(
        self, system_a, kb2, gapped_a, tmp_path
    ):
        """Kill-and-resume across a promotion boundary, byte-identical.

        The swap is requested before the quiet gap, adopts at the gap's
        boundary, and the kill lands after it — the checkpoint records
        the promoted version and the store-backed resume reloads it.
        """
        store = KnowledgeStore(tmp_path / "kbstore")
        store.commit(system_a.kb, note="v1", activate=True)
        store.commit(kb2, note="v2", activate=True)

        swap_at = len(gapped_a) // 6  # before the gap
        half = len(gapped_a) // 2  # after the gap

        def run_with_swap(stream, messages, start):
            events = []
            for i, message in enumerate(messages, start=start):
                if i == swap_at:
                    events.extend(stream.request_swap(kb2, version=2))
                events.extend(stream.push(message))
            return events

        full_stream = DigestStream(
            system_a.kb, system_a.config, kb_version=1
        )
        full = run_with_swap(full_stream, gapped_a, 0)
        full.extend(full_stream.close())
        assert full_stream.kb_version == 2

        first = DigestStream(system_a.kb, system_a.config, kb_version=1)
        events = run_with_swap(first, gapped_a[:half], 0)
        # The gap's epoch boundary has adopted the promoted base.
        assert first.kb_version == 2
        assert first.n_swaps == 1
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)
        assert info.kb_version == 2
        # The process dies here; the restore consults only the store.

        resumed = restore_stream(path, store=store)
        assert resumed.kb_version == 2
        assert resumed.n_swaps == 1
        for message in gapped_a[info.n_admitted :]:
            events.extend(resumed.push(message))
        events.extend(resumed.close())
        assert _rendered(events) == _rendered(full)

    def test_store_backed_resume_after_promotion_workers(
        self, system_a, kb2, gapped_a, tmp_path
    ):
        """The same promotion-boundary resume under ``--workers 4``."""
        store = KnowledgeStore(tmp_path / "kbstore")
        store.commit(system_a.kb, note="v1", activate=True)
        store.commit(kb2, note="v2", activate=True)

        config = system_a.config.with_workers(4)
        chunk = 250
        chunks = [
            gapped_a[i : i + chunk]
            for i in range(0, len(gapped_a), chunk)
        ]
        swap_chunk = len(chunks) // 6  # before the gap at one third

        def run_chunks(stream, parts, start):
            events = []
            for i, part in enumerate(parts, start=start):
                if i == swap_chunk:
                    events.extend(stream.request_swap(kb2, version=2))
                events.extend(stream.push_many(part))
            return events

        full_stream = DigestStream(system_a.kb, config, kb_version=1)
        full = run_chunks(full_stream, chunks, 0)
        full.extend(full_stream.close())
        assert full_stream.kb_version == 2

        cut = len(chunks) // 2
        first = DigestStream(system_a.kb, config, kb_version=1)
        events = run_chunks(first, chunks[:cut], 0)
        assert first.kb_version == 2
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)

        resumed = restore_stream(path, store=store)
        assert resumed.kb_version == 2
        tail = gapped_a[info.n_admitted :]
        for i in range(0, len(tail), chunk):
            events.extend(resumed.push_many(tail[i : i + chunk]))
        events.extend(resumed.close())
        assert _rendered(events) == _rendered(full)

    def test_resume_before_promotion_serves_old_version(
        self, system_a, kb2, ordered_a, tmp_path
    ):
        """A store-backed restore loads the snapshot's version, not the
        store's newest active one."""
        store = KnowledgeStore(tmp_path / "kbstore")
        store.commit(system_a.kb, note="v1", activate=True)

        quarter = len(ordered_a) // 4
        first = DigestStream(system_a.kb, system_a.config, kb_version=1)
        events = []
        for message in ordered_a[:quarter]:
            events.extend(first.push(message))
        path = tmp_path / "digest.ckpt"
        info = write_checkpoint(path, first)
        assert info.kb_version == 1

        # Promotion lands *after* the checkpoint: v2 becomes active.
        store.commit(kb2, note="v2", activate=True)
        assert store.active_version() == 2

        resumed = restore_stream(path, store=store)
        assert resumed.kb_version == 1  # the checkpointed epoch's base
        full = _run(
            DigestStream(system_a.kb, system_a.config),
            list(ordered_a[: 2 * quarter]),
        )
        for message in ordered_a[info.n_admitted : 2 * quarter]:
            events.extend(resumed.push(message))
        events.extend(resumed.close())
        assert _rendered(events) == _rendered(full)

    def test_store_restore_requires_recorded_version(
        self, system_a, ordered_a, tmp_path
    ):
        store = KnowledgeStore(tmp_path / "kbstore")
        store.commit(system_a.kb, note="v1", activate=True)
        stream = DigestStream(system_a.kb, system_a.config)  # no version
        stream.push(ordered_a[0])
        path = tmp_path / "digest.ckpt"
        write_checkpoint(path, stream)
        assert checkpoint_info(path).kb_version is None
        with pytest.raises(ValueError, match="version"):
            restore_stream(path, store=store)

    def test_restore_requires_kb_or_store(
        self, system_a, ordered_a, tmp_path
    ):
        stream = DigestStream(system_a.kb, system_a.config, kb_version=1)
        stream.push(ordered_a[0])
        path = tmp_path / "digest.ckpt"
        write_checkpoint(path, stream)
        with pytest.raises(ValueError, match="kb|store"):
            restore_stream(path)


def _gap_index(messages):
    """Index of the first message past the fixture's 6 h quiet gap."""
    for i in range(1, len(messages)):
        if messages[i].timestamp - messages[i - 1].timestamp > 4 * HOUR:
            return i
    raise AssertionError("no quiet gap found in the gapped feed")


class TestMidBatchSwapBoundary:
    """A pending swap whose epoch boundary lands *inside* a batch.

    ``push_many`` must adopt promoted knowledge at the intra-batch
    boundary exactly as message-by-message ``push`` does: the batch that
    straddles the quiet gap adopts itself, not the next one, and the
    thread and process executor lanes agree byte-for-byte.  (The old
    code checked for a boundary only at each batch's first message, so
    a misaligned batch silently deferred adoption by one batch.)
    """

    CHUNK = 313  # deliberately misaligned with the gap's position

    def _run_batched(self, system, kb2, gapped, lane, gap_chunk):
        config = system.config.with_workers(4).with_stream_workers(lane)
        stream = DigestStream(system.kb, config, kb_version=1)
        try:
            events = []
            for i in range(0, len(gapped), self.CHUNK):
                chunk_no = i // self.CHUNK
                if chunk_no == 1:
                    events.extend(stream.request_swap(kb2, version=2))
                    assert stream.swap_pending  # open groups defer it
                events.extend(
                    stream.push_many(gapped[i : i + self.CHUNK])
                )
                if 1 <= chunk_no < gap_chunk:
                    assert stream.kb_version == 1
                elif chunk_no >= gap_chunk:
                    # The straddling batch itself adopted, mid-batch.
                    assert stream.kb_version == 2
                    assert not stream.swap_pending
            events.extend(stream.close())
            assert stream.n_swaps == 1
        finally:
            stream.shutdown_workers()
        return events

    def test_push_equals_push_many_equals_process_lane(
        self, system_a, kb2, gapped_a
    ):
        gap = _gap_index(gapped_a)
        gap_chunk, offset = divmod(gap, self.CHUNK)
        assert offset != 0  # the boundary is strictly inside a batch
        assert gap_chunk >= 2  # the pending window spans whole batches

        reference = DigestStream(
            system_a.kb, system_a.config.with_workers(4), kb_version=1
        )
        per_message = []
        for i, message in enumerate(gapped_a):
            if i == self.CHUNK:  # same request point as the batched runs
                per_message.extend(
                    reference.request_swap(kb2, version=2)
                )
            per_message.extend(reference.push(message))
        per_message.extend(reference.close())
        assert reference.kb_version == 2
        assert reference.n_swaps == 1

        threads = self._run_batched(
            system_a, kb2, gapped_a, "threads", gap_chunk
        )
        procs = self._run_batched(
            system_a, kb2, gapped_a, "processes", gap_chunk
        )
        # Lanes are interchangeable executors: identical, in order.
        assert _rendered(threads) == _rendered(procs)
        # Batch sweeps run at batch end rather than per message, which
        # can shift *when* an idle group is emitted but never its
        # content: same events, byte for byte.
        assert sorted(_rendered(per_message)) == sorted(_rendered(threads))
