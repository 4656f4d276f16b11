"""Byte-identity gate: compiled hot path ≡ reference path.

This is the gate ``make check`` runs: digest the same stream under the
compiled per-message path (indexed matching, memoized augmentation,
cached dictionary queries, dense union-find) and under
:func:`repro.hotpath.reference_mode`, serial and with ``n_workers=4``,
and require the full digest fingerprints to be byte-identical.  Any
optimization that changes behavior — a different tie-break winner, a
stale cache, a worker-order dependency — fails here before it can ship.
"""

from __future__ import annotations

import pytest

from repro.core.config import DigestConfig
from repro.core.grouping import build_rule_partners, rule_edges
from repro.core.pipeline import SyslogDigest
from repro.core.stream import DigestStream
from repro.core.syslogplus import Augmenter
from repro.hotpath import (
    digest_fingerprint,
    reference_enabled,
    reference_mode,
    stream_fingerprint,
)
from repro.netsim.scale import ScaleGenerator, ScaleSpec
from repro.syslog.stream import sort_messages


class TestReferenceMode:
    def test_flag_flips_and_restores(self):
        assert not reference_enabled()
        with reference_mode():
            assert reference_enabled()
            with reference_mode():
                assert reference_enabled()
            assert reference_enabled()
        assert not reference_enabled()

    def test_flag_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with reference_mode():
                raise RuntimeError("boom")
        assert not reference_enabled()


@pytest.fixture(scope="module")
def scale_setup():
    """A learned digest plus a live slice from the scale generator."""
    gen = ScaleGenerator(ScaleSpec(n_routers=150))
    digest = SyslogDigest.learn(
        gen.learning_messages(8_000),
        gen.configs(),
        DigestConfig(window=120.0),
        fit_temporal=False,
    )
    return digest, list(gen.stream(6_000))


class TestScaleIdentity:
    def test_compiled_equals_reference_serial(self, scale_setup):
        digest, messages = scale_setup
        compiled = digest_fingerprint(digest.digest(messages))
        with reference_mode():
            reference_digest = SyslogDigest(digest.kb, digest.config)
            reference = digest_fingerprint(
                reference_digest.digest(messages)
            )
        assert compiled == reference

    def test_serial_equals_workers(self, scale_setup):
        digest, messages = scale_setup
        serial = digest_fingerprint(digest.digest(messages))
        parallel_digest = SyslogDigest(
            digest.kb, DigestConfig(window=120.0, n_workers=4)
        )
        workers = digest_fingerprint(parallel_digest.digest(messages))
        assert serial == workers

    def test_fingerprint_detects_differences(self, scale_setup):
        """The fingerprint is not vacuous: different inputs differ."""
        digest, messages = scale_setup
        full = digest_fingerprint(digest.digest(messages))
        half = digest_fingerprint(digest.digest(messages[: len(messages) // 2]))
        assert full != half


def _stream_lane_fingerprint(kb, config, messages, lane, chunk=500):
    """Fingerprint one full streaming run under the given executor lane."""
    stream = DigestStream(kb, config.with_stream_workers(lane))
    try:
        actual_lane = stream.stream_lane
        events = []
        for i in range(0, len(messages), chunk):
            events.extend(stream.push_many(messages[i : i + chunk]))
        events.extend(stream.close())
    finally:
        stream.shutdown_workers()
    return stream_fingerprint(events), actual_lane


class TestStreamLaneIdentity:
    """The executor-lane gate: serial ≡ threads ≡ processes.

    ``DigestStream.push_many`` must emit byte-identical events whichever
    lane runs the shard steps — same grouping, same scores, same order.
    The process-lane run also asserts it actually ran on worker
    processes (no silent degradation to threads), so the gate cannot
    pass vacuously.
    """

    def test_three_lanes_byte_identical_on_scale_mix(self, scale_setup):
        digest, messages = scale_setup
        ordered = sort_messages(messages)
        config = digest.config.with_workers(4)
        serial, _ = _stream_lane_fingerprint(
            digest.kb, config, ordered, "serial"
        )
        threads, _ = _stream_lane_fingerprint(
            digest.kb, config, ordered, "threads"
        )
        procs, lane = _stream_lane_fingerprint(
            digest.kb, config, ordered, "processes"
        )
        assert lane == "processes"
        assert serial == threads == procs

    def test_three_lanes_byte_identical_on_dataset(self, system_a, live_a):
        ordered = sort_messages(m.message for m in live_a.messages)
        config = system_a.config.with_workers(4)
        serial, _ = _stream_lane_fingerprint(
            system_a.kb, config, ordered, "serial"
        )
        threads, _ = _stream_lane_fingerprint(
            system_a.kb, config, ordered, "threads"
        )
        procs, lane = _stream_lane_fingerprint(
            system_a.kb, config, ordered, "processes"
        )
        assert lane == "processes"
        assert serial == threads == procs

    def test_stream_fingerprint_detects_differences(self, scale_setup):
        digest, messages = scale_setup
        ordered = sort_messages(messages)
        config = digest.config.with_workers(4)
        full, _ = _stream_lane_fingerprint(
            digest.kb, config, ordered, "serial"
        )
        half, _ = _stream_lane_fingerprint(
            digest.kb, config, ordered[: len(ordered) // 2], "serial"
        )
        assert full != half


class TestBurstIdentity:
    """The same gates over the shape that makes window buckets fill and
    collapse (``burst_mix``): every engine, worker count and lane, and a
    restart from a checkpoint cut in the middle of a burst."""

    def test_the_mix_fills_rule_windows(self, burst_mix):
        digest, messages = burst_mix
        kb = digest.kb
        stream = Augmenter(kb.templates, kb.dictionary).augment_all(messages)
        edges, active = rule_edges(
            stream,
            build_rule_partners(kb.rule_pairs()),
            digest.config.window,
            kb.dictionary,
        )
        assert active and len(edges) > len(messages)

    def test_batch_reference_and_workers(self, burst_mix):
        digest, messages = burst_mix
        compiled = digest_fingerprint(digest.digest(messages))
        with reference_mode():
            reference = digest_fingerprint(
                SyslogDigest(digest.kb, digest.config).digest(messages)
            )
        workers = digest_fingerprint(
            SyslogDigest(digest.kb, digest.config.with_workers(4)).digest(
                messages
            )
        )
        assert compiled == reference == workers

    def test_batch_equals_stream_on_every_lane(self, burst_mix):
        digest, messages = burst_mix
        by_start = lambda e: (e.start_ts, e.indices)
        batch = stream_fingerprint(
            sorted(digest.digest(messages).events, key=by_start)
        )
        one_shard = DigestStream(digest.kb, digest.config)
        events = [e for m in messages for e in one_shard.push(m)]
        events += one_shard.close()
        assert stream_fingerprint(sorted(events, key=by_start)) == batch
        config = digest.config.with_workers(4)
        lanes = {}
        for lane in ("serial", "threads", "processes"):
            lanes[lane], actual = _stream_lane_fingerprint(
                digest.kb, config, messages, lane
            )
            assert actual == lane
        assert lanes["serial"] == lanes["threads"] == lanes["processes"]
        # push_many sweeps once per chunk, so its events come out in
        # another order than push's; the events themselves are the same.
        stream = DigestStream(digest.kb, config)
        chunked = stream.push_many(messages) + stream.close()
        assert stream_fingerprint(sorted(chunked, key=by_start)) == batch

    @pytest.mark.parametrize("lane", ["serial", "threads", "processes"])
    def test_checkpoint_cut_mid_burst(self, burst_mix, lane):
        digest, messages = burst_mix
        config = digest.config.with_workers(4)
        full, _ = _stream_lane_fingerprint(
            digest.kb, config, messages, "serial"
        )
        cut = 2_000  # every message so far is younger than W
        first = DigestStream(digest.kb, config)
        events = []
        for i in range(0, cut, 500):
            events.extend(first.push_many(messages[i : i + 500]))
        state = first.snapshot()
        filed = sum(
            len(entries)
            for shard in state["shards"]
            for flat in shard["rule_window"].values()
            for entries in flat.values()
        )
        assert 0 < filed < cut // 2  # buckets in the snapshot collapsed
        resumed = DigestStream(
            digest.kb, config.with_stream_workers(lane)
        )
        try:
            resumed.restore(state)
            for i in range(cut, len(messages), 500):
                events.extend(resumed.push_many(messages[i : i + 500]))
            events.extend(resumed.close())
        finally:
            resumed.shutdown_workers()
        assert stream_fingerprint(events) == full


class TestDatasetIdentity:
    def test_dataset_a_compiled_equals_reference(self, system_a, live_a):
        """The same gate over the evaluation dataset's message mix."""
        messages = [m.message for m in live_a.messages[:4000]]
        compiled = digest_fingerprint(system_a.digest(messages))
        with reference_mode():
            reference_digest = SyslogDigest(system_a.kb, system_a.config)
            reference = digest_fingerprint(
                reference_digest.digest(messages)
            )
        assert compiled == reference
