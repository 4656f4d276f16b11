"""Byte-identity gate: the production path ≡ its naive forms.

This is the gate ``make check`` runs.  Whole digests: the same stream
through the production per-message path (indexed matching, memoized
augmentation, cached dictionary queries) and through
:func:`tests.oracle.reference_kb` — per-template probe, hierarchy and
connectivity recomputed from the raw tables on every call — serial and
with ``n_workers=4``, full digest fingerprints byte-identical.
Component by component (:class:`TestNaiveForms`): each optimisation
against its :mod:`tests.oracle` form over every distinct message body of
the scale mix and dataset A.  Any optimization that changes behavior — a
different tie-break winner, a stale cache, a worker-order dependency —
fails here before it can ship.
"""

from __future__ import annotations

import pytest

from repro.core.config import DigestConfig
from repro.core.grouping import build_rule_partners, rule_edges
from repro.core.pipeline import SyslogDigest
from repro.core.stream import DigestStream
from repro.core.syslogplus import Augmenter
from repro.hotpath import digest_fingerprint, stream_fingerprint
from repro.locations.dictionary import LocationDictionary
from repro.locations.extract import LocationExtractor
from repro.locations.model import Location, LocationKind
from repro.locations.spatial import spatially_matched
from repro.netsim.scale import ScaleGenerator, ScaleSpec
from repro.syslog.stream import sort_messages
from repro.templates.tokenize import tokenize
from tests import oracle


def _reference_fingerprint(digest, messages):
    """The same digest with every template / dictionary answer naive."""
    reference = SyslogDigest(oracle.reference_kb(digest.kb), digest.config)
    return digest_fingerprint(reference.digest(messages))


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
        assert compiled == _reference_fingerprint(digest, messages)

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


#: Messages of the burst mix the naive reference digests (of 5 000).
BURST_REFERENCE_CUT = 1_500


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
        workers = digest_fingerprint(
            SyslogDigest(digest.kb, digest.config.with_workers(4)).digest(
                messages
            )
        )
        assert compiled == workers
        # The naive dictionary answers every one of a burst's window
        # probes from scratch, so the reference runs on a cut: the first
        # burst up to where its buckets have filled and collapsed.
        cut = messages[:BURST_REFERENCE_CUT]
        assert digest_fingerprint(
            digest.digest(cut)
        ) == _reference_fingerprint(digest, cut)

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
        assert compiled == _reference_fingerprint(system_a, messages)


@pytest.fixture(scope="module", params=["scale_mix", "dataset_a"])
def corpus(request):
    """``(kb, messages)`` of one of the two evaluation mixes."""
    if request.param == "scale_mix":
        digest, messages = request.getfixturevalue("scale_setup")
        return digest.kb, messages
    system = request.getfixturevalue("system_a")
    live = request.getfixturevalue("live_a")
    return system.kb, [m.message for m in live.messages]


def _bodies(messages):
    """Every distinct ``(router, code, detail)``, in a fixed order."""
    return sorted({(m.router, m.error_code, m.detail) for m in messages})


class TestNaiveForms:
    """Each optimisation of the per-message path against the form in
    :mod:`tests.oracle` it was derived from, input by input."""

    def test_compiled_matcher_is_the_per_template_probe(self, corpus):
        kb, messages = corpus
        for _router, code, detail in _bodies(messages):
            words = tokenize(detail)
            assert kb.templates.match_words(
                code, words
            ) == oracle.match_template(kb.templates, code, words), detail

    def test_prefiltered_extraction_is_the_four_scans(self, corpus):
        kb, messages = corpus
        extractor = LocationExtractor(kb.dictionary)
        for router, _code, detail in _bodies(messages):
            assert extractor.extract(
                router, detail
            ) == oracle.extract_locations(kb.dictionary, router, detail), (
                router,
                detail,
            )

    def test_prefilter_sees_each_location_format_alone(self, system_a):
        """One body per format and nothing else location-shaped in it,
        so a prefilter blind to that format has nowhere to hide."""
        dictionary = system_a.kb.dictionary
        extractor = LocationExtractor(dictionary)
        found = set()
        for router in sorted(dictionary.routers):
            for location in sorted(dictionary.components_of(router)):
                slot = location.kind is LocationKind.SLOT
                texts = [f"{'slot ' if slot else ''}{location.name} failed"]
                ip = dictionary.ip_of(location)
                if ip:
                    texts.append(f"peer {ip} reset")
                for text in texts:
                    got = extractor.extract(router, text)
                    assert got == oracle.extract_locations(
                        dictionary, router, text
                    ), (router, text)
                    found.update(item.location.kind for item in got)
        assert found >= {
            LocationKind.MULTILINK,
            LocationKind.PHYS_IF,
            LocationKind.SLOT,
            LocationKind.ROUTER,
        }

    def test_memoized_augmentation_is_per_message(self, corpus):
        kb, messages = corpus
        expected = {}  # the oracle is a pure function of the body
        for plus in Augmenter(kb.templates, kb.dictionary).augment_all(
            messages
        ):
            message = plus.message
            body = (message.router, message.error_code, message.detail)
            if body not in expected:
                expected[body] = oracle.augment(kb, message)
            assert (
                plus.template,
                plus.locations,
                plus.primary_location,
            ) == expected[body], message

    def test_cached_hierarchy_queries_are_recomputations(self, corpus):
        """Ancestors of every location the corpus names, spatial match of
        every two on one router, ``connected`` of every two on a pair of
        linked routers (both ways round) and on a sample of unlinked
        pairs."""
        kb, messages = corpus
        d = kb.dictionary
        extractor = LocationExtractor(d)
        by_router: dict[str, set[Location]] = {}
        for router, _code, detail in _bodies(messages):
            for item in extractor.extract(router, detail):
                by_router.setdefault(item.location.router, set()).add(
                    item.location
                )
        for seen in by_router.values():
            for a in seen:
                assert d.ancestors(a) == oracle.ancestors(d, a), a
                for b in seen:
                    assert spatially_matched(
                        d, a, b
                    ) == oracle.spatial_match(d, a, b), (a, b)
        routers = sorted(by_router)
        pairs = {(p.router, q.router) for p, q in d.all_links()}
        pairs |= {(q, p) for p, q in pairs}
        pairs |= set(zip(routers, routers[1:] + routers[:1]))  # mostly unlinked
        answers = set()
        for router_a, router_b in pairs:
            for a in by_router.get(router_a, ()):
                for b in by_router.get(router_b, ()):
                    answer = d.connected(a, b)
                    answers.add(answer)
                    assert answer == oracle.connected(d, a, b), (a, b)
        assert answers == {True, False}

    def test_member_bundle_index_keeps_the_scan_order(self):
        """A member of several bundles climbs into them in the order the
        bundles were registered, whichever way the index is built."""
        d = LocationDictionary()
        member = d.add_component("r1", "Serial1/0/1")
        other = d.add_component("r1", "Serial1/0/2")
        for name in ("Multilink7", "Multilink2", "Multilink9", "Multilink4"):
            bundle = Location("r1", LocationKind.MULTILINK, name)
            d.add_multilink_member(bundle, other)
            if name != "Multilink9":
                d.add_multilink_member(bundle, member)
        assert [loc.name for loc in d.ancestors(member)[-3:]] == [
            "Multilink7",
            "Multilink2",
            "Multilink4",
        ]
        for location in (member, other):
            assert d.ancestors(location) == oracle.ancestors(d, location)

    def test_merge_invalidates_every_cache(self):
        """Answers cached before a merge must not survive it."""
        d = LocationDictionary()
        a = d.add_component("r1", "Serial1/0/1:0")
        b = d.add_component("r2", "Serial2/0/1:0")
        c = d.add_component("r1", "Serial3/0/1")
        a_phys = Location("r1", LocationKind.PHYS_IF, "Serial1/0/1")
        bundle = Location("r1", LocationKind.MULTILINK, "Multilink1")

        def answers(of):
            return (
                of.connected(a, b),
                of.connected(b, a),
                spatially_matched(of, a_phys, c),
                of.ancestors(c),
            )

        assert answers(d) == (False, False, False, oracle.ancestors(d, c))
        other = LocationDictionary()
        other.add_link(
            a_phys, Location("r2", LocationKind.PHYS_IF, "Serial2/0/1")
        )
        other.add_multilink_member(bundle, a_phys)
        other.add_multilink_member(bundle, c)
        d.merge(other)
        assert answers(d) == (
            oracle.connected(d, a, b),
            oracle.connected(d, b, a),
            oracle.spatial_match(d, a_phys, c),
            oracle.ancestors(d, c),
        )
        assert answers(d)[:3] == (True, True, True)
