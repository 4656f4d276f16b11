"""Digest fingerprints: the byte-identity the gates compare.

Every optimisation of the per-message path (indexed template matching,
memoized augmentation, the extraction prefilter, cached hierarchy and
spatial queries) and every execution choice (worker count, executor
lane, placement, checkpoint cut) must leave the digest byte-identical.
The two functions here are that equality: one canonical SHA-256 over
everything a batch run computed, one over a stream's finalized events.
The naive forms the optimisations are held to live in ``tests/oracle.py``.
"""

from __future__ import annotations

import hashlib


def digest_fingerprint(result) -> str:
    """Canonical SHA-256 over everything a digest run computed.

    Covers, per message: index, identity fields, matched template key,
    every extracted location and the primary location; per event: member
    indices, label and score; plus the set of rules that fired.  Two runs
    whose fingerprints match produced byte-identical digests — this is
    the equality the ``make check`` identity gate asserts between the
    production path and the oracle's naive forms, and between serial and
    multi-worker runs.

    Duck-typed over :class:`repro.core.pipeline.DigestResult` so this
    module keeps zero intra-package imports (it sits below everything).
    """
    h = hashlib.sha256()
    _hash_events(h, result.events)
    h.update(repr(sorted(result.active_rules)).encode())
    h.update(repr((result.n_messages, result.n_events)).encode())
    return h.hexdigest()


def stream_fingerprint(events) -> str:
    """Canonical SHA-256 over a streaming run's finalized events.

    Same per-event and per-message coverage as :func:`digest_fingerprint`
    (member indices, identity fields, template, locations, label, score),
    minus the batch-only active-rule set, which a stream does not track.
    Two streaming runs whose fingerprints match emitted byte-identical
    events in the same order — the equality the serial ≡ threads ≡
    processes executor-lane gate asserts in ``make check``.
    """
    h = hashlib.sha256()
    _hash_events(h, events)
    h.update(repr(len(events)).encode())
    return h.hexdigest()


def _hash_events(h, events) -> None:
    for event in events:
        h.update(b"E")
        h.update(repr((event.label, event.score)).encode())
        for plus in event.messages:
            loc = plus.primary_location
            h.update(
                repr(
                    (
                        plus.index,
                        plus.timestamp,
                        plus.router,
                        plus.message.error_code,
                        plus.message.detail,
                        plus.template_key,
                        (loc.router, loc.kind.value, loc.name),
                        tuple(
                            (
                                e.location.router,
                                e.location.kind.value,
                                e.location.name,
                                e.role,
                                e.source_text,
                            )
                            for e in plus.locations
                        ),
                    )
                ).encode()
            )
