"""Collector-path degradation: loss, jitter, duplication.

Operational syslog rides UDP: the collector's view is the router's view
minus dropped datagrams, plus occasional duplicates, with reception-time
jitter.  The mining pipeline must degrade gracefully under all three.
This module simulates the collector path so robustness can be measured
(see ``benchmarks/bench_robustness_loss.py``).
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, replace

from repro.obs import (
    COLLECTOR_DELIVERED,
    COLLECTOR_DROPPED,
    COLLECTOR_DUPLICATED,
    COLLECTOR_JITTERED,
    get_registry,
)
from repro.syslog.message import SyslogMessage


@dataclass(frozen=True)
class CollectorProfile:
    """Degradation parameters of one collector path.

    Attributes
    ----------
    loss_rate:
        Probability an individual message is dropped.
    duplicate_rate:
        Probability a message is delivered twice (UDP retransmit quirk).
    max_jitter:
        Uniform reception delay added per message, seconds.  Jitter can
        reorder messages relative to their generation timestamps; the
        collector stamps *reception* order, so output is re-sorted on the
        jittered times.
    seed:
        RNG seed for reproducibility.
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    max_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.max_jitter < 0:
            raise ValueError("max_jitter must be non-negative")

    @property
    def is_identity(self) -> bool:
        """True when this profile cannot alter the stream at all."""
        return (
            self.loss_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.max_jitter == 0.0
        )


def _degrade_pairs(
    pairs: list[tuple[SyslogMessage, object]], profile: CollectorProfile
) -> list[tuple[SyslogMessage, object]]:
    """Shared degradation over (message, payload) pairs.

    A zero profile is a strict no-op: the input pairs come back as-is,
    in input order, with message identity preserved — no re-sort that
    could reorder distinct same-timestamp messages.  When jitter does
    reorder, the re-sort is by jittered timestamp only (stable), so ties
    keep their input order instead of being shuffled by router/code.
    """
    if profile.is_identity:
        return list(pairs)
    rng = random.Random(profile.seed)
    out: list[tuple[SyslogMessage, object]] = []
    n_dropped = n_duplicated = n_jittered = 0
    for message, payload in pairs:
        if rng.random() < profile.loss_rate:
            n_dropped += 1
            continue
        copies = 2 if rng.random() < profile.duplicate_rate else 1
        if copies == 2:
            n_duplicated += 1
        for copy_index in range(copies):
            jitter = (
                rng.uniform(0.0, profile.max_jitter)
                if profile.max_jitter
                else 0.0
            )
            if jitter:
                n_jittered += 1
                message_out = SyslogMessage(
                    timestamp=message.timestamp + jitter,
                    router=message.router,
                    error_code=message.error_code,
                    detail=message.detail,
                    vendor=message.vendor,
                )
            elif copy_index == 0:
                message_out = message
            else:
                # A duplicate delivery is a distinct datagram: emit a
                # distinct (equal) object so identity-based bookkeeping
                # downstream cannot conflate the two arrivals.
                message_out = replace(message)
            out.append((message_out, payload))
    if profile.max_jitter:
        out.sort(key=lambda p: p[0].timestamp)
    registry = get_registry()
    if registry.enabled:
        registry.inc(COLLECTOR_DELIVERED, len(out))
        if n_dropped:
            registry.inc(COLLECTOR_DROPPED, n_dropped)
        if n_duplicated:
            registry.inc(COLLECTOR_DUPLICATED, n_duplicated)
        if n_jittered:
            registry.inc(COLLECTOR_JITTERED, n_jittered)
    return out


def degrade_stream(
    messages: Iterable[SyslogMessage], profile: CollectorProfile
) -> list[SyslogMessage]:
    """Pass a stream through a lossy/jittery collector path.

    Returns the surviving messages sorted by their jittered reception
    times (which replace the timestamps — that is what the collector
    records when router and collector clocks drift).
    """
    return [
        message
        for message, _ in _degrade_pairs(
            [(m, None) for m in messages], profile
        )
    ]


def interleave_arrivals(
    feeds: dict[str, Iterable],
    key=None,
) -> list[tuple[str, object]]:
    """Deterministically interleave per-source feeds into one arrival order.

    Models what a collector sees from several concurrent feeds: each
    feed's internal order is preserved, and at every step the next
    arrival is the feed head with the smallest ``key`` (default: the
    item's ``timestamp`` attribute), ties broken by source registration
    order.  Returns ``(source, item)`` pairs to push one by one into a
    :class:`~repro.syslog.ingest.MultiSourceIngest` — no RNG, so the
    same feeds always produce the same interleaving.
    """
    if key is None:
        key = lambda item: item.timestamp  # noqa: E731 - default accessor
    heads = {source: list(feed) for source, feed in feeds.items()}
    order = list(heads)
    cursor = dict.fromkeys(order, 0)
    out: list[tuple[str, object]] = []
    remaining = sum(len(items) for items in heads.values())
    while remaining:
        best: str | None = None
        best_key = None
        for source in order:
            i = cursor[source]
            if i >= len(heads[source]):
                continue
            k = key(heads[source][i])
            if best is None or k < best_key:
                best, best_key = source, k
        assert best is not None
        out.append((best, heads[best][cursor[best]]))
        cursor[best] += 1
        remaining -= 1
    return out


def degrade_labeled(labeled, profile: CollectorProfile):
    """Degrade a labelled stream, carrying ground truth along.

    Takes and returns :class:`~repro.syslog.message.LabeledMessage`
    sequences; loss/duplication/jitter decisions are identical to
    :func:`degrade_stream` for the same profile.
    """
    from repro.syslog.message import LabeledMessage

    pairs = _degrade_pairs([(lm.message, lm) for lm in labeled], profile)
    return [
        LabeledMessage(
            message=message,
            event_id=original.event_id,
            template_id=original.template_id,
            locations=original.locations,
        )
        for message, original in pairs
    ]
