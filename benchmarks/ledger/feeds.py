"""Seeded input feeds, built on ``repro.netsim.scale``.

Every feed is a *slice of a day at a stated density*, never "N messages
spread over a day": window occupancy drives grouping cost, so it must not
change with the slice length.

The network (topology, per-router inventory, which routers are the busy
ones) and its history (the learning corpus, hence the knowledge base) are
the population and are the same on every run; the seed draws the measured
day of traffic from it.  Re-drawing topology or history per seed makes
run-to-run spread mostly a property of the inputs, not of the program: on
the burst feed the number of mined rules alone moved digest time by 12%.
The seed reaches only this module; the program under test sees the
generated lines and nothing else.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

from repro.core.config import DigestConfig
from repro.core.pipeline import SyslogDigest
from repro.netsim.scale import SCALE_START, ScaleGenerator, ScaleSpec
from repro.syslog.message import SyslogMessage
from repro.syslog.parse import format_line

#: Historical corpus size for template/rule learning, as
#: ``benchmarks/bench_throughput.py`` learns its knowledge base.
LEARNING_MESSAGES = 30_000

#: ``ScaleSpec.seed`` of every network the ledger builds.
NETWORK_SEED = 7

#: Burst re-timing: each simulated ``BURST_PERIOD`` seconds of traffic is
#: squeezed, order-preservingly, into the period's first ``BURST_BUSY``.
BURST_PERIOD = 300.0
BURST_BUSY = 30.0


@dataclass(frozen=True)
class Feed:
    """One load shape: who talks, how unevenly, and how densely."""

    name: str
    n_routers: int
    zipf_exponent: float
    #: Density: the feed is a slice of a day holding this many messages.
    per_day: int
    bursty: bool = False


#: The ISP-backbone mix of the paper: many routers, mild skew, ~49%
#: distinct message bodies, so per-message work is about as large as
#: grouping work.
BACKBONE = Feed("backbone", n_routers=1000, zipf_exponent=1.1, per_day=1_000_000)

#: Data-center shape after Liang et al. ("Finding Needles in the
#: Haystack"): few devices dominate, few templates dominate, arrivals
#: come in bursts.  Grouping is ~90% of the work on it.
BURST = Feed(
    "burst", n_routers=200, zipf_exponent=1.6, per_day=1_000_000, bursty=True
)

#: The backbone mix at 1/100 of the density.  A group is only finalized
#: once it has been idle for ``DigestConfig.idle_flush`` (3 h of *message*
#: time), so a feed that must make the daemon emit events while the run
#: lasts has to cover many simulated hours in few lines.  Used where
#: emitted events, not ingest cost, are the subject (serve_paced,
#: serve_read).
SPARSE = Feed("sparse", n_routers=1000, zipf_exponent=1.1, per_day=10_000)


def generator(feed: Feed) -> ScaleGenerator:
    return ScaleGenerator(
        ScaleSpec(
            n_routers=feed.n_routers,
            n_messages=feed.per_day,
            zipf_exponent=feed.zipf_exponent,
            seed=NETWORK_SEED,
        )
    )


def learn(gen: ScaleGenerator, n_learning: int) -> SyslogDigest:
    """The knowledge base every run digests under, learned as
    ``benchmarks/bench_throughput.py`` learns its own."""
    return SyslogDigest.learn(
        gen.learning_messages(n_learning),
        gen.configs(),
        DigestConfig(window=120.0),
        fit_temporal=False,
    )


def _squeeze_into_bursts(
    messages: Iterable[SyslogMessage],
) -> Iterator[SyslogMessage]:
    scale = BURST_BUSY / BURST_PERIOD
    for message in messages:
        period, offset = divmod(message.timestamp - SCALE_START, BURST_PERIOD)
        yield replace(
            message,
            timestamp=SCALE_START + period * BURST_PERIOD + offset * scale,
        )


def feed_lines(gen: ScaleGenerator, feed: Feed, seed: int, n: int) -> list[str]:
    """The first ``n`` messages of the seed's day as collector lines."""
    messages: Iterable[SyslogMessage] = islice(gen.stream(seed_salt=seed), n)
    if feed.bursty:
        messages = _squeeze_into_bursts(messages)
    return [format_line(message) for message in messages]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
