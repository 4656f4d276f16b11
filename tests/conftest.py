"""Shared fixtures: miniature datasets and a learned system.

Session-scoped so the expensive generation/learning happens once; tests
must treat these as read-only.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import pytest

from repro.core.config import DigestConfig
from repro.core.pipeline import SyslogDigest
from repro.netsim.datasets import dataset_a, dataset_b, generate_dataset
from repro.netsim.scale import SCALE_START, ScaleGenerator, ScaleSpec
from repro.syslog.stream import sort_messages
from repro.utils.timeutils import DAY


@pytest.fixture(scope="session")
def data_a():
    """A small dataset-A instance (network + configs + engine)."""
    return generate_dataset(dataset_a(), scale=0.25)


@pytest.fixture(scope="session")
def data_b():
    """A small dataset-B instance."""
    return generate_dataset(dataset_b(), scale=0.25)


@pytest.fixture(scope="session")
def history_a(data_a):
    """10 days of labelled history for dataset A."""
    return data_a.generate(0.0, 10)


@pytest.fixture(scope="session")
def live_a(data_a):
    """2 days of labelled live traffic following the history."""
    return data_a.generate(10 * DAY, 2)


@pytest.fixture(scope="session")
def system_a(data_a, history_a) -> SyslogDigest:
    """A SyslogDigest learned on the small dataset-A history."""
    return SyslogDigest.learn(
        [m.message for m in history_a.messages],
        list(data_a.configs.values()),
        DigestConfig(),
        fit_temporal=False,
    )


@pytest.fixture(scope="session")
def digest_a(system_a, live_a):
    """Digest of the live dataset-A window."""
    return system_a.digest(m.message for m in live_a.messages)


@pytest.fixture(scope="session")
def burst_mix():
    """``(digest, messages)``: the shape that fills grouping windows.

    Few of 200 routers (and so few templates and locations) dominate,
    and each 300 s of a million-a-day feed is squeezed, order kept, into
    its first 30 s — a data-center burst.  With ``W`` = 120 s a whole
    burst sits inside one rule window, so the same ``(router, template,
    location)`` is filed hundreds of times before anything expires.
    5 000 messages: one full burst and 13 s into the next.
    """
    gen = ScaleGenerator(ScaleSpec(zipf_exponent=1.6, n_routers=200))
    digest = SyslogDigest.learn(
        gen.learning_messages(30_000),  # fewer mine next to no rules
        gen.configs(),
        DigestConfig(window=120.0),
        fit_temporal=False,
    )
    messages = []
    for message in islice(gen.stream(), 5_000):
        period, offset = divmod(message.timestamp - SCALE_START, 300.0)
        messages.append(
            replace(
                message,
                timestamp=SCALE_START + period * 300.0 + offset * 0.1,
            )
        )
    # Squeezing makes a few timestamps tie; settle their order the way
    # the batch engine will, so one index means one message everywhere.
    return digest, sort_messages(messages)
