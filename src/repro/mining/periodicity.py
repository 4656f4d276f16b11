"""Offline periodicity analysis of per-template arrival series.

Section 4.1.3 observes two characteristic temporal patterns — dense bursts
(the Figure 4 controller) and steady periodic recurrence (the Figure 5
bad-auth timer).  The EWMA grouper handles both online; this module is the
offline analysis side: classify a series and estimate its period, which
feeds capacity/reporting decisions and makes the learned "temporal
pattern" knowledge inspectable.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.utils.stats import mean, quantile


class RhythmKind(enum.Enum):
    """Temporal character of one (router, template) arrival series."""

    PERIODIC = "periodic"  # steady timer-like recurrence
    BURSTY = "bursty"  # dense clusters separated by long quiet
    SPORADIC = "sporadic"  # no usable temporal structure
    SINGLETON = "singleton"  # too few observations to tell


@dataclass(frozen=True)
class RhythmProfile:
    """Summary of one series' temporal behaviour."""

    kind: RhythmKind
    n: int
    period: float | None  # median interarrival, for PERIODIC
    cv: float | None  # coefficient of variation of interarrivals
    burst_fraction: float | None  # share of gaps below half the median


def analyze_rhythm(
    timestamps: Sequence[float],
    periodic_cv: float = 0.5,
    min_points: int = 5,
) -> RhythmProfile:
    """Classify a sorted arrival series.

    A series is PERIODIC when interarrival variability is low
    (CV <= ``periodic_cv``); BURSTY when the gap distribution is strongly
    bimodal (the top decile of gaps dwarfs the median); SPORADIC
    otherwise.
    """
    n = len(timestamps)
    if n < min_points:
        return RhythmProfile(RhythmKind.SINGLETON, n, None, None, None)
    gaps = [
        b - a for a, b in zip(timestamps, timestamps[1:]) if b - a >= 0
    ]
    if any(b < a for a, b in zip(timestamps, timestamps[1:])):
        raise ValueError("timestamps must be sorted")
    gap_mean = mean(gaps)
    if gap_mean == 0:
        return RhythmProfile(RhythmKind.BURSTY, n, None, 0.0, 1.0)
    variance = mean([(g - gap_mean) ** 2 for g in gaps])
    cv = variance**0.5 / gap_mean
    median_gap = quantile(gaps, 0.5)
    burst_fraction = sum(
        1 for g in gaps if g < 0.5 * max(median_gap, 1e-9)
    ) / len(gaps)

    if cv <= periodic_cv:
        return RhythmProfile(
            RhythmKind.PERIODIC, n, median_gap, cv, burst_fraction
        )
    # Bursty: the mean gap dwarfs the median — most gaps are tiny, a few
    # long quiet spells dominate the total span.
    if median_gap >= 0 and gap_mean >= 5 * max(median_gap, 1e-9):
        return RhythmProfile(
            RhythmKind.BURSTY, n, None, cv, burst_fraction
        )
    return RhythmProfile(RhythmKind.SPORADIC, n, None, cv, burst_fraction)


def rhythm_report(
    series: dict[tuple, Sequence[float]], top: int = 20
) -> list[tuple[tuple, RhythmProfile]]:
    """Profiles of the largest series, biggest first; equal sizes in key
    order, so the report never depends on the series' insertion order."""
    ranked = sorted(series.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return [(key, analyze_rhythm(list(ts))) for key, ts in ranked[:top]]
