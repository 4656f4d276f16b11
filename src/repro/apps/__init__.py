"""Applications built on SyslogDigest (Section 6 of the paper)."""

from repro.apps.digest_diff import DigestDelta, diff_digests, render_delta
from repro.apps.healthmap import HealthMap, render_health_map
from repro.apps.reportgen import daily_report
from repro.apps.ticket_match import TicketMatchReport, match_tickets
from repro.apps.timeline import (
    TimelineOptions,
    render_event_strip,
    render_timeline,
)
from repro.apps.trending import LevelShift, detect_shifts
from repro.apps.troubleshoot import EventBrowser

__all__ = [
    "DigestDelta",
    "EventBrowser",
    "HealthMap",
    "LevelShift",
    "TicketMatchReport",
    "daily_report",
    "detect_shifts",
    "match_tickets",
    "TimelineOptions",
    "diff_digests",
    "render_delta",
    "render_event_strip",
    "render_health_map",
    "render_timeline",
]
