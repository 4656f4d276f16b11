"""Router syslog data model: messages, vendor line formats, streams."""

from repro.syslog.collector import (
    CollectorProfile,
    degrade_labeled,
    degrade_stream,
    interleave_arrivals,
)
from repro.syslog.ingest import (
    INGEST_HEALTH_KEYS,
    MultiSourceIngest,
    SourceState,
)
from repro.syslog.message import LabeledMessage, SyslogMessage
from repro.syslog.parse import SyslogParseError, format_line, parse_line
from repro.syslog.tail import SourceTailer, TailSet
from repro.syslog.stream import (
    read_log,
    sort_messages,
    write_log,
)
from repro.syslog.vendors import VENDOR_V1, VENDOR_V2, VendorProfile, vendor_for

__all__ = [
    "CollectorProfile",
    "INGEST_HEALTH_KEYS",
    "LabeledMessage",
    "MultiSourceIngest",
    "SourceState",
    "SourceTailer",
    "SyslogMessage",
    "SyslogParseError",
    "TailSet",
    "VENDOR_V1",
    "VENDOR_V2",
    "VendorProfile",
    "format_line",
    "interleave_arrivals",
    "parse_line",
    "read_log",
    "sort_messages",
    "degrade_labeled",
    "degrade_stream",
    "vendor_for",
    "write_log",
]
