"""Stream helpers: the one way bytes become log lines, and log files.

An operational collector receives interleaved feeds from thousands of
routers; the mining code assumes a single time-sorted stream.  These
helpers provide that normalization.  :func:`decode_line` is the only
place a collector's bytes become text: files read through
:func:`log_lines` and live feeds followed by :mod:`repro.syslog.tail`
decode identically, so one file digests the same either way.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.syslog.message import SyslogMessage
from repro.syslog.parse import format_line


def decode_line(raw: bytes) -> str:
    """Decode one collector line (its newline already cut off).

    UTF-8 with ``errors="replace"``: device syslogs carry stray bytes,
    and a bad byte in a message's free text must not cost the message
    (an undecodable timestamp or code fails to parse and is quarantined
    like any garbage).  One trailing ``\\r`` is stripped, so CRLF feeds
    read like LF ones.
    """
    line = raw.decode("utf-8", errors="replace")
    return line[:-1] if line.endswith("\r") else line


def log_lines(path: str | Path) -> Iterator[str]:
    """Yield every line of a log file through :func:`decode_line`.

    Blank lines are yielded too, so a consumer's 1-based count is the
    file's line number; a final line without a newline is still a line.
    """
    with open(path, "rb") as fh:
        for raw in fh:
            yield decode_line(raw[:-1] if raw.endswith(b"\n") else raw)


def sort_messages(messages: Iterable[SyslogMessage]) -> list[SyslogMessage]:
    """Return messages sorted by (timestamp, router, error_code).

    The secondary keys make ordering deterministic for equal timestamps,
    which matters for reproducible rule mining.
    """
    return sorted(messages, key=lambda m: (m.timestamp, m.router, m.error_code))


def write_log(path: str | Path, messages: Iterable[SyslogMessage]) -> int:
    """Write messages to ``path`` in collector line format; return count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for message in messages:
            fh.write(format_line(message) + "\n")
            count += 1
    return count


def read_log(path: str | Path, quarantine=None) -> list[SyslogMessage]:
    """Read a collector log file into time-sorted messages.

    Blank lines are skipped; lines that do not parse go to
    ``quarantine`` (a throwaway one when ``None``) with the file path
    and 1-based line number — real collector feeds always contain some
    garbage.
    """
    from repro.syslog.resilient import Quarantine, resilient_parse

    if quarantine is None:
        quarantine = Quarantine()
    return sort_messages(
        resilient_parse(log_lines(path), quarantine, source=str(path))
    )
