"""Composable fault injection over collector traces (DESIGN.md §8).

Real collector feeds fail in characteristic ways: lines arrive
corrupted or truncated (UDP datagram damage), a feed stalls and then
bursts its backlog out late, messages are delivered in duplicate, and
on the compute side individual pool workers die.  Each failure mode is
a :class:`FaultProfile`; profiles compose, are deterministic under a
seed, and count everything they inject through :mod:`repro.obs`
(``syslogdigest_faults_injected_total{kind=...}``).

Profiles transform ``(line, label)`` pairs — the collector line plus an
opaque ground-truth label (e.g. the injected event id) that rides along
so benchmarks can score recall after the damage.  Line faults keep the
label attached: a truncated line that still parses keeps its ground
truth, a corrupted one simply never produces a digestible message.

Profiles that fault the *compute* or *disk* path leave the trace alone
and hand over the hooks they arm from :meth:`FaultProfile.points`:
``{point: hook}`` for :func:`repro.utils.inject.arm`, the one seam the
product consults (DESIGN.md §14).  ``bench_faults.py`` arms them, then
builds the stream, to prove the retry-then-serial-fallback recovery
(:meth:`repro.core.parallel.ParallelGroupingEngine._run_shards`,
:meth:`repro.core.stream.DigestStream.push_many`) under real pools.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.utils.inject import (
    DURABLE,
    SHARD_ATTEMPT,
    SHARD_STEP,
    SHARD_TASK,
    DurableWriteFault,
    InjectedWorkerFault,
    count,
)
from repro.utils.timeutils import parse_ts

#: One unit of trace: the raw collector line plus an opaque label.
LinePair = tuple[str, object]


class ShardFault:
    """Shard hook: chosen shards fail on their first ``fail_attempts``
    attempts, before stepping message ``after`` of a batch.

    Armed at ``shard.task`` / ``shard.attempt`` (called without a
    position, so ``after=0`` fails cleanly before any shard state is
    touched) or at ``shard.step`` (called before each message with its
    batch position, so the raise lands with a cleanly-applied prefix
    behind it — the shape of the shard-retry corruption bug: a recovery
    that replays the prefix diverges, one that resumes at the failed
    message is byte-identical to a no-fault run).  Picklable: it rides
    to the batch pool with every task and to the process lane at spawn.
    """

    def __init__(
        self,
        fail_shards: tuple[int, ...],
        fail_attempts: int = 1,
        after: int = 0,
    ) -> None:
        self.fail_shards = tuple(fail_shards)
        self.fail_attempts = fail_attempts
        self.after = after

    def __call__(self, shard_id: int, attempt: int, position: int = 0):
        if (
            shard_id in self.fail_shards
            and attempt < self.fail_attempts
            and position >= self.after
        ):
            raise InjectedWorkerFault(
                f"injected fault: shard {shard_id}, attempt {attempt}, "
                f"message {position}"
            )


@dataclass(frozen=True)
class FaultProfile:
    """Base profile: the clean feed.  Applying it is a strict no-op."""

    name: str = "clean"

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        """Return the faulted trace; the base profile changes nothing."""
        return list(pairs)

    def points(self) -> dict:
        """``{injection point: hook}`` to arm; the base arms nothing."""
        return {}


@dataclass(frozen=True)
class CorruptLines(FaultProfile):
    """Datagram damage: a fraction of lines become unparseable garbage."""

    name: str = "corrupt"
    rate: float = 0.01
    seed: int = 0

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        rng = random.Random(self.seed)
        out: list[LinePair] = []
        n = 0
        for line, label in pairs:
            if rng.random() < self.rate:
                n += 1
                line = "\x15" + line[::-1]  # NAK + reversed: never parses
            out.append((line, label))
        count(self.name, n)
        return out


@dataclass(frozen=True)
class TruncateLines(FaultProfile):
    """Cut lines short, as a truncated datagram would arrive.

    A cut landing after the ``CODE:`` head still parses (with a
    shortened detail) — that is the realistic case and exactly what the
    digester must survive: degraded, not dead.
    """

    name: str = "truncate"
    rate: float = 0.01
    keep_fraction: float = 0.5
    seed: int = 1

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        rng = random.Random(self.seed)
        out: list[LinePair] = []
        n = 0
        for line, label in pairs:
            if rng.random() < self.rate:
                n += 1
                line = line[: max(1, int(len(line) * self.keep_fraction))]
            out.append((line, label))
        count(self.name, n)
        return out


@dataclass(frozen=True)
class FeedStall(FaultProfile):
    """A feed goes silent, then bursts its backlog out late.

    Lines whose timestamp falls in the stall window are held back and
    re-delivered (in order) right after the window closes — so they
    arrive behind the stream clock, exactly the shape that trips skew
    rejection and must be quarantined, not fatal.  Lines whose
    timestamp cannot be read (already corrupted upstream) pass through
    unstalled.
    """

    name: str = "stall"
    start_fraction: float = 0.5
    duration: float = 600.0

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        stamped: list[tuple[float | None, LinePair]] = []
        times = []
        for pair in pairs:
            try:
                ts = parse_ts(pair[0][:19])
                times.append(ts)
            except ValueError:
                ts = None
            stamped.append((ts, pair))
        if not times:
            return list(pairs)
        t0 = min(times) + self.start_fraction * (max(times) - min(times))
        t1 = t0 + self.duration
        out: list[LinePair] = []
        held: list[LinePair] = []
        n = 0
        for ts, pair in stamped:
            if ts is not None and t0 <= ts < t1:
                held.append(pair)
                n += 1
                continue
            out.append(pair)
            if held and ts is not None and ts >= t1:
                # The backlog bursts out *behind* the first post-stall
                # line, so the replayed lines arrive late relative to
                # the stream clock — skew handling must absorb them.
                out.extend(held)
                held = []
        out.extend(held)  # stall ran to the end of the trace
        count(self.name, n)
        return out


@dataclass(frozen=True)
class ReorderLines(FaultProfile):
    """Transport disorder: a fraction of lines arrive out of order.

    Selected lines get a uniform arrival delay up to ``max_skew``; the
    trace is then stably re-sorted by arrival time, so disorder is
    *bounded* — no line moves more than ``max_skew`` seconds from its
    timestamp.  An ingest front-end with ``max_reorder_delay >=
    max_skew`` must absorb this completely.  Unparseable lines ride at
    the last readable timestamp.
    """

    name: str = "reorder"
    rate: float = 0.1
    max_skew: float = 30.0
    seed: int = 3

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        rng = random.Random(self.seed)
        stamped: list[tuple[float, int, LinePair]] = []
        last_ts = 0.0
        n = 0
        for index, pair in enumerate(pairs):
            try:
                ts = parse_ts(pair[0][:19])
                last_ts = ts
            except ValueError:
                ts = last_ts
            arrival = ts
            if rng.random() < self.rate:
                arrival += rng.uniform(0.0, self.max_skew)
                n += 1
            stamped.append((arrival, index, pair))
        stamped.sort(key=lambda item: (item[0], item[1]))
        count(self.name, n)
        return [pair for _, _, pair in stamped]


@dataclass(frozen=True)
class LateLines(FaultProfile):
    """Straggler delivery: a fraction of lines arrive far too late.

    Unlike :class:`ReorderLines`, the fixed ``delay`` is meant to exceed
    any reasonable reorder window, so these lines arrive behind the
    flushed frontier and must be dropped as *late* (counted, not fatal).
    """

    name: str = "late"
    rate: float = 0.02
    delay: float = 3600.0
    seed: int = 4

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        rng = random.Random(self.seed)
        stamped: list[tuple[float, int, LinePair]] = []
        last_ts = 0.0
        n = 0
        for index, pair in enumerate(pairs):
            try:
                ts = parse_ts(pair[0][:19])
                last_ts = ts
            except ValueError:
                ts = last_ts
            arrival = ts
            if rng.random() < self.rate:
                arrival += self.delay
                n += 1
            stamped.append((arrival, index, pair))
        stamped.sort(key=lambda item: (item[0], item[1]))
        count(self.name, n)
        return [pair for _, _, pair in stamped]


@dataclass(frozen=True)
class SourceFlap(FaultProfile):
    """A feed that periodically degenerates and recovers.

    Every ``period`` seconds the feed enters a flap: it first emits
    ``garbage`` unparseable lines (label ``None`` — no ground truth is
    lost), then stays silent for ``silence`` seconds (its real lines in
    that window are dropped and counted).  Deterministic without a seed:
    flap times come from the trace's own time span.  Feeding one flapping
    source among healthy ones exercises the per-source circuit breaker —
    the garbage opens it, the recovery re-closes it.
    """

    name: str = "flap"
    period: float = 4 * 3600.0
    garbage: int = 6
    silence: float = 900.0

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        stamped: list[tuple[float | None, LinePair]] = []
        times = []
        for pair in pairs:
            try:
                ts = parse_ts(pair[0][:19])
                times.append(ts)
            except ValueError:
                ts = None
            stamped.append((ts, pair))
        if not times:
            return list(pairs)
        t0 = min(times)
        out: list[LinePair] = []
        n = 0
        next_flap = t0 + self.period
        flap_end: float | None = None
        for ts, pair in stamped:
            if ts is not None and ts >= next_flap:
                for k in range(self.garbage):
                    out.append((f"\x15FLAP {next_flap:.0f} {k}", None))
                n += self.garbage
                flap_end = next_flap + self.silence
                next_flap += self.period
            if ts is not None and flap_end is not None and ts < flap_end:
                n += 1  # dropped in the silence window
                continue
            out.append(pair)
        count(self.name, n)
        return out


@dataclass(frozen=True)
class DuplicateBurst(FaultProfile):
    """Retransmit storms: some lines are delivered several times in a row."""

    name: str = "duplicate"
    rate: float = 0.01
    copies: int = 3
    seed: int = 2

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        rng = random.Random(self.seed)
        out: list[LinePair] = []
        n = 0
        for line, label in pairs:
            burst = self.copies if rng.random() < self.rate else 1
            if burst > 1:
                n += burst - 1
            out.extend([(line, label)] * burst)
        count(self.name, n)
        return out


@dataclass(frozen=True)
class WorkerFaults(FaultProfile):
    """Compute-path faults: chosen pool workers raise on their first
    ``fail_attempts`` attempts.  Leaves the trace itself untouched.

    With ``after`` set, the streaming fault moves from task start to
    *mid-list*: the shard fails before stepping message ``after`` of a
    batch, leaving a partially-advanced shard for the recovery path to
    resume exactly (the shard-retry exactness contract).
    """

    name: str = "worker"
    fail_shards: tuple[int, ...] = (0,)
    fail_attempts: int = 1
    after: int | None = None

    def points(self) -> dict:
        start = ShardFault(self.fail_shards, self.fail_attempts)
        if self.after is None:
            return {SHARD_TASK: start, SHARD_ATTEMPT: start}
        mid = ShardFault(self.fail_shards, self.fail_attempts, self.after)
        return {SHARD_TASK: start, SHARD_STEP: mid}


@dataclass(frozen=True)
class DiskFull(FaultProfile):
    """Injected ENOSPC on durable writes whose path contains ``match``.

    The trace is untouched; the damage lands at the ``durable``
    injection point every checkpoint, journal, model-store, and
    quarantine write consults.  The
    fault fires for attempts ``[after, after + times)`` of matching
    writes, then the disk "recovers" — exactly the disk-full-then-freed
    shape the degrade-don't-crash contract covers.
    """

    name: str = "disk_full"
    match: str = ""
    after: int = 1
    times: int = 1

    def points(self) -> dict:
        return {
            DURABLE: DurableWriteFault(
                "ENOSPC", self.match, "write", self.after, self.times
            )
        }


@dataclass(frozen=True)
class DiskIOError(FaultProfile):
    """Injected EIO — a failing disk rather than a full one.

    Same seam and counting as :class:`DiskFull`; ``op`` may be "read"
    to fail tail reads instead of durable writes (the tailer counts
    those per source and retries at the next poll).
    """

    name: str = "io_error"
    match: str = ""
    op: str = "write"
    after: int = 1
    times: int = 1

    def points(self) -> dict:
        return {
            DURABLE: DurableWriteFault(
                "EIO", self.match, self.op, self.after, self.times
            )
        }


@dataclass(frozen=True)
class RotateLog(FaultProfile):
    """Scripted logrotate: rename the live file to ``<name>.1`` (shifting
    older rotations up) so the next write to ``path`` starts a new file.

    Not a trace transform — :meth:`fire` is called by the chaos harness
    at a chosen moment while a daemon is mid-read, which is the race
    the tailer's inode-tracking rotation protocol must win.
    """

    name: str = "rotate_log"
    path: str = ""

    def fire(self) -> None:
        import os as _os
        from pathlib import Path as _Path

        base = _Path(self.path)
        if not base.exists():
            return
        index = 1
        while base.with_name(f"{base.name}.{index}").exists():
            index += 1
        while index > 1:
            _os.replace(
                base.with_name(f"{base.name}.{index - 1}"),
                base.with_name(f"{base.name}.{index}"),
            )
            index -= 1
        _os.replace(base, base.with_name(f"{base.name}.1"))
        count(self.name, 1)


@dataclass(frozen=True)
class TruncateLog(FaultProfile):
    """Scripted truncation: cut the live file down to ``keep_lines``
    lines in place (same inode — the copytruncate logrotate mode).

    The tailer detects the size regression and restarts the cursor at
    offset 0; with ``keep_lines=0`` the restart is unambiguous (any
    regrowth is new data, never a re-read).
    """

    name: str = "truncate_log"
    path: str = ""
    keep_lines: int = 0

    def fire(self) -> None:
        from pathlib import Path as _Path

        target = _Path(self.path)
        if not target.exists():
            return
        if self.keep_lines <= 0:
            kept = b""
        else:
            lines = target.read_bytes().splitlines(keepends=True)
            kept = b"".join(lines[: self.keep_lines])
        with open(target, "r+b") as fh:
            if kept:
                fh.write(kept)
            fh.truncate(len(kept))
        count(self.name, 1)


@dataclass(frozen=True)
class Compose(FaultProfile):
    """Apply several profiles in order; each injection point is armed
    by the first member that arms it."""

    name: str = "composed"
    profiles: tuple[FaultProfile, ...] = field(default_factory=tuple)

    def apply(self, pairs: list[LinePair]) -> list[LinePair]:
        out = list(pairs)
        for profile in self.profiles:
            out = profile.apply(out)
        return out

    def points(self) -> dict:
        armed: dict = {}
        for profile in reversed(self.profiles):
            armed.update(profile.points())
        return armed


def labeled_pairs(labeled_messages) -> list[LinePair]:
    """Turn netsim :class:`LabeledMessage` output into fault-ready pairs."""
    from repro.syslog.parse import format_line

    return [
        (format_line(lm.message), lm.event_id) for lm in labeled_messages
    ]
