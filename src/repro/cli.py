"""Command-line interface: ``syslogdigest <generate|learn|digest|report>``.

A thin operational wrapper over the library so the full workflow runs from
a shell::

    syslogdigest generate --dataset A --days 14 --scale 0.3 --out work/
    syslogdigest learn --log work/history.log --configs work/configs --kb work/kb.json
    syslogdigest digest --log work/online.log --kb work/kb.json --top 20
    syslogdigest stats --log work/online.log --kb work/kb.json --format prom

``digest``/``report`` accept ``--metrics <path>`` to dump the metrics
registry next to their normal output (JSON when the path ends in
``.json``, Prometheus text otherwise); ``stats`` digests a log and
prints the registry itself.

Fault tolerance (DESIGN.md §8): ``digest``/``stats`` take
``--quarantine <path>`` to survive garbage lines (dead-lettered as
JSONL), ``stats --stream`` takes ``--checkpoint <path>`` to write
periodic state snapshots, and ``resume`` restarts a streaming digest
from such a checkpoint plus the log tail::

    syslogdigest stats --log work/online.log --kb work/kb.json \
        --stream --checkpoint work/digest.ckpt --quarantine work/bad.jsonl
    syslogdigest resume --checkpoint work/digest.ckpt \
        --log work/online.log --kb work/kb.json --top 20

Multi-source ingest (DESIGN.md §10): ``digest --ingest`` (or one
``--source`` per feed) pushes through the resilient front-end —
watermark reordering, per-source circuit breakers, optional
``--dedup-window`` — ``sources`` prints the per-source health table,
and ``requeue`` replays a dumped quarantine JSONL back through the
digester::

    syslogdigest digest --kb work/kb.json --source feedA.log \
        --source feedB.log --max-reorder-delay 60
    syslogdigest sources --kb work/kb.json --log feedA.log --log feedB.log
    syslogdigest requeue --kb work/kb.json --quarantine work/bad.jsonl

Knowledge lifecycle (DESIGN.md §9): ``learn``/``digest``/``resume``
accept ``--store <dir>`` (a versioned model store) in place of a bare
``--kb`` file, and the offline refresh loop runs through its own
validation-gated subcommands — a refresh only becomes the active
version when canary quality stays inside the promotion gate::

    syslogdigest learn --log work/history.log --configs work/configs \
        --store work/kbstore
    syslogdigest refresh --store work/kbstore --log work/week2.log \
        --canary work/canary.log          # exit 0 promoted, 2 rejected
    syslogdigest rollback --store work/kbstore [--to 3]
    syslogdigest kb-log --store work/kbstore
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.config import DigestConfig
from repro.core.knowledge import KnowledgeBase
from repro.core.pipeline import SyslogDigest
from repro.netsim.datasets import dataset_a, dataset_b, generate_dataset
from repro.syslog.stream import read_log, write_log
from repro.utils.timeutils import DAY, parse_ts


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = dataset_a(args.seed) if args.dataset.upper() == "A" else dataset_b(args.seed)
    data = generate_dataset(spec, scale=args.scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = parse_ts(args.start)
    result = data.generate(start, args.days)
    n = write_log(out / "syslog.log", result.raw_messages())
    config_dir = out / "configs"
    config_dir.mkdir(exist_ok=True)
    for router, text in data.configs.items():
        (config_dir / f"{router}.cfg").write_text(text, encoding="utf-8")
    print(
        f"wrote {n} messages ({len(result.incidents)} injected conditions) "
        f"to {out / 'syslog.log'}, {len(data.configs)} configs to {config_dir}"
    )
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    if args.kb is None and args.store is None:
        print("learn needs --kb and/or --store", file=sys.stderr)
        return 1
    messages = list(read_log(args.log))
    configs = [
        path.read_text(encoding="utf-8")
        for path in sorted(Path(args.configs).glob("*.cfg"))
    ]
    if not configs:
        print(f"no *.cfg files under {args.configs}", file=sys.stderr)
        return 1
    system = SyslogDigest.learn(
        messages, configs, DigestConfig(), fit_temporal=not args.no_fit
    )
    destinations = []
    if args.kb is not None:
        system.kb.save(args.kb)
        destinations.append(args.kb)
    if args.store is not None:
        from repro.core.modelstore import KnowledgeStore

        info = KnowledgeStore(args.store).commit(
            system.kb, note=f"learned from {args.log}", activate=True
        )
        destinations.append(f"{args.store} (v{info.version}, active)")
    stats = system.kb.dictionary.stats()
    print(
        f"learned {len(system.kb.templates)} templates, "
        f"{len(system.kb.rules)} rules, "
        f"alpha={system.kb.temporal.alpha} beta={system.kb.temporal.beta}, "
        f"{stats['components']} locations -> {', '.join(destinations)}"
    )
    return 0


def _maybe_write_metrics(path: str | None) -> None:
    if path is None:
        return
    from repro.obs import get_registry, write_metrics

    write_metrics(path, get_registry())
    print(f"# metrics written to {path}", file=sys.stderr)


def _dump_quarantine(quarantine, path: str) -> None:
    kept = quarantine.dump(path)
    summary = quarantine.summary()
    print(
        f"# quarantined {summary['total']} inputs "
        f"({kept} kept, {summary['overflow']} overflowed) -> {path}",
        file=sys.stderr,
    )


def _kb_from_args(
    args: argparse.Namespace,
) -> tuple[KnowledgeBase, int | None]:
    """Resolve (kb, version) from --kb or --store (active version).

    The version is None for a bare --kb file; store-served knowledge
    carries its version so streaming checkpoints can record it.
    """
    if getattr(args, "kb", None) is not None:
        return KnowledgeBase.load(args.kb), None
    if getattr(args, "store", None) is not None:
        from repro.core.modelstore import KnowledgeStore

        kb, info = KnowledgeStore(args.store).load_active()
        print(
            f"# serving store version v{info.version} "
            f"({info.fingerprint[:12]})",
            file=sys.stderr,
        )
        return kb, info.version
    raise SystemExit("need --kb or --store")


def _run_ingest(args: argparse.Namespace, kb, kb_version=None):
    """Drive a streaming digest through the ingest front-end.

    Returns ``(ingest, events, quarantine, interrupted)``.  Normally the
    stream is closed with all events finalized; under SIGTERM/SIGINT the
    run instead checkpoints (when ``--checkpoint`` was given) and stops
    cleanly mid-feed — open groups stay open inside the checkpoint, and
    ``interrupted`` is True.
    """
    from repro.core.config import IngestConfig
    from repro.core.stream import DigestStream
    from repro.serve.drain import GracefulShutdown
    from repro.syslog.collector import interleave_arrivals
    from repro.syslog.ingest import MultiSourceIngest
    from repro.syslog.resilient import Quarantine
    from repro.syslog.tail import TailSet

    paths = list(args.source) if args.source else [args.log]
    if paths == [None]:
        raise SystemExit("need --log or at least one --source")
    config = DigestConfig(
        n_workers=args.workers,
        stream_workers=getattr(args, "stream_workers", "serial"),
    )
    ingest_config = IngestConfig(
        max_reorder_delay=args.max_reorder_delay,
        dedup_window=args.dedup_window,
    )
    stream = DigestStream(kb, config, kb_version=kb_version)
    quarantine = Quarantine()
    stream.attach_quarantine(quarantine)
    ingest = MultiSourceIngest(
        stream, ingest_config, quarantine=quarantine
    )
    # The one-shot CLI reads through the same byte-offset tailers the
    # serve daemon follows live files with (one poll of a static file
    # reads it whole), so `syslogdigest sources` reports tail cursors.
    tails = TailSet(paths)
    ingest.attach_tails(tails)
    checkpoint_path = getattr(args, "checkpoint", None)
    events = []
    tails.poll()
    arrivals = interleave_arrivals(
        tails.take_new(), key=lambda pair: pair[0]
    )
    with GracefulShutdown() as stop:
        for source, (_ts, line) in arrivals:
            if stop:
                _checkpoint_on_signal(stream, checkpoint_path, stop)
                return ingest, events, quarantine, True
            events.extend(ingest.push_line(source, line))
            tails.note_pushed(source)
    events.extend(ingest.close())
    return ingest, events, quarantine, False


def _checkpoint_on_signal(stream, checkpoint_path, stop) -> None:
    """Checkpoint-then-exit on SIGTERM/SIGINT (long-running CLI paths)."""
    if checkpoint_path is not None:
        from repro.core.checkpoint import write_checkpoint

        info = write_checkpoint(checkpoint_path, stream)
        print(
            f"# {stop.signal_name}: checkpointed {info.n_admitted} "
            f"admitted / {info.n_open} open messages to "
            f"{checkpoint_path}; resume with `syslogdigest resume`",
            file=sys.stderr,
        )
    else:
        print(
            f"# {stop.signal_name}: stopping cleanly (no --checkpoint, "
            "state discarded)",
            file=sys.stderr,
        )


def _push_interruptible(
    stream, messages, checkpoint_path, chunk: int = 2048
) -> tuple[list, bool]:
    """Push ``messages`` in chunks, honoring SIGTERM/SIGINT between them.

    Returns ``(events, interrupted)``; on interrupt the stream is
    checkpointed (when a path is configured) instead of dying mid-batch.
    """
    from repro.serve.drain import GracefulShutdown

    events: list = []
    with GracefulShutdown() as stop:
        for i in range(0, len(messages), chunk):
            if stop:
                _checkpoint_on_signal(stream, checkpoint_path, stop)
                return events, True
            events.extend(stream.push_many(messages[i : i + chunk]))
    return events, False


def _cmd_digest(args: argparse.Namespace) -> int:
    kb, kb_version = _kb_from_args(args)
    if args.ingest or args.source:
        from repro.core.present import present_digest

        ingest, events, quarantine, interrupted = _run_ingest(
            args, kb, kb_version
        )
        health = ingest.health()
        n_messages = sum(ingest.pushed_counts().values())
        partial = " (interrupted)" if interrupted else ""
        print(
            f"# {n_messages} arrivals over {health['sources']} sources -> "
            f"{len(events)} events{partial} (late {health['late_dropped']}, "
            f"dedup {health['deduplicated']}, "
            f"breaker-rejected {health['breaker_rejected']})"
        )
        events.sort(key=lambda e: (-e.score, e.start_ts, e.indices))
        print(present_digest(events, top=args.top))
        if args.quarantine is not None:
            _dump_quarantine(quarantine, args.quarantine)
        _maybe_write_metrics(args.metrics)
        return 0
    if args.log is None:
        print("digest needs --log (or --source feeds)", file=sys.stderr)
        return 1
    system = SyslogDigest(kb, DigestConfig(n_workers=args.workers))
    if args.quarantine is not None:
        with open(args.log, "r", encoding="utf-8") as fh:
            result = system.digest_lines(fh, source=str(args.log))
        _dump_quarantine(result.quarantine, args.quarantine)
    else:
        messages = list(read_log(args.log))
        result = system.digest(messages)
    print(
        f"# {result.n_messages} messages -> {result.n_events} events "
        f"(ratio {result.compression_ratio:.2e})"
    )
    print(result.render(top=args.top))
    _maybe_write_metrics(args.metrics)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Resume a streaming digest from a checkpoint plus log-tail replay.

    The checkpoint records how many messages had been admitted; replay
    skips exactly that many from the (sorted) log and pushes the rest,
    which makes the resumed output identical to an uninterrupted run —
    the property ``tests/test_core_checkpoint.py`` pins.
    """
    from repro.core.checkpoint import checkpoint_info, restore_stream
    from repro.core.present import present_digest
    from repro.syslog.stream import sort_messages

    if args.kb is not None:
        stream = restore_stream(
            args.checkpoint,
            KnowledgeBase.load(args.kb),
            stream_workers=args.stream_workers,
        )
    elif args.store is not None:
        from repro.core.modelstore import KnowledgeStore

        stream = restore_stream(
            args.checkpoint,
            store=KnowledgeStore(args.store),
            stream_workers=args.stream_workers,
        )
        print(
            f"# resumed under store version v{stream.kb_version}",
            file=sys.stderr,
        )
    else:
        print("resume needs --kb or --store", file=sys.stderr)
        return 1
    info = checkpoint_info(args.checkpoint)
    ordered = sort_messages(read_log(args.log))
    tail = ordered[info.n_admitted :]
    print(
        f"# checkpoint {args.checkpoint}: {info.n_admitted} messages "
        f"already digested, {info.n_open} open; replaying "
        f"{len(tail)} of {len(ordered)}",
        file=sys.stderr,
    )
    events, interrupted = _push_interruptible(
        stream, tail, args.checkpoint
    )
    if interrupted:
        print(
            f"# resumed digest interrupted: {len(events)} events so far"
        )
        print(present_digest(events, top=args.top))
        _maybe_write_metrics(args.metrics)
        return 0
    events.extend(stream.close())
    events.sort(key=lambda e: (-e.score, e.start_ts, e.indices))
    print(f"# resumed digest: {len(events)} newly finalized events")
    print(present_digest(events, top=args.top))
    _maybe_write_metrics(args.metrics)
    return 0


def _cmd_refresh(args: argparse.Namespace) -> int:
    """Refresh the active knowledge over a new period, gated by canary.

    Exit code 0 when the candidate was promoted (or was a zero-drift
    no-op), 2 when the gate rejected it — the old version keeps serving
    either way, so a cron wrapper can alert on 2 without any cleanup.
    """
    from repro.core.modelstore import KnowledgeStore
    from repro.core.promotion import KnowledgeLifecycle

    store = KnowledgeStore(args.store)
    period = list(read_log(args.log))
    canary = (
        list(read_log(args.canary))
        if args.canary is not None
        else list(period)
    )
    configs = None
    if args.configs is not None:
        configs = [
            path.read_text(encoding="utf-8")
            for path in sorted(Path(args.configs).glob("*.cfg"))
        ]
    half_life = None if args.half_life == 0 else args.half_life
    decision, _info = KnowledgeLifecycle(store).refresh_and_promote(
        period,
        canary,
        configs=configs,
        frequency_half_life_days=half_life,
        note=args.note,
    )
    print(decision.summary())
    if not decision.accepted:
        print(
            f"# still serving v{store.active_version()}", file=sys.stderr
        )
        return 2
    print(f"# active version: v{store.active_version()}")
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    """Gate a pre-built candidate kb file against the active version."""
    from repro.core.modelstore import KnowledgeStore
    from repro.core.promotion import KnowledgeLifecycle

    store = KnowledgeStore(args.store)
    candidate = KnowledgeBase.load(args.candidate)
    canary = list(read_log(args.canary))
    decision, _info = KnowledgeLifecycle(store).promote_candidate(
        candidate, canary, note=args.note or f"promoted {args.candidate}"
    )
    print(decision.summary())
    if not decision.accepted:
        print(
            f"# still serving v{store.active_version()}", file=sys.stderr
        )
        return 2
    print(f"# active version: v{store.active_version()}")
    return 0


def _cmd_rollback(args: argparse.Namespace) -> int:
    """Atomically re-activate a previously served version."""
    from repro.core.modelstore import KnowledgeStore

    store = KnowledgeStore(args.store)
    info = store.rollback(to=args.to)
    print(
        f"rolled back to v{info.version} "
        f"({info.fingerprint[:12]}, {info.n_templates} templates, "
        f"{info.n_rules} rules)"
    )
    return 0


def _cmd_kb_log(args: argparse.Namespace) -> int:
    """Print the store's version table and lifecycle journal."""
    import json as _json
    from datetime import datetime, timezone

    from repro.core.modelstore import KnowledgeStore

    store = KnowledgeStore(args.store)
    if args.json:
        print(
            _json.dumps(
                {
                    "active": store.active_version(),
                    "versions": [v.to_dict() for v in store.versions()],
                    "log": store.log(),
                },
                indent=1,
            )
        )
        return 0
    active = store.active_version()
    for info in store.versions():
        marker = "*" if info.version == active else " "
        when = datetime.fromtimestamp(
            info.created_ts, tz=timezone.utc
        ).strftime("%Y-%m-%d %H:%M:%S")
        print(
            f"{marker} v{info.version:<4} {when}  "
            f"{info.n_templates:>4} templates {info.n_rules:>5} rules  "
            f"{info.fingerprint[:12]}  {info.note}"
        )
    for entry in store.log():
        when = datetime.fromtimestamp(
            entry["ts"], tz=timezone.utc
        ).strftime("%Y-%m-%d %H:%M:%S")
        version = entry.get("version")
        detail = ""
        if entry["kind"] == "reject":
            detail = "; ".join(entry.get("reasons", []))
        elif entry["kind"] == "prune":
            detail = f"pruned {entry.get('pruned')}"
        elif entry.get("note"):
            detail = entry["note"]
        target = f"v{version}" if version is not None else "-"
        print(f"  {when}  {entry['kind']:<9} {target:<6} {detail}")
    return 0


def _cmd_sources(args: argparse.Namespace) -> int:
    """Digest multi-source feeds and report per-source ingest health."""
    from repro.utils.textable import render_table

    kb, kb_version = _kb_from_args(args)
    args.source = list(args.log)
    args.log = None
    ingest, events, _quarantine, _interrupted = _run_ingest(
        args, kb, kb_version
    )
    summaries = ingest.source_summaries()
    rows = [list(summary.values()) for summary in summaries]
    headers = list(summaries[0]) if summaries else []
    print(
        render_table(headers, rows, title="per-source ingest health")
    )
    health = ingest.health()
    print(
        f"# {sum(ingest.pushed_counts().values())} arrivals -> "
        f"{len(events)} events; peak buffer {health['peak_buffered']}, "
        f"{health['breaker_transitions']} breaker transitions"
    )
    if args.journal:
        for entry in ingest.journal():
            print(
                f"# {entry['clock']}: {entry['source']} "
                f"{entry['from']} -> {entry['to']} ({entry['reason']})"
            )
    _maybe_write_metrics(args.metrics)
    return 0


def _cmd_requeue(args: argparse.Namespace) -> int:
    """Replay a dumped quarantine JSONL back through the digester.

    Exit 0 when every record requeued cleanly, 2 when any failed again
    (the survivors are re-dumped over the input file unless --keep).
    """
    from repro.core.present import present_digest
    from repro.core.stream import DigestStream
    from repro.syslog.resilient import (
        Quarantine,
        requeue_records,
        rotated_quarantine_paths,
    )

    kb, kb_version = _kb_from_args(args)
    stream = DigestStream(
        kb, DigestConfig(n_workers=args.workers), kb_version=kb_version
    )
    quarantine = Quarantine()
    stream.attach_quarantine(quarantine)
    events, n_ok, n_failed = requeue_records(
        args.quarantine, stream, quarantine
    )
    events.extend(stream.close())
    events.sort(key=lambda e: (-e.score, e.start_ts, e.indices))
    print(
        f"# requeued {n_ok} of {n_ok + n_failed} quarantined inputs "
        f"({n_failed} failed again) -> {len(events)} events"
    )
    print(present_digest(events, top=args.top))
    if not args.keep:
        # Rotated dumps were fully consumed by the replay; survivors
        # (if any) are re-dumped into the base file alone.  Leaving the
        # rotations behind would double-replay them on the next requeue.
        for part in rotated_quarantine_paths(args.quarantine):
            part.unlink()
        if n_failed:
            _dump_quarantine(quarantine, args.quarantine)
    return 0 if n_failed == 0 else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the supervised multi-tenant serve daemon (DESIGN.md §13).

    Blocks until drained (SIGTERM/SIGINT, ``POST /drain``, or — with
    ``--once`` — all sources exhausted); exits 0 after every tenant got
    its final checkpoint and quarantine dump.
    """
    from dataclasses import replace

    from repro.serve import ServeConfig, run_daemon

    try:
        config = ServeConfig.from_file(args.config)
    except ValueError as exc:
        print(f"serve: {args.config}: {exc}", file=sys.stderr)
        return 2
    if args.once:
        config = replace(config, once=True)
    if args.port is not None:
        config = replace(config, port=args.port)
    if args.placement is not None:
        # Override every tenant's placement (bulkhead on/off from the
        # command line; clean runs are fingerprint-identical either way).
        config = replace(
            config,
            tenants=tuple(
                replace(spec, placement=args.placement)
                for spec in config.tenants
            ),
        )
    return run_daemon(config)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.apps.reportgen import daily_report

    kb = KnowledgeBase.load(args.kb)
    system = SyslogDigest(kb, DigestConfig(n_workers=args.workers))
    messages = list(read_log(args.log))
    result = system.digest(messages)
    origin = messages[0].timestamp - (messages[0].timestamp % DAY)
    print(daily_report(result, origin))
    _maybe_write_metrics(args.metrics)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Digest a log and print the pipeline metrics registry."""
    from repro.core.stream import DigestStream
    from repro.obs import get_registry, stage_timer, to_json, to_prom_text
    from repro.syslog.stream import sort_messages

    registry = get_registry()
    registry.reset()
    kb, kb_version = _kb_from_args(args)
    config = DigestConfig(
        n_workers=args.workers,
        stream_workers=args.stream_workers,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=(
            args.checkpoint_interval if args.checkpoint else 0.0
        ),
    )
    quarantine = None
    if args.quarantine is not None:
        from repro.syslog.resilient import Quarantine, resilient_read_log

        quarantine = Quarantine()
        messages = resilient_read_log(args.log, quarantine)
    else:
        messages = list(read_log(args.log))
    if args.stream:
        from repro.syslog.resilient import push_safe

        stream = DigestStream(kb, config, kb_version=kb_version)
        if quarantine is not None:
            stream.attach_quarantine(quarantine)
        from repro.serve.drain import GracefulShutdown

        with stage_timer("sort"):
            ordered = sort_messages(messages)
        interrupted = False
        with stage_timer("stream_push"):
            if quarantine is not None:
                events = []
                with GracefulShutdown() as stop:
                    for message in ordered:
                        if stop:
                            _checkpoint_on_signal(
                                stream, args.checkpoint, stop
                            )
                            interrupted = True
                            break
                        events.extend(
                            push_safe(stream, message, quarantine)
                        )
            else:
                events, interrupted = _push_interruptible(
                    stream, ordered, args.checkpoint
                )
        if not interrupted:
            with stage_timer("stream_close"):
                events.extend(stream.close())
        n_events = len(events)
    else:
        result = SyslogDigest(kb, config).digest(messages)
        n_events = result.n_events
    if quarantine is not None:
        _dump_quarantine(quarantine, args.quarantine)
    print(
        f"# {len(messages)} messages -> {n_events} events",
        file=sys.stderr,
    )
    if args.format == "json":
        print(to_json(registry))
    else:
        print(to_prom_text(registry), end="")
    return 0


def _augmented(kb_path: str, log_path: str):
    from repro.core.syslogplus import Augmenter

    kb = KnowledgeBase.load(kb_path)
    messages = list(read_log(log_path))
    augmenter = Augmenter(kb.templates, kb.dictionary)
    return messages, augmenter.augment_all(messages)


def _cmd_trends(args: argparse.Namespace) -> int:
    from repro.apps.trending import detect_shifts

    messages, stream = _augmented(args.kb, args.log)
    if not messages:
        print("empty log", file=sys.stderr)
        return 1
    origin = messages[0].timestamp - (messages[0].timestamp % DAY)
    n_days = int((messages[-1].timestamp - origin) // DAY) + 1
    shifts = detect_shifts(
        stream, origin, n_days, min_factor=args.min_factor
    )
    if not shifts:
        print("no level shifts detected")
        return 0
    for shift in shifts[: args.top]:
        print(
            f"{shift.router:<18} {shift.template_key:<36} "
            f"day {shift.day:>3} {shift.direction:<4} "
            f"{shift.before_mean:8.2f} -> {shift.after_mean:8.2f} "
            f"({shift.describe_factor()})"
        )
    return 0


def _cmd_rhythms(args: argparse.Namespace) -> int:
    from repro.mining.periodicity import rhythm_report

    _messages, stream = _augmented(args.kb, args.log)
    series: dict[tuple, list[float]] = {}
    for plus in stream:
        key = (plus.router, plus.template_key)
        series.setdefault(key, []).append(plus.timestamp)
    for (router, template), profile in rhythm_report(series, top=args.top):
        period = (
            f"period={profile.period:7.1f}s"
            if profile.period is not None
            else "period=      -"
        )
        print(
            f"{router:<18} {template:<36} {profile.kind.value:<9} "
            f"n={profile.n:<6} {period}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="syslogdigest",
        description="SyslogDigest: mine network events from router syslogs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--dataset", choices=["A", "B", "a", "b"], default="A")
    p.add_argument("--days", type=float, default=14.0)
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--start", default="2009-12-01 00:00:00")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("learn", help="offline domain-knowledge learning")
    p.add_argument("--log", required=True)
    p.add_argument("--configs", required=True)
    p.add_argument("--kb", default=None, help="write the kb to this JSON file")
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="also commit + activate the kb in this versioned model store",
    )
    p.add_argument("--no-fit", action="store_true", help="skip alpha/beta sweep")
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("digest", help="digest a log with a learned kb")
    p.add_argument("--log", default=None)
    p.add_argument("--kb", default=None)
    p.add_argument(
        "--ingest",
        action="store_true",
        help="push through the resilient ingest front-end (watermark "
        "reordering, per-source breakers) instead of the direct path",
    )
    p.add_argument(
        "--source",
        action="append",
        default=None,
        metavar="PATH",
        help="a per-source log feed (repeatable; implies --ingest, "
        "feeds are interleaved by timestamp)",
    )
    p.add_argument(
        "--max-reorder-delay",
        type=float,
        default=60.0,
        help="ingest reorder window in seconds (default 60)",
    )
    p.add_argument(
        "--dedup-window",
        type=float,
        default=0.0,
        help="suppress content-identical arrivals within this many "
        "seconds (default 0 = off)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve the active version of this model store instead of --kb",
    )
    p.add_argument("--top", type=int, default=20)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard grouping by router over N processes (0 = all cores)",
    )
    p.add_argument(
        "--stream-workers",
        choices=["serial", "threads", "processes"],
        default="serial",
        help="streaming executor lane for the sharded steps (with "
        "--ingest/--source): 'processes' keeps one persistent worker "
        "process per shard; all lanes group identically",
    )
    p.add_argument(
        "--metrics",
        default=None,
        help="dump pipeline metrics to this path (*.json = JSON, "
        "else Prometheus text)",
    )
    p.add_argument(
        "--quarantine",
        default=None,
        metavar="PATH",
        help="quarantine unparseable lines to this JSONL file instead "
        "of aborting on the first bad line",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="with --ingest/--source: on SIGTERM/SIGINT, write the "
        "stream state here and exit cleanly instead of dying mid-batch",
    )
    p.set_defaults(fn=_cmd_digest)

    p = sub.add_parser(
        "serve",
        help="run the supervised multi-tenant serve daemon "
        "(HTTP health/events/admin API; SIGTERM drains gracefully)",
    )
    p.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="JSON daemon config (see repro.serve.ServeConfig)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="drain automatically when every tenant's sources are "
        "exhausted (batch mode)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="override the config's HTTP port (0 = ephemeral; the "
        "bound port is written to <workdir>/http.port)",
    )
    p.add_argument(
        "--placement",
        choices=("inline", "process"),
        default=None,
        help="override every tenant's placement: inline (daemon's own "
        "loop) or process (one supervised worker process per tenant)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "resume",
        help="resume a streaming digest from a checkpoint + log tail",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--kb", default=None)
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="reload the exact store version the checkpoint was taken "
        "under instead of passing --kb",
    )
    p.add_argument(
        "--stream-workers",
        choices=["serial", "threads", "processes"],
        default=None,
        help="override the executor lane for the resumed stream "
        "(default: the lane the checkpoint was taken under; the lane "
        "never changes output, so any checkpoint resumes on any lane)",
    )
    p.add_argument("--top", type=int, default=20)
    p.add_argument(
        "--metrics",
        default=None,
        help="dump pipeline metrics to this path (*.json = JSON, "
        "else Prometheus text)",
    )
    p.set_defaults(fn=_cmd_resume)

    p = sub.add_parser("report", help="daily/per-router digest report")
    p.add_argument("--log", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard grouping by router over N processes (0 = all cores)",
    )
    p.add_argument(
        "--metrics",
        default=None,
        help="dump pipeline metrics to this path (*.json = JSON, "
        "else Prometheus text)",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "stats",
        help="digest a log and print pipeline metrics "
        "(stage timings, shard balance, stream health)",
    )
    p.add_argument("--log", required=True)
    p.add_argument("--kb", default=None)
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve the active version of this model store instead of "
        "--kb (checkpoints then record the version for resume --store)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard grouping by router over N processes (0 = all cores)",
    )
    p.add_argument(
        "--stream-workers",
        choices=["serial", "threads", "processes"],
        default="serial",
        help="with --stream: executor lane for the sharded steps "
        "('processes' = one persistent worker process per shard)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="run the streaming digester instead of batch "
        "(adds DigestStream health metrics)",
    )
    p.add_argument(
        "--format", choices=["prom", "json"], default="prom"
    )
    p.add_argument(
        "--quarantine",
        default=None,
        metavar="PATH",
        help="read the log resiliently, quarantining bad lines (and "
        "with --stream, skew-rejected messages) to this JSONL file",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="with --stream: write periodic checkpoints here "
        "(resume later with `syslogdigest resume`)",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=float,
        default=3600.0,
        help="stream-clock seconds between checkpoints (default 3600)",
    )
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "sources",
        help="digest multi-source feeds through the ingest front-end "
        "and report per-source health (breakers, late drops, dedup)",
    )
    p.add_argument(
        "--log",
        action="append",
        required=True,
        metavar="PATH",
        help="a per-source log feed (repeat once per source)",
    )
    p.add_argument("--kb", default=None)
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve the active version of this model store instead of --kb",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the stream's grouping by router over N shards "
        "(0 = all cores)",
    )
    p.add_argument(
        "--max-reorder-delay",
        type=float,
        default=60.0,
        help="ingest reorder window in seconds (default 60)",
    )
    p.add_argument(
        "--dedup-window",
        type=float,
        default=0.0,
        help="suppress content-identical arrivals within this many "
        "seconds (default 0 = off)",
    )
    p.add_argument(
        "--journal",
        action="store_true",
        help="also print every breaker transition",
    )
    p.add_argument(
        "--metrics",
        default=None,
        help="dump pipeline metrics to this path (*.json = JSON, "
        "else Prometheus text)",
    )
    p.set_defaults(fn=_cmd_sources)

    p = sub.add_parser(
        "requeue",
        help="replay a dumped quarantine JSONL through the digester "
        "(exit 0 all requeued, 2 some failed again)",
    )
    p.add_argument(
        "--quarantine",
        required=True,
        metavar="PATH",
        help="quarantine JSONL previously written by "
        "digest/stats --quarantine",
    )
    p.add_argument("--kb", default=None)
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve the active version of this model store instead of --kb",
    )
    p.add_argument("--top", type=int, default=20)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the stream's grouping by router over N shards "
        "(0 = all cores)",
    )
    p.add_argument(
        "--keep",
        action="store_true",
        help="leave the input file untouched even when records fail "
        "again (default: re-dump the survivors over it)",
    )
    p.set_defaults(fn=_cmd_requeue)

    p = sub.add_parser(
        "refresh",
        help="refresh the active kb over a new period, gated by canary "
        "replay (exit 0 promoted, 2 rejected)",
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument("--log", required=True, help="the new period's syslog")
    p.add_argument(
        "--canary",
        default=None,
        help="canary log replayed through both versions (default: the "
        "period log itself)",
    )
    p.add_argument(
        "--configs",
        default=None,
        metavar="DIR",
        help="re-parse router configs from this directory",
    )
    p.add_argument(
        "--half-life",
        type=float,
        default=56.0,
        help="frequency decay half life in days (0 disables decay)",
    )
    p.add_argument("--note", default="", help="journal note for this refresh")
    p.set_defaults(fn=_cmd_refresh)

    p = sub.add_parser(
        "promote",
        help="gate a pre-built candidate kb file against the active "
        "version (exit 0 promoted, 2 rejected)",
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument("--candidate", required=True, help="candidate kb JSON")
    p.add_argument("--canary", required=True, help="canary log to replay")
    p.add_argument("--note", default="", help="journal note")
    p.set_defaults(fn=_cmd_promote)

    p = sub.add_parser(
        "rollback", help="re-activate a previously served kb version"
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument(
        "--to",
        type=int,
        default=None,
        help="target version (default: the previously active one)",
    )
    p.set_defaults(fn=_cmd_rollback)

    p = sub.add_parser(
        "kb-log", help="show a model store's versions and lifecycle journal"
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument("--json", action="store_true", help="machine-readable dump")
    p.set_defaults(fn=_cmd_kb_log)

    p = sub.add_parser(
        "trends", help="MERCURY-style template frequency level shifts"
    )
    p.add_argument("--log", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--min-factor", type=float, default=3.0)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(fn=_cmd_trends)

    p = sub.add_parser(
        "rhythms", help="temporal rhythm profile per (router, template)"
    )
    p.add_argument("--log", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(fn=_cmd_rhythms)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
