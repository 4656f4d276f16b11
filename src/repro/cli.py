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
prints the registry itself.  A streaming run publishes its final
tenant health (stream, ingest, per-source and budget sections) into
the registry once, just before it is written (the same series a serve
tenant's ``/metrics`` carries, without the ``tenant`` label).

Fault tolerance (DESIGN.md §8): every subcommand reads a log one way —
bad bytes decode with replacement, unparseable lines are quarantined,
messages come back time-sorted, and a missing path is one
``<command>: <error>`` line and exit 2.  ``digest``/``stats`` take
``--quarantine <path>`` to dump the quarantine as JSONL.

Streaming runs (``digest --ingest``/``--source``, ``sources``,
``stats --stream``) drive a one-tenant serve runtime to the end of its
feeds (DESIGN.md §13) — watermark reordering, per-source circuit
breakers, optional ``--dedup-window`` — so they admit in arrival order
and drop a line later than the reorder delay.  ``digest``/``stats`` take
``--workdir <dir>`` to keep its tail cursors, event journal and
checkpoint: SIGTERM/SIGINT checkpoints and stops, and rerunning on the
same workdir resumes and prints the whole run's digest.  ``sources``
prints the per-source health table, and ``requeue`` replays a dumped
quarantine JSONL back through the digester::

    syslogdigest digest --kb work/kb.json --source feedA.log \
        --source feedB.log --max-reorder-delay 60 --workdir work/run
    syslogdigest sources --kb work/kb.json --log feedA.log --log feedB.log
    syslogdigest requeue --kb work/kb.json --quarantine work/bad.jsonl

Knowledge lifecycle (DESIGN.md §9): ``learn``/``digest``/``stats``
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
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.core.checkpoint import CheckpointFormatError
from repro.core.config import DigestConfig
from repro.core.knowledge import KnowledgeBase, KnowledgeFormatError
from repro.core.pipeline import SyslogDigest
from repro.netsim.datasets import dataset_a, dataset_b, generate_dataset
from repro.syslog.stream import log_lines, read_log, write_log
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
    messages = read_log(args.log)
    if not messages:
        print("empty log", file=sys.stderr)
        return 1
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


def _maybe_write_metrics(
    path: str | None, health: dict | None = None
) -> None:
    """Write the registry to ``path``, publishing ``health`` into it
    first (a :meth:`TenantRuntime.health` dict; ``None`` for batch
    runs)."""
    if path is None:
        return
    from repro.obs import get_registry, write_metrics
    from repro.serve.tenant import publish_tenant_health

    registry = get_registry()
    if health is not None:
        publish_tenant_health(registry, health)
    write_metrics(path, registry)
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
    carries its version so a stream can record it.
    """
    if args.kb is not None:
        return KnowledgeBase.load(args.kb), None
    if args.store is not None:
        from repro.core.modelstore import KnowledgeStore

        kb, info = KnowledgeStore(args.store).load_active()
        print(
            f"# serving store version v{info.version} "
            f"({info.fingerprint[:12]})",
            file=sys.stderr,
        )
        return kb, info.version
    raise SystemExit("need --kb or --store")


def _run_tenant(args: argparse.Namespace, sources: list[str], report) -> int:
    """Digest ``sources`` to their end as a one-tenant runtime.

    The run is the life ``serve --once`` gives a tenant, stepped here
    until it notes ``exhausted``, then drained; ``report`` gets the
    drained :class:`~repro.serve.tenant.TenantRuntime` and returns the
    exit code.  ``--workdir`` keeps the tail cursors, event journal and
    checkpoint, so rerunning on it resumes (and prints the whole run's
    digest), and SIGTERM/SIGINT cuts a checkpoint between steps and
    stops.  Without one the run lives in a temporary directory and cuts
    no checkpoint before the drain: a cut that is deleted at exit buys
    nothing.
    """
    from repro.obs import stage_timer
    from repro.serve.drain import GracefulShutdown
    from repro.serve.placement import TenantLife
    from repro.serve.tenant import TenantSpec

    for source in sources:
        os.stat(source)  # a feed that is not there is exit 2, not 0 events
    if args.kb is None and args.store is None:
        raise SystemExit("need --kb or --store")
    with ExitStack() as stack:
        workdir = args.workdir or stack.enter_context(TemporaryDirectory())
        spec = TenantSpec(
            name=args.command,
            sources=tuple(sources),
            workdir=str(workdir),
            kb_path=args.kb,
            store_dir=args.store,
            checkpoint_every=(
                TenantSpec.checkpoint_every if args.workdir else 10**9
            ),
            **{
                knob: getattr(args, knob)
                for knob in ("max_reorder_delay", "dedup_window")
                if hasattr(args, knob)
            },
        )
        notes: list[str] = []
        life = TenantLife(
            {"spec": spec.to_dict(), "once": True, "poll_interval": 0.0},
            lambda note: notes.append(note["kind"]),
            pid=None,
        )
        runtime = life.runtime
        stack.callback(runtime.close)
        stop = stack.enter_context(GracefulShutdown())
        with stage_timer("stream_push"):
            life.boot()
            if args.store is not None:
                print(
                    f"# serving store version v{runtime.stream.kb_version}",
                    file=sys.stderr,
                )
            while "exhausted" not in notes[-1:]:
                if stop:
                    return _stop_on_signal(runtime, args.workdir, stop)
                life.step()
        with stage_timer("stream_close"):
            runtime.drain()
        return report(runtime)


def _stop_on_signal(runtime, workdir, stop) -> int:
    """SIGTERM/SIGINT between steps: cut a checkpoint into ``workdir``
    (when there is one to keep) and stop cleanly."""
    if workdir is None:
        print(
            f"# {stop.signal_name}: stopped; no --workdir, so the run's "
            "state is discarded",
            file=sys.stderr,
        )
        return 0
    runtime.checkpoint()
    print(
        f"# {stop.signal_name}: checkpointed to {workdir}; rerun with "
        f"--workdir {workdir} to resume",
        file=sys.stderr,
    )
    return 0


def _print_ingest_digest(args: argparse.Namespace, runtime) -> int:
    """``digest --ingest/--source``: the drained run's whole digest."""
    from repro.core.present import present_digest

    health = runtime.health()
    counts = health["ingest"]
    events = runtime.events.read_all()
    print(
        f"# {sum(runtime.ingest.pushed_counts().values())} arrivals over "
        f"{counts['sources']} sources -> {len(events)} events "
        f"(late {counts['late_dropped']}, dedup {counts['deduplicated']}, "
        f"breaker-rejected {counts['breaker_rejected']})"
    )
    events.sort(key=lambda e: (-e.score, e.start_ts, e.indices))
    print(present_digest(events, top=args.top))
    if args.quarantine is not None:
        _dump_quarantine(runtime.quarantine, args.quarantine)
    _maybe_write_metrics(args.metrics, health)
    return 0


def _cmd_digest(args: argparse.Namespace) -> int:
    if args.ingest or args.source:
        sources = args.source or [args.log]
        if sources == [None]:
            raise SystemExit("need --log or at least one --source")
        return _run_tenant(
            args, sources, lambda runtime: _print_ingest_digest(args, runtime)
        )
    if args.workdir is not None:
        print("digest: --workdir needs --ingest or --source", file=sys.stderr)
        return 2
    if args.log is None:
        print("digest needs --log (or --source feeds)", file=sys.stderr)
        return 1
    kb, _version = _kb_from_args(args)
    system = SyslogDigest(kb, DigestConfig(n_workers=args.workers))
    result = system.digest_lines(log_lines(args.log), source=str(args.log))
    if args.quarantine is not None:
        _dump_quarantine(result.quarantine, args.quarantine)
    print(
        f"# {result.n_messages} messages -> {result.n_events} events "
        f"(ratio {result.compression_ratio:.2e})"
    )
    print(result.render(top=args.top))
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
    period = read_log(args.log)
    canary = read_log(args.canary) if args.canary is not None else period
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
    canary = read_log(args.canary)
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

    def report(runtime) -> int:
        health = runtime.health()
        summaries = health["sources"]
        rows = [list(summary.values()) for summary in summaries]
        headers = list(summaries[0]) if summaries else []
        print(
            render_table(headers, rows, title="per-source ingest health")
        )
        counts = health["ingest"]
        print(
            f"# {sum(runtime.ingest.pushed_counts().values())} arrivals -> "
            f"{len(runtime.events)} events; peak buffer "
            f"{counts['peak_buffered']}, "
            f"{counts['breaker_transitions']} breaker transitions"
        )
        if args.journal:
            for entry in runtime.ingest.journal():
                print(
                    f"# {entry['clock']}: {entry['source']} "
                    f"{entry['from']} -> {entry['to']} ({entry['reason']})"
                )
        _maybe_write_metrics(args.metrics, health)
        return 0

    return _run_tenant(args, list(args.log), report)


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
        if args.once:
            config = replace(config, once=True)
        if args.port is not None:
            config = replace(config, port=args.port)
        if args.placement is not None:
            # Override every tenant's placement (bulkhead on/off from the
            # command line; clean runs are fingerprint-identical either
            # way).  Revalidated: a hang poison must not land inline.
            config = replace(
                config,
                tenants=tuple(
                    replace(spec, placement=args.placement)
                    for spec in config.tenants
                ),
            )
    except ValueError as exc:
        print(f"serve: {args.config}: {exc}", file=sys.stderr)
        return 2
    return run_daemon(config)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.apps.reportgen import daily_report

    messages = read_log(args.log)
    if not messages:
        print("empty log", file=sys.stderr)
        return 1
    kb = KnowledgeBase.load(args.kb)
    system = SyslogDigest(kb, DigestConfig(n_workers=args.workers))
    result = system.digest(messages)
    origin = messages[0].timestamp - (messages[0].timestamp % DAY)
    print(daily_report(result, origin))
    _maybe_write_metrics(args.metrics)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Digest a log and print the pipeline metrics registry."""
    from repro.obs import get_registry, to_json, to_prom_text
    from repro.serve.tenant import publish_tenant_health
    from repro.syslog.resilient import Quarantine

    registry = get_registry()
    registry.reset()

    def report(quarantine, n_messages: int, n_events: int) -> int:
        if args.quarantine is not None:
            _dump_quarantine(quarantine, args.quarantine)
        print(
            f"# {n_messages} messages -> {n_events} events",
            file=sys.stderr,
        )
        if args.format == "json":
            print(to_json(registry))
        else:
            print(to_prom_text(registry), end="")
        return 0

    if args.stream:
        def drained(runtime) -> int:
            publish_tenant_health(registry, runtime.health())
            return report(
                runtime.quarantine, runtime.stream.n_admitted,
                len(runtime.events),
            )

        return _run_tenant(args, [args.log], drained)
    if args.workdir is not None:
        print("stats: --workdir needs --stream", file=sys.stderr)
        return 2
    kb, _version = _kb_from_args(args)
    quarantine = Quarantine()
    messages = read_log(args.log, quarantine)
    result = SyslogDigest(kb, DigestConfig(n_workers=args.workers)).digest(
        messages
    )
    return report(quarantine, len(messages), result.n_events)


def _augmented(kb_path: str, log_path: str):
    from repro.core.syslogplus import Augmenter

    kb = KnowledgeBase.load(kb_path)
    messages = read_log(log_path)
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

    # Flags several subcommands share, each declared (with its help) once
    # here and inherited through ``parents=``.
    knowledge = argparse.ArgumentParser(add_help=False)
    kb_or_store = knowledge.add_mutually_exclusive_group()
    kb_or_store.add_argument("--kb", default=None, help="learned kb JSON file")
    kb_or_store.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve the active version of this model store instead of "
        "--kb (a checkpoint records the version, so a resumed --workdir "
        "run keeps serving it)",
    )
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard grouping by router over N shards (0 = all cores); "
        "the batch path's knob: digest --ingest/--source and "
        "stats --stream run the tenant runtime's default config",
    )
    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument(
        "--metrics",
        default=None,
        help="dump pipeline metrics to this path (*.json = JSON, "
        "else Prometheus text)",
    )
    ingest = argparse.ArgumentParser(add_help=False)
    ingest.add_argument(
        "--max-reorder-delay",
        type=float,
        default=60.0,
        help="ingest reorder window in seconds (default 60)",
    )
    ingest.add_argument(
        "--dedup-window",
        type=float,
        default=0.0,
        help="suppress content-identical arrivals within this many "
        "seconds (default 0 = off)",
    )

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

    p = sub.add_parser(
        "digest",
        help="digest a log with a learned kb",
        parents=[knowledge, workers, metrics, ingest],
    )
    p.add_argument("--log", default=None)
    p.add_argument("--top", type=int, default=20)
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
        "--quarantine",
        default=None,
        metavar="PATH",
        help="quarantine unparseable lines to this JSONL file instead "
        "of aborting on the first bad line",
    )
    p.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="with --ingest/--source: keep the run's tail cursors, "
        "event journal and checkpoint here; rerunning on DIR resumes, "
        "SIGTERM/SIGINT checkpoints and stops",
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
        "report",
        help="daily/per-router digest report",
        parents=[workers, metrics],
    )
    p.add_argument("--log", required=True)
    p.add_argument("--kb", required=True)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "stats",
        help="digest a log and print pipeline metrics "
        "(stage timings, shard balance, stream health)",
        parents=[knowledge, workers],
    )
    p.add_argument("--log", required=True)
    p.add_argument(
        "--stream",
        action="store_true",
        help="run the log through a one-tenant streaming runtime "
        "instead of batch (adds stream, ingest and tenant health "
        "metrics)",
    )
    p.add_argument(
        "--format", choices=["prom", "json"], default="prom"
    )
    p.add_argument(
        "--quarantine",
        default=None,
        metavar="PATH",
        help="read the log resiliently, quarantining bad lines to this "
        "JSONL file",
    )
    p.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="with --stream: keep the run's tail cursors, event "
        "journal and checkpoint here; rerunning on DIR resumes, "
        "SIGTERM/SIGINT checkpoints and stops",
    )
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "sources",
        help="digest multi-source feeds through the ingest front-end "
        "and report per-source health (breakers, late drops, dedup)",
        parents=[knowledge, metrics, ingest],
    )
    p.add_argument(
        "--log",
        action="append",
        required=True,
        metavar="PATH",
        help="a per-source log feed (repeat once per source)",
    )
    p.add_argument(
        "--journal",
        action="store_true",
        help="also print every breaker transition",
    )
    p.set_defaults(fn=_cmd_sources, workdir=None)

    p = sub.add_parser(
        "requeue",
        help="replay a dumped quarantine JSONL through the digester "
        "(exit 0 all requeued, 2 some failed again)",
        parents=[knowledge, workers],
    )
    p.add_argument("--top", type=int, default=20)
    p.add_argument(
        "--quarantine",
        required=True,
        metavar="PATH",
        help="quarantine JSONL previously written by "
        "digest/stats --quarantine",
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
    try:
        return args.fn(args)
    except (
        CheckpointFormatError,
        KnowledgeFormatError,
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
    ) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
