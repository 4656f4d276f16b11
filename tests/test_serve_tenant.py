"""TenantRuntime: spec validation, health payloads, resume identity.

The serve daemon's per-tenant operations, tested synchronously.  The
heavyweight cross-process kill -9 gate lives in test_serve_smoke.py;
here the same checkpoint + journal-truncate + tail-replay protocol is
pinned in-process, along with the operator-facing health contract:
every HEALTH_KEYS / INGEST_HEALTH_KEYS key present, documented, and
JSON-serializable exactly as the HTTP API ships it.
"""

from __future__ import annotations

import functools
import json
import math
import os
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.cli import main as cli_main
from repro.core.checkpoint import read_checkpoint
from repro.core.config import DigestConfig, IngestConfig
from repro.core.pipeline import SyslogDigest
from repro.core.stream import HEALTH_KEYS
from repro.netsim.chaos import tenant_fingerprint
from repro.netsim.scale import ScaleGenerator, ScaleSpec
from repro.serve.daemon import ServeConfig
from repro.serve.journal import EventJournal
from repro.serve.placement import TenantLife
from repro.serve.tenant import (
    CHECKPOINT_OPEN_RATIO,
    TenantRuntime,
    TenantSpec,
)
from repro.syslog.ingest import INGEST_HEALTH_KEYS
from repro.syslog.parse import format_line
from repro.syslog.stream import write_log

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def kb_file(system_a, tmp_path_factory):
    path = tmp_path_factory.mktemp("kb") / "kb.json"
    system_a.kb.save(path)
    return str(path)


@pytest.fixture(scope="module")
def source_logs(live_a, tmp_path_factory):
    """The live window split across two collector feeds, on disk."""
    root = tmp_path_factory.mktemp("sources")
    messages = [m.message for m in live_a.messages][:600]
    write_log(root / "s1.log", [m for i, m in enumerate(messages) if i % 2 == 0])
    write_log(root / "s2.log", [m for i, m in enumerate(messages) if i % 2 == 1])
    return (str(root / "s1.log"), str(root / "s2.log"))


#: Lines in the dense backlog: minutes of a million-a-day backbone, far
#: inside ``DigestConfig.idle_flush``, so no event finalizes before drain.
BACKLOG_LINES = 5000


@pytest.fixture(scope="module")
def backlog(tmp_path_factory):
    """``(kb_path, log_path)``: a dense backbone backlog on disk."""
    root = tmp_path_factory.mktemp("backlog")
    gen = ScaleGenerator(ScaleSpec())
    SyslogDigest.learn(
        gen.learning_messages(5000),
        gen.configs(),
        DigestConfig(window=120.0),
        fit_temporal=False,
    ).kb.save(root / "kb.json")
    lines = [format_line(m) for m in islice(gen.stream(), BACKLOG_LINES)]
    (root / "s.log").write_text("".join(line + "\n" for line in lines))
    return str(root / "kb.json"), str(root / "s.log")


def _backlog_spec(backlog, workdir):
    kb_path, log = backlog
    return TenantSpec(
        name="t1", sources=(log,), workdir=str(workdir), kb_path=kb_path
    )


def _record_cuts(runtime: TenantRuntime) -> list[tuple[int, int]]:
    """Wrap ``runtime.checkpoint``; the returned list fills with the
    ``(arrival index, in-flight messages)`` of every cut."""
    cuts = []
    cut = runtime.checkpoint

    def recorded():
        cuts.append((runtime._arrivals_life, runtime.ingest.n_inflight))
        cut()

    runtime.checkpoint = recorded
    return cuts


def _spec(sources, workdir, kb_file, **overrides):
    kwargs = dict(
        name="t1",
        sources=sources,
        workdir=str(workdir),
        kb_path=kb_file,
        checkpoint_every=50,
    )
    kwargs.update(overrides)
    return TenantSpec(**kwargs)


class TestTenantSpec:
    def test_exactly_one_knowledge_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            TenantSpec(name="t", sources=("s",), workdir=str(tmp_path))
        with pytest.raises(ValueError, match="exactly one"):
            TenantSpec(
                name="t",
                sources=("s",),
                workdir=str(tmp_path),
                kb_path="kb",
                store_dir="store",
            )

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="name"):
            TenantSpec(
                name="a/b", sources=("s",), workdir=str(tmp_path), kb_path="kb"
            )
        with pytest.raises(ValueError, match="source"):
            TenantSpec(
                name="t", sources=(), workdir=str(tmp_path), kb_path="kb"
            )
        with pytest.raises(ValueError, match="checkpoint_every"):
            TenantSpec(
                name="t",
                sources=("s",),
                workdir=str(tmp_path),
                kb_path="kb",
                checkpoint_every=0,
            )

    def test_dict_round_trip(self, tmp_path):
        spec = TenantSpec(
            name="t", sources=("a", "b"), workdir=str(tmp_path), kb_path="kb"
        )
        data = spec.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert TenantSpec.from_dict(data) == spec

    def test_reorder_delay_default_is_the_ingest_default(self, tmp_path):
        spec = TenantSpec(
            name="t", sources=("s",), workdir=str(tmp_path), kb_path="kb"
        )
        assert spec.max_reorder_delay == IngestConfig().max_reorder_delay > 0


class TestConfigErrors:
    """A stray key in a serve config is a ``ValueError`` naming the key
    (and the tenant), never a constructor ``TypeError``."""

    TENANT = {"name": "net-a", "sources": ["s"], "workdir": "w", "kb_path": "k"}

    def test_unknown_tenant_key_names_key_and_tenant(self):
        for key in ("tail", "chekpoint_every"):
            with pytest.raises(ValueError, match=f"'net-a'.*'{key}'"):
                TenantSpec.from_dict({**self.TENANT, key: False})

    def test_unknown_budget_key(self):
        with pytest.raises(ValueError, match="'net-a' budget.*'max_cpu'"):
            TenantSpec.from_dict({**self.TENANT, "budget": {"max_cpu": 1}})

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"pol_interval": 1.0}, "serve config: .*'pol_interval'"),
            ({"supervisor": {"retries": 3}}, "supervisor block.*'retries'"),
            ({"http": {"deadline": 1.0}}, "http block.*'deadline'"),
            ({"tenants": [{**TENANT, "tail": True}]}, "'net-a'.*'tail'"),
        ],
    )
    def test_unknown_serve_config_keys(self, extra, named):
        config = {"tenants": [self.TENANT], **extra}
        with pytest.raises(ValueError, match=named):
            ServeConfig.from_dict(config)

    def test_known_blocks_still_load(self):
        config = ServeConfig.from_dict(
            {
                "tenants": [{**self.TENANT, "budget": {"rpc_deadline": 2.0}}],
                "supervisor": {"max_restarts": 7},
                "http": {"read_deadline": 3.0},
            }
        )
        assert config.max_restarts == 7
        assert config.http_read_deadline == 3.0
        assert config.tenants[0].budget.rpc_deadline == 2.0

    def test_cli_reports_one_line_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        path.write_text(
            json.dumps({"tenants": [{**self.TENANT, "tail": False}]})
        )
        assert cli_main(["serve", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "'net-a'" in line and "'tail'" in line

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"stream_workers": "processes"}, "stream_workers"),
            ({"n_workers": 2}, "n_workers"),
            ({"budget": {"max_stream_procs": 2}}, "max_stream_procs"),
        ],
    )
    def test_retired_lane_keys_are_unknown_keys(
        self, extra, key, tmp_path, capsys
    ):
        """A tenant no longer chooses a stream lane: a config still
        naming one is refused like any other stray key."""
        path = tmp_path / "serve.json"
        path.write_text(json.dumps({"tenants": [{**self.TENANT, **extra}]}))
        assert cli_main(["serve", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"serve: {path}: ") and f"'{key}'" in line

    def test_hang_poison_on_an_inline_tenant_is_refused(
        self, tmp_path, capsys
    ):
        """A hang sleeps on the daemon's own loop when it arms an inline
        tenant — HTTP, signals and drain would all stop — so the config
        is refused; on a process tenant it stays a chaos scenario."""
        hang = {"tenant": None, "at": 0, "mode": "hang"}
        process = {**self.TENANT, "name": "net-b", "placement": "process"}
        with pytest.raises(ValueError, match="hang.*inline tenant 'net-a'"):
            ServeConfig.from_dict(
                {"tenants": [self.TENANT, process],
                 "faults": {"tenant.arrival": hang}}
            )
        ServeConfig.from_dict(
            {"tenants": [self.TENANT, process],
             "faults": {"tenant.arrival": {**hang, "tenant": "net-b"}}}
        )
        path = tmp_path / "serve.json"
        path.write_text(
            json.dumps(
                {"tenants": [process], "faults": {"tenant.arrival": hang}}
            )
        )
        argv = ["serve", "--config", str(path), "--placement", "inline"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert "inline tenant 'net-b'" in line


class TestHealthContract:
    """health() is the HTTP API payload: complete, documented, JSON-safe."""

    @pytest.fixture(scope="class")
    def health(self, source_logs, kb_file, tmp_path_factory):
        runtime = TenantRuntime(
            _spec(source_logs, tmp_path_factory.mktemp("health"), kb_file)
        )
        runtime.start()
        runtime.process_batch(limit=200)
        payload = runtime.health()
        runtime.drain()
        return payload

    def test_stream_keys_are_exactly_health_keys(self, health):
        assert set(health["stream"]) == set(HEALTH_KEYS)

    def test_ingest_keys_are_exactly_ingest_health_keys(self, health):
        assert set(health["ingest"]) == set(INGEST_HEALTH_KEYS)

    def test_every_key_is_documented(self):
        for keys in (HEALTH_KEYS, INGEST_HEALTH_KEYS):
            for key, doc in keys.items():
                assert isinstance(doc, str) and doc, key

    def test_one_stat_per_source_per_read(
        self, source_logs, kb_file, tmp_path, monkeypatch
    ):
        """``health()`` reads the tail status once: the ingest section
        and the ``sources`` rows share it."""
        runtime = TenantRuntime(_spec(source_logs, tmp_path, kb_file))
        runtime.start()
        runtime.process_batch(limit=100)
        stats = []
        real_stat = os.stat

        def counted(path, *args, **kwargs):
            stats.append(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counted)
        runtime.health()
        monkeypatch.undo()
        runtime.halt()
        for source in source_logs:
            assert stats.count(source) == 1

    def test_payload_json_round_trips(self, health):
        assert json.loads(json.dumps(health, sort_keys=True)) == json.loads(
            json.dumps(health, sort_keys=True)
        )
        restored = json.loads(json.dumps(health))
        assert restored["tenant"] == "t1"
        assert restored["pending_arrivals"] >= 0
        assert isinstance(restored["sources"], list)


class TestResumeIdentity:
    """Checkpoint + truncate + tail replay == uninterrupted, in-process."""

    def test_halt_resume_is_byte_identical(
        self, source_logs, kb_file, tmp_path
    ):
        spec_ref = _spec(source_logs, tmp_path / "ref", kb_file)
        ref = TenantRuntime(spec_ref)
        ref.start()
        while ref.pending:
            ref.process_batch()
        ref.drain()
        ref_events = EventJournal(tmp_path / "ref" / "events.bin").read_all()

        spec = _spec(source_logs, tmp_path / "t1", kb_file)
        first = TenantRuntime(spec)
        first.start()
        pushed = 0
        while pushed < 170:  # lands mid-stream, past 3 checkpoints
            pushed += first.process_batch(limit=min(64, 170 - pushed))
        first.halt()  # supervisor-style teardown: no drain, no flush

        second = TenantRuntime(spec)
        second.start()
        assert second.resumed
        # The journal was cut back to what the checkpoint accounts for.
        finalized = int(second.stream.health()["finalized_events"])
        assert len(second.events) == finalized
        while second.pending:
            second.process_batch()
        second.drain()
        got = EventJournal(tmp_path / "t1" / "events.bin").read_all()
        assert hotpath.stream_fingerprint(got) == hotpath.stream_fingerprint(
            ref_events
        )

    def test_checkpoint_with_two_workers_resumes_under_its_config(
        self, source_logs, kb_file, tmp_path, monkeypatch
    ):
        """A tenant checkpoint whose stream ran ``n_workers=2`` (what a
        spec could ask for before tenants stopped choosing) restores
        under the config it recorded and finishes byte-identically."""
        ref = TenantRuntime(_spec(source_logs, tmp_path / "ref", kb_file))
        ref.start()
        while ref.pending:
            ref.process_batch()
        ref.drain()
        ref_events = EventJournal(tmp_path / "ref" / "events.bin").read_all()

        spec = _spec(source_logs, tmp_path / "t1", kb_file)
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.serve.tenant.DigestConfig",
                functools.partial(DigestConfig, n_workers=2),
            )
            first = TenantRuntime(spec)
            first.start()
            pushed = 0
            while pushed < 170:
                pushed += first.process_batch(limit=min(64, 170 - pushed))
            first.halt()
        assert read_checkpoint(first.checkpoint_path)["config"].n_workers == 2

        second = TenantRuntime(spec)
        second.start()
        assert second.resumed
        snapshot = second.stream.snapshot()
        assert snapshot["config"].n_workers == 2
        assert len(snapshot["shards"]) == 2
        while second.pending:
            second.process_batch()
        second.drain()
        got = EventJournal(tmp_path / "t1" / "events.bin").read_all()
        assert hotpath.stream_fingerprint(got) == hotpath.stream_fingerprint(
            ref_events
        )

    def test_fresh_start_without_checkpoint(
        self, source_logs, kb_file, tmp_path
    ):
        runtime = TenantRuntime(_spec(source_logs, tmp_path, kb_file))
        runtime.start()
        assert not runtime.resumed
        assert runtime.pending > 0
        runtime.drain()


class TestCheckpointCadence:
    """A cut re-pickles all open state, so cuts come once the arrivals
    since the last one reach half the in-flight messages: O(log n) cuts
    for a backlog, never closer than ``checkpoint_every``."""

    def _backlog_schedule(self, backlog, workdir):
        runtime = TenantRuntime(_backlog_spec(backlog, workdir))
        runtime.start()
        cuts = _record_cuts(runtime)
        while runtime.pending:
            runtime.process_batch()
        assert runtime.stream.health()["finalized_events"] == 0
        runtime.halt()
        return [arrival for arrival, _inflight in cuts]

    def test_backlog_cuts_double(self, backlog, tmp_path):
        schedule = self._backlog_schedule(backlog, tmp_path / "a")
        floor = TenantSpec.checkpoint_every
        assert schedule == [floor * 2**k for k in range(len(schedule))]
        assert schedule[-1] * 2 > BACKLOG_LINES
        assert len(schedule) <= math.ceil(
            math.log2(BACKLOG_LINES / floor)
        ) + 2
        # Count form, not a timer: a second run cuts at the same arrivals.
        assert self._backlog_schedule(backlog, tmp_path / "b") == schedule

    def test_sparse_feed_never_cuts_below_the_floor(
        self, source_logs, kb_file, tmp_path
    ):
        spec = _spec(source_logs, tmp_path, kb_file)
        runtime = TenantRuntime(spec)
        runtime.start()
        cuts = _record_cuts(runtime)
        while runtime.pending:
            runtime.process_batch()
        assert runtime.stream.health()["finalized_events"] > 0
        runtime.halt()
        assert len(cuts) > 2
        for (prev, _), (now, inflight) in zip(cuts, cuts[1:]):
            assert now - prev >= max(
                spec.checkpoint_every, inflight * CHECKPOINT_OPEN_RATIO
            )

    @pytest.fixture(scope="class")
    def uninterrupted(self, backlog, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("uninterrupted")
        runtime = TenantRuntime(_backlog_spec(backlog, workdir))
        runtime.start()
        while runtime.pending:
            runtime.process_batch()
        runtime.drain()
        runtime.events.close()
        return tenant_fingerprint(workdir)

    @settings(max_examples=4, deadline=None)
    @given(halt_at=st.integers(1, BACKLOG_LINES - 1))
    def test_restart_at_any_arrival_is_exact(
        self, backlog, uninterrupted, tmp_path_factory, halt_at
    ):
        """Halt anywhere, restart on the same workdir, run to drain: the
        journal serves what an uninterrupted run serves, and the replay
        is the arrivals since the last cut, under the cadence bound."""
        spec = _backlog_spec(backlog, tmp_path_factory.mktemp("halt"))
        first = TenantRuntime(spec)
        first.start()
        first.process_batch(limit=halt_at)
        bound = max(spec.checkpoint_every, first.ingest.n_inflight / 2)
        unreflected = first._since_checkpoint
        first.halt()
        first.events.close()

        second = TenantRuntime(spec)
        second.start()
        replayed = second.pending - (BACKLOG_LINES - halt_at)
        assert replayed == unreflected < bound
        while second.pending:
            second.process_batch()
        second.drain()
        second.events.close()
        assert tenant_fingerprint(spec.workdir) == uninterrupted


class TestCheckpointFallback:
    def test_corrupt_newest_restores_prev_and_journals_it(
        self, source_logs, kb_file, tmp_path
    ):
        spec_ref = _spec(source_logs, tmp_path / "ref", kb_file)
        ref = TenantRuntime(spec_ref)
        ref.start()
        while ref.pending:
            ref.process_batch()
        ref.drain()
        ref_events = EventJournal(tmp_path / "ref" / "events.bin").read_all()

        spec = _spec(source_logs, tmp_path / "t1", kb_file)
        first = TenantRuntime(spec)
        first.start()
        pushed = 0
        while pushed < 170:  # far enough for >= 2 checkpoint rewrites
            pushed += first.process_batch(limit=min(64, 170 - pushed))
        first.halt()
        prev = first.checkpoint_path.with_name(
            first.checkpoint_path.name + ".prev"
        )
        assert prev.exists()
        # The newest generation dies on disk while the tenant is down.
        first.checkpoint_path.write_bytes(b"\x00bad sector")

        second = TenantRuntime(spec)
        second.start()
        assert second.resumed  # one generation back, not from scratch
        entries = [
            json.loads(line)
            for line in second.supervisor_path.read_text().splitlines()
            if line.strip()
        ]
        fallbacks = [
            e for e in entries if e.get("kind") == "checkpoint-fallback"
        ]
        assert fallbacks and fallbacks[-1]["error"]  # loud, with a cause
        assert fallbacks[-1]["used"] == str(prev)
        while second.pending:
            second.process_batch()
        second.drain()
        got = EventJournal(tmp_path / "t1" / "events.bin").read_all()
        assert hotpath.stream_fingerprint(got) == hotpath.stream_fingerprint(
            ref_events
        )


class TestDurableDegrade:
    def test_failed_checkpoint_degrades_then_recovers(
        self, source_logs, kb_file, tmp_path
    ):
        import errno

        from repro.utils import inject

        # Cadence high enough that no automatic checkpoint fires: the
        # explicit calls below are the only writes.
        spec = _spec(
            source_logs, tmp_path, kb_file, checkpoint_every=10_000
        )
        runtime = TenantRuntime(spec)
        runtime.start()
        runtime.process_batch(limit=60)

        class Full:
            def __call__(self, op, p):
                if op == "write" and "checkpoint.ckpt" in p:
                    raise OSError(errno.ENOSPC, "injected", p)

        with inject.arm({inject.DURABLE: Full()}):
            runtime.checkpoint()  # degrades instead of raising
        assert runtime.durable_degraded
        assert runtime.health()["durable_degraded"]
        assert not runtime.checkpoint_path.exists()
        # Disk back: the next checkpoint succeeds and journals recovery.
        runtime.process_batch(limit=10)
        runtime.checkpoint()
        assert not runtime.durable_degraded
        assert runtime.checkpoint_path.exists()
        kinds = [
            json.loads(line).get("kind")
            for line in runtime.supervisor_path.read_text().splitlines()
            if line.strip()
        ]
        assert "durable-write-failed" in kinds
        assert "durable-write-recovered" in kinds
        runtime.halt()


class TestDegradedMode:
    def test_degraded_start_bounds_open_messages(
        self, source_logs, kb_file, tmp_path
    ):
        spec = _spec(
            source_logs, tmp_path, kb_file, degraded_max_open=10
        )
        runtime = TenantRuntime(spec)
        runtime.start(degraded=True)
        assert runtime.degraded
        while runtime.pending:
            runtime.process_batch()
        health = runtime.health()
        assert health["stream"]["open_messages"] <= 10
        # The load actually got shed somewhere: either admission control
        # refused arrivals up front or the stream force-finalized groups
        # (an undegraded run of this feed peaks at hundreds open).
        shed = (
            health["ingest"]["admission_shed"]
            + health["stream"]["shed_events"]
        )
        assert shed > 0
        runtime.drain()

    def test_degraded_restore_from_healthy_checkpoint(
        self, source_logs, kb_file, tmp_path
    ):
        spec = _spec(source_logs, tmp_path, kb_file, degraded_max_open=10)
        first = TenantRuntime(spec)
        first.start()
        first.process_batch(limit=100)
        first.checkpoint()
        first.halt()
        # A crash-looping tenant restarts in shed mode from the same
        # (healthy-mode) checkpoint.
        second = TenantRuntime(spec)
        second.start(degraded=True)
        assert second.resumed and second.degraded
        while second.pending:
            second.process_batch()
        health = second.health()
        assert health["stream"]["open_messages"] <= 10
        assert (
            health["ingest"]["admission_shed"]
            + health["stream"]["shed_events"]
        ) > 0
        second.drain()


class TestOneShotEnd:
    """``once`` knows no more bytes are coming; a live life does not."""

    @pytest.mark.parametrize("once, want", [(True, 65), (False, 64)])
    def test_newline_less_last_line(
        self, live_a, kb_file, tmp_path, once, want
    ):
        """A 65-line source without a final newline: the one-shot life
        pushes all 65 arrivals, as ``digest --source`` does; a live life
        keeps carrying the last line until its newline arrives."""
        log = tmp_path / "s.log"
        write_log(log, [m.message for m in live_a.messages][:65])
        log.write_bytes(log.read_bytes().rstrip(b"\n"))
        spec = _spec((str(log),), tmp_path / "work", kb_file)
        notes = []
        life = TenantLife(
            {"spec": spec.to_dict(), "degraded": False, "once": once,
             "poll_interval": 0.0},
            notes.append,
            pid=None,
        )
        life.boot()
        while life.step():
            pass
        assert sum(n.get("n", 0) for n in notes) == want
        assert ({"id": 0, "kind": "exhausted"} in notes) == once
        life.runtime.halt()
        life.runtime.events.close()
