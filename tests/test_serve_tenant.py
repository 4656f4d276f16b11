"""TenantRuntime: spec validation, health payloads, resume identity.

The serve daemon's per-tenant operations, tested synchronously.  The
heavyweight cross-process kill -9 gate lives in test_serve_smoke.py;
here the same checkpoint + journal-truncate + tail-replay protocol is
pinned in-process, along with the operator-facing health contract:
every HEALTH_KEYS / INGEST_HEALTH_KEYS key present, documented, and
JSON-serializable exactly as the HTTP API ships it.
"""

from __future__ import annotations

import json

import pytest

from repro import hotpath
from repro.cli import main as cli_main
from repro.core.config import IngestConfig
from repro.core.stream import HEALTH_KEYS
from repro.serve.daemon import ServeConfig
from repro.serve.journal import EventJournal
from repro.serve.tenant import TenantRuntime, TenantSpec
from repro.syslog.ingest import INGEST_HEALTH_KEYS
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

    def test_fresh_start_without_checkpoint(
        self, source_logs, kb_file, tmp_path
    ):
        runtime = TenantRuntime(_spec(source_logs, tmp_path, kb_file))
        runtime.start()
        assert not runtime.resumed
        assert runtime.pending > 0
        runtime.drain()


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

        from repro.utils import fsio

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

        fsio.install_fault_hook(Full())
        try:
            runtime.checkpoint()  # degrades instead of raising
        finally:
            fsio.clear_fault_hook()
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
