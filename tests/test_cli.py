"""CLI workflow tests: generate -> learn -> digest -> report."""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.utils import inject

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cliwork")
    rc = main(
        [
            "generate",
            "--dataset", "A",
            "--days", "4",
            "--scale", "0.15",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestGenerate:
    def test_outputs_exist(self, workdir):
        assert (workdir / "syslog.log").exists()
        assert list((workdir / "configs").glob("*.cfg"))

    def test_log_lines_parse(self, workdir):
        from repro.syslog.stream import read_log

        messages = list(read_log(workdir / "syslog.log"))
        assert len(messages) > 100


class TestLearnDigestReport:
    def test_learn(self, workdir, capsys):
        rc = main(
            [
                "learn",
                "--log", str(workdir / "syslog.log"),
                "--configs", str(workdir / "configs"),
                "--kb", str(workdir / "kb.json"),
                "--no-fit",
            ]
        )
        assert rc == 0
        assert (workdir / "kb.json").exists()
        out = capsys.readouterr().out
        assert "templates" in out

    def test_digest(self, workdir, capsys):
        if not (workdir / "kb.json").exists():
            self.test_learn(workdir, capsys)
            capsys.readouterr()
        rc = main(
            [
                "digest",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--top", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "score=" in out

    def test_report(self, workdir, capsys):
        if not (workdir / "kb.json").exists():
            self.test_learn(workdir, capsys)
            capsys.readouterr()
        rc = main(
            [
                "report",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
            ]
        )
        assert rc == 0
        assert "per-day digest" in capsys.readouterr().out

    def test_report_empty_log_exits_one(self, workdir, capsys, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        rc = main(
            [
                "report",
                "--log", str(empty),
                "--kb", str(workdir / "kb.json"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "empty log\n"

    def test_digest_metrics_flag(self, workdir, capsys, tmp_path):
        if not (workdir / "kb.json").exists():
            self.test_learn(workdir, capsys)
            capsys.readouterr()
        metrics_path = tmp_path / "metrics.prom"
        rc = main(
            [
                "digest",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--metrics", str(metrics_path),
            ]
        )
        assert rc == 0
        text = metrics_path.read_text()
        assert "# TYPE syslogdigest_stage_seconds histogram" in text
        assert 'stage="rule_pass"' in text

    def test_report_metrics_flag_json(self, workdir, capsys, tmp_path):
        import json

        if not (workdir / "kb.json").exists():
            self.test_learn(workdir, capsys)
            capsys.readouterr()
        metrics_path = tmp_path / "metrics.json"
        rc = main(
            [
                "report",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--metrics", str(metrics_path),
            ]
        )
        assert rc == 0
        doc = json.loads(metrics_path.read_text())
        assert "syslogdigest_stage_seconds" in doc["histograms"]
        assert "syslogdigest_digest_messages_total" in doc["counters"]

    def test_learn_missing_configs_errors(self, workdir, tmp_path):
        rc = main(
            [
                "learn",
                "--log", str(workdir / "syslog.log"),
                "--configs", str(tmp_path),
                "--kb", str(tmp_path / "kb.json"),
                "--no-fit",
            ]
        )
        assert rc == 1


class TestStats:
    @pytest.fixture(autouse=True)
    def _kb(self, workdir, capsys):
        if not (workdir / "kb.json").exists():
            TestLearnDigestReport().test_learn(workdir, capsys)
            capsys.readouterr()

    def test_stats_prom(self, workdir, capsys):
        rc = main(
            [
                "stats",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE syslogdigest_stage_seconds histogram" in out
        assert 'stage="temporal_pass"' in out
        assert "syslogdigest_digest_runs_total 1" in out

    def test_stats_json(self, workdir, capsys):
        import json

        rc = main(
            [
                "stats",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        stages = {
            entry["labels"]["stage"]
            for entry in doc["histograms"]["syslogdigest_stage_seconds"]
        }
        assert {"signature_match", "location_parse", "rule_pass"} <= stages

    def test_stats_stream_mode_reports_health(self, workdir, capsys):
        rc = main(
            [
                "stats",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--stream",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "syslogdigest_stream_open_messages" in out
        assert "syslogdigest_stream_watermark_lag_seconds" in out
        assert 'stage="stream_push"' in out

    def test_stats_workers_reports_shards(self, workdir, capsys):
        rc = main(
            [
                "stats",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--workers", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "syslogdigest_shard_messages" in out
        assert "syslogdigest_shard_imbalance" in out


class TestFaultToleranceCli:
    def _ensure_kb(self, workdir, capsys):
        if not (workdir / "kb.json").exists():
            TestLearnDigestReport().test_learn(workdir, capsys)
            capsys.readouterr()

    def test_digest_quarantine_flag(self, workdir, capsys, tmp_path):
        self._ensure_kb(workdir, capsys)
        dirty = tmp_path / "dirty.log"
        dirty.write_text(
            (workdir / "syslog.log").read_text() + "### garbage ###\n"
        )
        bad = tmp_path / "bad.jsonl"
        rc = main(
            [
                "digest",
                "--log", str(dirty),
                "--kb", str(workdir / "kb.json"),
                "--quarantine", str(bad),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "quarantined 1 inputs" in captured.err
        assert "events" in captured.out
        assert bad.read_text().count("\n") == 1

    def test_stream_checkpoint_then_resume(self, workdir, capsys, tmp_path):
        """``stats --stream --workdir`` checkpoints at the tenant's
        cadence; rerunning on the workdir resumes the finished run and
        reports the same counts."""
        self._ensure_kb(workdir, capsys)
        run = tmp_path / "run"
        argv = [
            "stats",
            "--log", str(workdir / "syslog.log"),
            "--kb", str(workdir / "kb.json"),
            "--stream",
            "--workdir", str(run),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert (run / "checkpoint.ckpt").exists()
        assert "syslogdigest_checkpoint_writes_total" in first.out
        assert "syslogdigest_tenant_resumed 0" in first.out

        assert main(argv) == 0
        again = capsys.readouterr()
        assert again.err == first.err
        assert "syslogdigest_tenant_resumed 1" in again.out

    def test_resume_reads_its_checkpoint_once(
        self, workdir, capsys, tmp_path, monkeypatch
    ):
        """A rerun on a workdir restores from one read of its
        checkpoint, and prints the first run's digest."""
        from repro.core import checkpoint

        self._ensure_kb(workdir, capsys)
        log = tmp_path / "short.log"
        lines = (workdir / "syslog.log").read_bytes().splitlines(True)
        log.write_bytes(b"".join(lines[:400]))
        argv = [
            "digest",
            "--source", str(log),
            "--kb", str(workdir / "kb.json"),
            "--workdir", str(tmp_path / "run"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out

        reads = []
        real = checkpoint.read_checkpoint
        monkeypatch.setattr(
            checkpoint,
            "read_checkpoint",
            lambda path: reads.append(path) or real(path),
        )
        assert main(argv) == 0
        assert len(reads) == 1
        assert capsys.readouterr().out == first


class TestIngestCli:
    @pytest.fixture(scope="class")
    def feeds(self, workdir, tmp_path_factory):
        """The workdir log split round-robin into two source feeds."""
        path = tmp_path_factory.mktemp("feeds")
        lines = (workdir / "syslog.log").read_text().splitlines()
        a, b = path / "feedA.log", path / "feedB.log"
        a.write_text("\n".join(lines[0::2]) + "\n")
        b.write_text("\n".join(lines[1::2]) + "\n")
        return a, b

    def _ensure_kb(self, workdir, capsys):
        if not (workdir / "kb.json").exists():
            TestLearnDigestReport().test_learn(workdir, capsys)
            capsys.readouterr()

    def test_digest_ingest_flag_single_source(self, workdir, capsys):
        self._ensure_kb(workdir, capsys)
        rc = main(
            [
                "digest",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--ingest",
                "--top", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "arrivals over 1 sources" in out
        assert "late 0, dedup 0, breaker-rejected 0" in out
        assert "score=" in out

    def test_digest_multi_source_feeds(self, workdir, feeds, capsys):
        self._ensure_kb(workdir, capsys)
        a, b = feeds
        rc = main(
            [
                "digest",
                "--kb", str(workdir / "kb.json"),
                "--source", str(a),
                "--source", str(b),
                "--top", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "arrivals over 2 sources" in out

    def test_digest_without_log_or_source_errors(self, workdir, capsys):
        self._ensure_kb(workdir, capsys)
        rc = main(["digest", "--kb", str(workdir / "kb.json")])
        assert rc == 1
        assert "--source" in capsys.readouterr().err

    def test_sources_reports_per_source_health(
        self, workdir, feeds, capsys
    ):
        self._ensure_kb(workdir, capsys)
        a, b = feeds
        rc = main(
            [
                "sources",
                "--log", str(a),
                "--log", str(b),
                "--kb", str(workdir / "kb.json"),
                "--journal",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-source ingest health" in out
        assert str(a) in out and str(b) in out
        assert "peak buffer" in out

    def test_requeue_salvageable_record_exits_zero(
        self, workdir, capsys, tmp_path
    ):
        import json

        self._ensure_kb(workdir, capsys)
        good_line = (
            (workdir / "syslog.log").read_text().splitlines()[0]
        )
        dumped = tmp_path / "quarantine.jsonl"
        dumped.write_text(
            json.dumps({"kind": "parse", "line": good_line}) + "\n"
        )
        rc = main(
            [
                "requeue",
                "--quarantine", str(dumped),
                "--kb", str(workdir / "kb.json"),
            ]
        )
        assert rc == 0
        assert "requeued 1 of 1" in capsys.readouterr().out

    def test_requeue_refailing_record_exits_two_and_redumps(
        self, workdir, capsys, tmp_path
    ):
        self._ensure_kb(workdir, capsys)
        dirty = tmp_path / "dirty.log"
        dirty.write_text(
            (workdir / "syslog.log").read_text() + "### garbage ###\n"
        )
        dumped = tmp_path / "quarantine.jsonl"
        rc = main(
            [
                "digest",
                "--log", str(dirty),
                "--kb", str(workdir / "kb.json"),
                "--quarantine", str(dumped),
            ]
        )
        assert rc == 0
        capsys.readouterr()

        rc = main(
            [
                "requeue",
                "--quarantine", str(dumped),
                "--kb", str(workdir / "kb.json"),
            ]
        )
        assert rc == 2
        assert "1 failed again" in capsys.readouterr().out
        # The survivor was re-dumped for the next round.
        assert dumped.read_text().count("\n") == 1


@pytest.mark.lifecycle
class TestKnowledgeLifecycleCli:
    @pytest.fixture(scope="class")
    def lifework(self, workdir, tmp_path_factory):
        """A store + matching kb file learned from the workdir log."""
        path = tmp_path_factory.mktemp("lifecycle")
        rc = main(
            [
                "learn",
                "--log", str(workdir / "syslog.log"),
                "--configs", str(workdir / "configs"),
                "--kb", str(path / "kb.json"),
                "--store", str(path / "kbstore"),
                "--no-fit",
            ]
        )
        assert rc == 0
        return path

    def _active(self, lifework):
        from repro.core.modelstore import KnowledgeStore

        return KnowledgeStore(lifework / "kbstore").active_version()

    def test_learn_commits_and_activates_v1(
        self, lifework, workdir, capsys
    ):
        rc = main(
            ["kb-log", "--store", str(lifework / "kbstore"), "--json"]
        )
        assert rc == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["active"] == 1
        assert len(payload["versions"]) == 1
        assert [e["kind"] for e in payload["log"]] == [
            "commit",
            "activate",
        ]

    def test_digest_serves_store_active_version(
        self, lifework, workdir, capsys
    ):
        rc = main(
            [
                "digest",
                "--log", str(workdir / "syslog.log"),
                "--store", str(lifework / "kbstore"),
                "--top", "3",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "serving store version v1" in captured.err
        assert "events" in captured.out

    def test_promote_identical_candidate_is_zero_drift(
        self, lifework, workdir, capsys
    ):
        rc = main(
            [
                "promote",
                "--store", str(lifework / "kbstore"),
                "--candidate", str(lifework / "kb.json"),
                "--canary", str(workdir / "syslog.log"),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "ACCEPTED (zero drift)" in captured.out
        # Trivial accept never mints a version.
        assert self._active(lifework) == 1

    def test_refresh_exit_code_tracks_the_gate(
        self, lifework, workdir, capsys
    ):
        rc = main(
            [
                "refresh",
                "--store", str(lifework / "kbstore"),
                "--log", str(workdir / "syslog.log"),
                "--note", "cli refresh",
            ]
        )
        captured = capsys.readouterr()
        if rc == 0:
            assert "ACCEPTED" in captured.out
            assert self._active(lifework) == 2
        else:
            # The gate may reject the re-mine; the old version serves.
            assert rc == 2
            assert "REJECTED" in captured.out
            assert "still serving v1" in captured.err
            assert self._active(lifework) == 1

    def test_rollback_reactivates_v1(self, lifework, capsys):
        from repro.core.modelstore import KnowledgeStore

        store = KnowledgeStore(lifework / "kbstore")
        drifted = store.load_active()[0].clone()
        drifted.history_days += 7.0
        store.commit(drifted, note="drifted", activate=True)
        assert store.active_version() > 1

        rc = main(
            [
                "rollback",
                "--store", str(lifework / "kbstore"),
                "--to", "1",
            ]
        )
        assert rc == 0
        assert "rolled back to v1" in capsys.readouterr().out
        assert self._active(lifework) == 1


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("command", ["digest", "trends"])
@pytest.mark.parametrize(
    "kb_bytes",
    [None, b"{bad", b"[]", b"\xff{}"],
    ids=["missing", "corrupt", "not-object", "not-utf8"],
)
def test_unloadable_kb_is_one_line_and_exit_two(command, kb_bytes, tmp_path):
    log = tmp_path / "one.log"
    log.write_text("Jan  1 00:00:00 r1 %LINK-3-UPDOWN: x\n", encoding="utf-8")
    kb = tmp_path / "kb.json"
    if kb_bytes is not None:
        kb.write_bytes(kb_bytes)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", command,
         "--log", str(log), "--kb", str(kb)],
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith(f"{command}: knowledge base {kb} ")
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def kb_path(workdir):
    if not (workdir / "kb.json").exists():
        assert main(
            [
                "learn",
                "--log", str(workdir / "syslog.log"),
                "--configs", str(workdir / "configs"),
                "--kb", str(workdir / "kb.json"),
                "--no-fit",
            ]
        ) == 0
    return workdir / "kb.json"


@pytest.fixture(scope="module")
def messy_logs(workdir, tmp_path_factory):
    """65 generated lines spread over every day of the log, three ways:
    one ``\\xff`` byte in a parseable line's free text, reversed, and a
    path that is not there."""
    path = tmp_path_factory.mktemp("messy")
    lines = (workdir / "syslog.log").read_bytes().splitlines()
    lines = lines[:: len(lines) // 65][:65]
    bad = list(lines)
    bad[10] += b" \xff"
    (path / "bad_byte.log").write_bytes(b"\n".join(bad) + b"\n")
    (path / "unsorted.log").write_bytes(b"\n".join(lines[::-1]) + b"\n")
    (path / "sorted.log").write_bytes(b"\n".join(lines) + b"\n")
    return path


MATRIX = {
    "digest": ["digest"],
    "digest --quarantine": ["digest", "--quarantine", "{tmp}/q.jsonl"],
    "digest --ingest": ["digest", "--ingest"],
    "stats": ["stats"],
    "stats --quarantine": ["stats", "--quarantine", "{tmp}/q.jsonl"],
    "stats --stream": ["stats", "--stream"],
    "sources": ["sources"],
    "report": ["report"],
    "trends": ["trends"],
    "rhythms": ["rhythms"],
    "learn": ["learn", "--configs", "{configs}", "--no-fit"],
}


@pytest.mark.parametrize("log", ["bad_byte", "unsorted", "missing"])
@pytest.mark.parametrize("case", MATRIX)
def test_messy_log_matrix(
    case, log, kb_path, messy_logs, workdir, tmp_path, capsys
):
    """Every log reader survives a bad byte and disorder (exit 0), and a
    missing file is one stderr line and exit 2, never a traceback."""
    command, *extra = MATRIX[case]
    extra = [
        arg.format(tmp=tmp_path, configs=workdir / "configs") for arg in extra
    ]
    kb = tmp_path / "learned.json" if command == "learn" else kb_path
    argv = [command, "--log", str(messy_logs / f"{log}.log"), "--kb", str(kb)]
    rc = main(argv + extra)
    err = capsys.readouterr().err
    if log == "missing":
        assert rc == 2
        assert err.startswith(f"{command}: ") and err.count("\n") == 1
        return
    assert rc == 0
    if case == "stats --quarantine":
        assert "# 65 messages ->" in err


@pytest.mark.parametrize(
    "content",
    [b"not a checkpoint\n", b"", pickle.dumps({"magic": "other"})],
    ids=["text", "empty", "foreign-pickle"],
)
def test_resume_on_a_file_that_is_not_a_checkpoint(
    content, kb_path, messy_logs, tmp_path, capsys
):
    """A workdir whose checkpoint is garbage, truncated or a foreign
    pickle is one typed error on rerun: one stderr line naming the
    file, exit 2, no traceback."""
    run = tmp_path / "run"
    run.mkdir()
    ckpt = run / "checkpoint.ckpt"
    ckpt.write_bytes(content)
    log = str(messy_logs / "sorted.log")
    argv = ["digest", "--source", log, "--workdir", str(run)]
    assert main(argv + ["--kb", str(kb_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"digest: {ckpt} ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["report", "trends", "rhythms"])
def test_line_order_moves_no_output(command, kb_path, messy_logs, capsys):
    """Day origins and series come from time order, not file order."""
    outputs = []
    for log in ("sorted", "unsorted"):
        path = messy_logs / f"{log}.log"
        assert main([command, "--log", str(path), "--kb", str(kb_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_bad_byte_digests_like_the_tail(kb_path, messy_logs, capsys):
    """A file read and the tail decode one bad byte alike, so both
    digest paths print the same event rows."""
    log = str(messy_logs / "bad_byte.log")
    outputs = []
    for how in ("--log", "--source"):
        assert main(["digest", how, log, "--kb", str(kb_path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.startswith("# 65 ")
        outputs.append(rows)
    assert outputs[0] == outputs[1]


def test_newline_less_last_line_is_an_arrival(
    kb_path, messy_logs, tmp_path, capsys
):
    log = tmp_path / "no_newline.log"
    log.write_bytes((messy_logs / "unsorted.log").read_bytes().rstrip(b"\n"))
    for how in ("--log", "--source"):
        assert main(["digest", how, str(log), "--kb", str(kb_path)]) == 0
        assert capsys.readouterr().out.startswith("# 65 ")


def test_requeue_counts_an_undecodable_record_as_failed(
    kb_path, workdir, tmp_path, capsys
):
    import json

    good = (workdir / "syslog.log").read_text().splitlines()[0]
    dumped = tmp_path / "quarantine.jsonl"
    dumped.write_bytes(
        json.dumps({"line": good}).encode() + b"\n{\xff\xfe}\n"
    )
    rc = main(
        ["requeue", "--quarantine", str(dumped), "--kb", str(kb_path)]
    )
    assert rc == 2
    assert "requeued 1 of 2 quarantined inputs (1 failed again)" in (
        capsys.readouterr().out
    )


def test_kb_and_store_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["digest", "--kb", "a", "--store", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["digest", "stats"])
def test_workdir_needs_a_streaming_run(
    command, kb_path, messy_logs, tmp_path, capsys
):
    """A batch run has no tenant to keep: ``--workdir`` without
    ``--ingest``/``--source`` (``--stream`` for stats) is refused."""
    log = str(messy_logs / "sorted.log")
    argv = [command, "--log", log, "--kb", str(kb_path)]
    assert main(argv + ["--workdir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: --workdir needs ")
    assert err.count("\n") == 1 and not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def feed(workdir, tmp_path_factory):
    """The first 1 500 lines of the generated log, as one feed."""
    path = tmp_path_factory.mktemp("feed") / "feed.log"
    lines = (workdir / "syslog.log").read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1500]))
    return path


def _digest_feed(feed, kb_path, capsys, *extra) -> tuple[int, str, str]:
    rc = main(["digest", "--source", str(feed), "--kb", str(kb_path), *extra])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def uninterrupted(feed, kb_path):
    """stdout of one uninterrupted ``digest --source`` over the feed."""
    import contextlib
    import io

    out = io.StringIO()
    argv = ["digest", "--source", str(feed), "--kb", str(kb_path)]
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _sigterm_at(at: int):
    """``tenant.arrival`` hook: SIGTERM this process at arrival ``at``."""

    def hook(_tenant, position, _degraded):
        if position == at:
            os.kill(os.getpid(), signal.SIGTERM)

    return hook


class TestWorkdirResume:
    """A ``--workdir`` run stopped anywhere and rerun prints exactly the
    uninterrupted run's digest.  The tenant cuts at 200 arrivals, then
    at half its in-flight messages, so the halt counts land before the
    first cut, just past it, and far past it."""

    @pytest.mark.parametrize("at", [0, 150, 230, 900, 1490])
    @pytest.mark.parametrize("halt", ["sigterm", "crash"])
    def test_halted_run_resumes_exactly(
        self, halt, at, feed, kb_path, uninterrupted, tmp_path, capsys
    ):
        run = tmp_path / "run"
        hook = (
            _sigterm_at(at) if halt == "sigterm"
            else inject.PumpPoison(at=at)
        )
        with inject.arm({inject.TENANT_ARRIVAL: hook}):
            if halt == "sigterm":
                rc, out, err = _digest_feed(
                    feed, kb_path, capsys, "--workdir", str(run)
                )
                assert (rc, out) == (0, "")
                assert err == (
                    f"# SIGTERM: checkpointed to {run}; rerun with "
                    f"--workdir {run} to resume\n"
                )
            else:
                with pytest.raises(inject.InjectedWorkerFault):
                    main(["digest", "--source", str(feed), "--kb",
                          str(kb_path), "--workdir", str(run)])
        # A SIGTERM always cuts; a crash leaves the last cadence cut,
        # none yet before 200 arrivals.
        cut = (run / "checkpoint.ckpt").exists()
        assert cut == (halt == "sigterm" or at >= 200)
        metrics = tmp_path / "rerun.prom"
        rc, out, _err = _digest_feed(
            feed, kb_path, capsys, "--workdir", str(run),
            "--metrics", str(metrics),
        )
        assert rc == 0 and out == uninterrupted
        assert f"syslogdigest_tenant_resumed {int(cut)}\n" in (
            metrics.read_text()
        )

    def test_finished_workdir_prints_the_digest_again(
        self, feed, kb_path, uninterrupted, tmp_path, capsys
    ):
        run = str(tmp_path / "run")
        for _ in range(2):
            rc, out, _err = _digest_feed(
                feed, kb_path, capsys, "--workdir", run
            )
            assert rc == 0 and out == uninterrupted

    def test_sigterm_without_workdir_keeps_nothing(
        self, feed, kb_path, capsys
    ):
        with inject.arm({inject.TENANT_ARRIVAL: _sigterm_at(100)}):
            rc, out, err = _digest_feed(feed, kb_path, capsys)
        assert (rc, out) == (0, "")
        assert err.startswith("# SIGTERM: stopped; no --workdir")

    def test_real_process_sigterm_then_rerun(
        self, feed, kb_path, uninterrupted, tmp_path
    ):
        """A real SIGTERM from outside: the child pauses once at arrival
        300 (after touching a marker) so the signal lands mid-run."""
        run, marker = tmp_path / "run", tmp_path / "paused"
        child = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.cli import main\n"
            "from repro.utils import inject\n"
            "def pause(_tenant, position, _degraded):\n"
            "    if position == 300:\n"
            f"        Path({str(marker)!r}).touch()\n"
            "        time.sleep(1.0)\n"
            "with inject.arm({inject.TENANT_ARRIVAL: pause}):\n"
            "    sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["digest", "--source", str(feed), "--kb", str(kb_path),
                "--workdir", str(run)]
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.Popen(
            [sys.executable, "-c", child, *argv], cwd=str(ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            for _ in range(600):
                if marker.exists() or proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert marker.exists()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0 and out == ""
        assert err.splitlines() == [
            f"# SIGTERM: checkpointed to {run}; rerun with --workdir "
            f"{run} to resume"
        ]
        rerun = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv], cwd=str(ROOT),
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert rerun.returncode == 0 and rerun.stdout == uninterrupted

    def test_stream_only_checkpoint_is_refused(
        self, feed, kb_path, tmp_path, capsys
    ):
        """A workdir holding a checkpoint of a directly pushed stream
        (no ingest state, no tail cursors) is one stderr line, exit 2."""
        from repro.core.checkpoint import write_checkpoint
        from repro.core.knowledge import KnowledgeBase
        from repro.core.stream import DigestStream
        from repro.syslog.stream import read_log

        run = tmp_path / "run"
        run.mkdir()
        stream = DigestStream(KnowledgeBase.load(kb_path))
        stream.push_many(read_log(feed)[:100])
        write_checkpoint(run / "checkpoint.ckpt", stream)
        rc, out, err = _digest_feed(
            feed, kb_path, capsys, "--workdir", str(run)
        )
        assert (rc, out) == (2, "")
        assert err.startswith(f"digest: {run / 'checkpoint.ckpt'}: ")
        assert "no ingest state" in err and err.count("\n") == 1
