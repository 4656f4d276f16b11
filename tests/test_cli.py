"""CLI workflow tests: generate -> learn -> digest -> report."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

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
        self._ensure_kb(workdir, capsys)
        ckpt = tmp_path / "digest.ckpt"
        rc = main(
            [
                "stats",
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--stream",
                "--checkpoint", str(ckpt),
                "--checkpoint-interval", "3600",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert ckpt.exists()
        assert "syslogdigest_checkpoint_writes_total" in out

        rc = main(
            [
                "resume",
                "--checkpoint", str(ckpt),
                "--log", str(workdir / "syslog.log"),
                "--kb", str(workdir / "kb.json"),
                "--top", "5",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "replaying" in captured.err
        assert "resumed digest" in captured.out

    def test_resume_reads_its_checkpoint_once(
        self, workdir, capsys, tmp_path, monkeypatch
    ):
        """The header ``resume`` prints and the stream it restores come
        from one read of the checkpoint file."""
        from repro.core import checkpoint
        from repro.core.knowledge import KnowledgeBase
        from repro.core.stream import DigestStream
        from repro.syslog.stream import read_log, write_log

        self._ensure_kb(workdir, capsys)
        log = tmp_path / "short.log"
        write_log(log, read_log(workdir / "syslog.log")[:400])
        stream = DigestStream(KnowledgeBase.load(workdir / "kb.json"))
        stream.push_many(read_log(log)[:200])
        ckpt = tmp_path / "digest.ckpt"
        checkpoint.write_checkpoint(ckpt, stream)

        reads = []
        real = checkpoint.read_checkpoint
        monkeypatch.setattr(
            checkpoint,
            "read_checkpoint",
            lambda path: reads.append(path) or real(path),
        )
        rc = main(
            [
                "resume",
                "--checkpoint", str(ckpt),
                "--log", str(log),
                "--kb", str(workdir / "kb.json"),
            ]
        )
        assert rc == 0
        assert len(reads) == 1
        assert "200 messages already digested" in capsys.readouterr().err

    def test_resume_refuses_an_ingest_checkpoint(
        self, workdir, capsys, tmp_path
    ):
        """An ingest checkpoint (what a serve tenant writes) cannot be
        resumed by skipping lines of one sorted log: the front-end
        reorders, deduplicates and drops late arrivals."""
        from repro.core.checkpoint import write_checkpoint
        from repro.core.knowledge import KnowledgeBase
        from repro.core.stream import DigestStream
        from repro.syslog.ingest import MultiSourceIngest

        self._ensure_kb(workdir, capsys)
        log = workdir / "syslog.log"
        stream = DigestStream(KnowledgeBase.load(workdir / "kb.json"))
        ingest = MultiSourceIngest(stream)
        for line in log.read_text().splitlines()[:200]:
            ingest.push_line("feed", line)
        ckpt = tmp_path / "ingest.ckpt"
        info = write_checkpoint(ckpt, stream)
        assert info.has_ingest and info.n_buffered > 0

        rc = main(
            [
                "resume",
                "--checkpoint", str(ckpt),
                "--log", str(log),
                "--kb", str(workdir / "kb.json"),
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"({info.n_buffered} buffered arrivals)" in captured.err


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
    "stats": ["stats"],
    "stats --quarantine": ["stats", "--quarantine", "{tmp}/q.jsonl"],
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
    """Garbage, a truncated file and a foreign pickle are one typed
    error: one stderr line naming the file, exit 2, no traceback."""
    ckpt = tmp_path / "bogus.ckpt"
    ckpt.write_bytes(content)
    log = str(messy_logs / "sorted.log")
    argv = ["resume", "--checkpoint", str(ckpt), "--log", log]
    assert main(argv + ["--kb", str(kb_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"resume: {ckpt} ") and err.count("\n") == 1


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
