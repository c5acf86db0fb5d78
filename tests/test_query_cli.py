"""CLI tests for ``repro query`` and the PR-wide diagnostics satellites."""

from __future__ import annotations

import json
import random

import pytest

from repro import __version__
from repro.cli import main
from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.stream.feed import FeedWriter, snapshot_deltas

TRACE_CONFIG = TraceConfig(
    days=40,
    faults=(FaultSpike(day=10, faulty_as=8584, n_prefixes=30),),
    n_background_prefixes=200,
    include_background=True,
)


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    root = tmp_path_factory.mktemp("querycli")
    feed = root / "feed.jsonl"
    generator = TraceGenerator(TRACE_CONFIG, random.Random(7))
    with FeedWriter(feed) as writer:
        writer.write_all(snapshot_deltas(generator.snapshots()))
    alarms = root / "alarms.log"
    idx = root / "idx"
    rc = main([
        "stream", "run", str(feed), "--alarms", str(alarms),
        "--checkpoint", str(root / "cp.json"), "--index", str(idx),
    ])
    assert rc == 0
    return feed, alarms, idx


class TestDiagnostics:
    """Satellite: ``--version`` and exit-2 subcommand diagnostics."""

    def test_version_flag(self, capsys):
        # argparse's version action raises SystemExit(0); main() converts
        # it to a plain return code.
        assert main(["--version"]) == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_unknown_query_subcommand_exits_2(self, capsys):
        assert main(["query", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nonsense" in err

    def test_missing_query_subcommand_exits_2(self, capsys):
        assert main(["query"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_top_level_command_exits_2(self):
        assert main(["no-such-command"]) == 2


class TestQueryCommands:
    def test_build_dump_scan_bit_identity(self, streamed, tmp_path, capsys):
        feed, alarms, idx = streamed
        offline = tmp_path / "offline"
        assert main([
            "query", "build", str(feed), "--alarms", str(alarms),
            "--out", str(offline), "--segment-days", "10",
        ]) == 0
        build_out = capsys.readouterr().out
        assert "index built" in build_out and "1 feed(s)" in build_out

        assert main(["query", "dump", str(offline)]) == 0
        dumped_offline = capsys.readouterr().out
        assert main(["query", "dump", str(idx)]) == 0
        dumped_live = capsys.readouterr().out
        assert main([
            "query", "scan", str(feed), "--alarms", str(alarms),
        ]) == 0
        scanned = capsys.readouterr().out
        assert dumped_offline == scanned
        assert dumped_live == scanned

    def test_stats_prefix_top(self, streamed, capsys):
        _, _, idx = streamed
        assert main(["query", "stats", str(idx)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["alarms"]["total"] > 0
        assert main(["query", "top", str(idx), "--k", "1", "--by", "alarms"]) == 0
        top = json.loads(capsys.readouterr().out)
        assert len(top) == 1 and top[0]["alarms"] > 0
        target = top[0]["prefix"]
        assert main(["query", "prefix", str(idx), target]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["found"] is True
        assert report["alarms"]["total"] > 0

    def test_missing_index_fails_with_diagnostic(self, tmp_path, capsys):
        assert main(["query", "dump", str(tmp_path / "nowhere")]) == 1
        err = capsys.readouterr().err
        assert "query dump failed" in err and "repro query build" in err

    def test_bad_build_arguments_fail(self, streamed, tmp_path, capsys):
        feed, _, _ = streamed
        assert main([
            "query", "build", str(feed),
            "--alarms", str(tmp_path / "alarms.log"),
            "--out", str(tmp_path / "idx"),
            "--segment-days", "0",
        ]) == 1
        assert "query build failed" in capsys.readouterr().err

    def test_bad_top_key_fails_cleanly(self, streamed, capsys):
        _, _, idx = streamed
        # --by is validated by argparse choices: exit 2, not a traceback.
        assert main(["query", "top", str(idx), "--by", "bogus"]) == 2
