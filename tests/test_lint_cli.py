"""CLI behaviour: crash paths, --changed, baselines, SARIF, cache flags."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main

BAD = "import random\n\ndef roll():\n    return random.random()\n"
CLEAN = "def roll():\n    return 4\n"


def run_cli(args, capsys):
    code = lint_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "lint-cache")]


class TestCrashPaths:
    def test_syntax_error_exits_2_with_diagnostic(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        code, _, err = run_cli([str(target), *cache_args(tmp_path)], capsys)
        assert code == 2
        assert "E999" in err and "syntax error" in err
        assert "Traceback" not in err

    def test_non_utf8_exits_2_with_diagnostic(self, tmp_path, capsys):
        target = tmp_path / "latin.py"
        target.write_bytes(b"# caf\xe9\nx = 1\n")
        code, _, err = run_cli([str(target), *cache_args(tmp_path)], capsys)
        assert code == 2
        assert "E902" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_missing_file_exits_2_with_diagnostic(self, tmp_path, capsys):
        target = tmp_path / "ghost.py"
        target.symlink_to(tmp_path / "does-not-exist.py")
        code, _, err = run_cli([str(target), *cache_args(tmp_path)], capsys)
        assert code == 2
        assert "no such path" in err

    def test_unreadable_file_surfaces_as_e902(self, tmp_path):
        # The CLI's exists() pre-check stops dangling paths early; a file
        # that vanishes (or is unreadable) mid-run reaches the driver's
        # read and must come back as an E902 error, not an exception.
        from repro.lint.driver import run_lint

        target = tmp_path / "ghost.py"
        target.symlink_to(tmp_path / "does-not-exist.py")
        run = run_lint([target])
        assert len(run.errors) == 1
        assert run.errors[0].code == "E902"
        assert "cannot read file" in run.errors[0].message

    def test_good_files_still_reported_alongside_errors(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(BAD, encoding="utf-8")
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        code, out, err = run_cli([str(tmp_path), *cache_args(tmp_path)], capsys)
        assert code == 2  # fatal file errors dominate the exit code
        assert "R001" in out  # but the analysable file is still linted
        assert "E999" in err

    def test_cli_subprocess_never_tracebacks_on_bad_file(self, tmp_path):
        import os
        import sys

        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        repo_src = Path(__file__).parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(repo_src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target), "--no-cache"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestChanged:
    @pytest.fixture
    def git_repo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "config", "user.email", "t@t"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)
        src = tmp_path / "pkg"
        src.mkdir()
        (src / "committed.py").write_text(BAD, encoding="utf-8")
        subprocess.run(["git", "add", "."], check=True)
        subprocess.run(["git", "commit", "-qm", "seed"], check=True)
        return tmp_path

    def test_changed_scopes_to_dirty_files(self, git_repo, capsys, tmp_path):
        # committed.py is clean in git terms despite its R001: not linted.
        (git_repo / "pkg" / "fresh.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        code, out, _ = run_cli(
            ["--changed", "pkg", *cache_args(tmp_path)], capsys
        )
        assert code == 1
        assert "fresh.py" in out and "R002" in out
        assert "committed.py" not in out

    def test_changed_with_clean_tree_exits_0(self, git_repo, capsys, tmp_path):
        code, out, _ = run_cli(
            ["--changed", "pkg", *cache_args(tmp_path)], capsys
        )
        assert code == 0
        assert "no changed files" in out

    def test_changed_outside_git_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.py").write_text(CLEAN, encoding="utf-8")
        code, _, err = run_cli(
            ["--changed", str(tmp_path), *cache_args(tmp_path)], capsys
        )
        assert code == 2
        assert "git" in err


class TestBaseline:
    def test_write_then_apply(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD, encoding="utf-8")
        baseline = tmp_path / "baseline.json"

        code, _, err = run_cli(
            [str(target), "--write-baseline", str(baseline), *cache_args(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "wrote baseline with 1 violation(s)" in err

        code, out, _ = run_cli(
            [str(target), "--baseline", str(baseline), *cache_args(tmp_path)], capsys
        )
        assert code == 0
        assert "clean" in out

    def test_new_violation_escapes_baseline(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        run_cli(
            [str(target), "--write-baseline", str(baseline), *cache_args(tmp_path)],
            capsys,
        )
        target.write_text(BAD + "import time\nt = time.time()\n", encoding="utf-8")
        code, out, _ = run_cli(
            [str(target), "--baseline", str(baseline), *cache_args(tmp_path)], capsys
        )
        assert code == 1
        assert "R001" not in out  # baselined

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(CLEAN, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(
            [str(target), "--baseline", str(baseline), *cache_args(tmp_path)], capsys
        )
        assert code == 2
        assert "baseline" in err

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(CLEAN, encoding="utf-8")
        code, _, err = run_cli(
            [str(target), "--baseline", str(tmp_path / "nope.json"),
             *cache_args(tmp_path)],
            capsys,
        )
        assert code == 2


class TestSarif:
    def test_sarif_document_shape(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD, encoding="utf-8")
        code, out, _ = run_cli(
            [str(target), "--format", "sarif", *cache_args(tmp_path)], capsys
        )
        assert code == 1
        log = json.loads(out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"R001", "R100", "R101"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "R001"
        assert result["level"] == "warning"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_sarif_clean_run_is_valid(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(CLEAN, encoding="utf-8")
        code, out, _ = run_cli(
            [str(target), "--format", "sarif", *cache_args(tmp_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["runs"][0]["results"] == []


class TestStatsAndCache:
    def test_stats_reports_cache_traffic(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(CLEAN, encoding="utf-8")
        args = [str(target), "--stats", *cache_args(tmp_path)]
        _, _, err = run_cli(args, capsys)
        assert "1 file(s)" in err and "0 cache hit(s)" in err
        _, _, err = run_cli(args, capsys)
        assert "1 cache hit(s)" in err

    def test_no_cache_skips_the_cache(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(CLEAN, encoding="utf-8")
        run_cli([str(target), *cache_args(tmp_path)], capsys)
        _, _, err = run_cli(
            [str(target), "--no-cache", "--stats", *cache_args(tmp_path)], capsys
        )
        assert "0 cache hit(s)" in err


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
