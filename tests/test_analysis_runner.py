"""Runner, config, and CLI-integration tests for athena-lint."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import main
from repro.analysis.common import path_matches
from repro.analysis.config import load_config
from repro.analysis.runner import lint_paths
from repro.cli import main as cli_main

BAD = "import time\nboot_us = time.time()\n"
CLEAN = "def f(sim, delay_us):\n    return sim.now + delay_us\n"


def _project(tmp_path: Path, files: dict) -> Path:
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return tmp_path


class TestLintPaths:
    def test_clean_tree(self, tmp_path):
        root = _project(tmp_path, {"src/ok.py": CLEAN})
        results, scanned = lint_paths(root, paths=["src"])
        assert results == []
        assert scanned == 1

    def test_findings_carry_relative_paths(self, tmp_path):
        root = _project(tmp_path, {"src/bad.py": BAD})
        results, _ = lint_paths(root, paths=["src"])
        assert [f.path for f in results] == ["src/bad.py"]
        assert results[0].rule_id == "ATH001"

    def test_exclude_patterns(self, tmp_path):
        root = _project(tmp_path, {"src/bad.py": BAD})
        config = load_config(root)
        config.exclude = ["src/bad.py"]
        results, scanned = lint_paths(root, paths=["src"], config=config)
        assert results == [] and scanned == 0


class TestConfig:
    def test_pyproject_overrides(self, tmp_path):
        root = _project(tmp_path, {"src/bad.py": BAD, "lib/bad2.py": BAD})
        (root / "pyproject.toml").write_text(
            '[tool.athena-lint]\npaths = ["lib"]\n'
            '[tool.athena-lint.rules.ATH001]\nexempt = ["lib/bad2.py"]\n',
            encoding="utf-8",
        )
        config = load_config(root)
        assert config.paths == ["lib"]
        results, scanned = lint_paths(root, config=config)
        assert scanned == 1 and results == []

    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.paths == ["src", "examples"]
        assert "ATH002" in config.rule_options

    def test_path_matches_shapes(self):
        assert path_matches("src/repro/sim/random.py", ["sim/random.py"])
        assert path_matches("benchmarks/test_perf.py", ["benchmarks"])
        assert not path_matches("src/repro/phy/ue.py", ["sim/random.py"])


class TestCli:
    def test_json_format_and_output_file(self, tmp_path, capsys):
        root = _project(tmp_path, {"src/bad.py": BAD})
        report = tmp_path / "lint.json"
        code = main(["--root", str(root), "--format", "json",
                     "--output", str(report)])
        assert code == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["files_scanned"] == 1
        assert payload["findings"][0]["rule"] == "ATH001"
        assert payload["findings"][0]["path"] == "src/bad.py"
        assert json.loads(capsys.readouterr().out) == payload

    def test_select_unknown_rule(self, tmp_path, capsys):
        code = main(["--root", str(tmp_path), "--select", "ATH999"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("ATH001", "ATH002", "ATH003",
                        "ATH004", "ATH005", "ATH006"):
            assert rule_id in out

    def test_athena_repro_lint_subcommand(self, tmp_path, capsys):
        root = _project(tmp_path, {"src/ok.py": CLEAN})
        assert cli_main(["lint", "--root", str(root)]) == 0
        assert "0 findings" in capsys.readouterr().out
