"""Whole-program pass tests: graph resolution, ATH100, ATH102, CLI v2."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import lint_sources, main
from repro.analysis.graph import ProjectGraph, module_name_for

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "lint"

# fixture file -> rule id -> expected (line, ...) locations
PROJECT_EXPECTED = {
    "bad_ath100.py": ("ATH100", (10, 15, 21)),
    "bad_ath102.py": ("ATH102", (17, 21, 25)),
}


def _lint_fixture(name: str, rule_id: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_sources({name: source}, rule_ids=[rule_id])


class TestProjectGraph:
    def test_module_name_strips_src_root(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"
        assert module_name_for("src/repro/trace/__init__.py") == "repro.trace"
        assert module_name_for("examples/demo.py") == "examples.demo"

    def test_resolves_function_across_import(self):
        graph = ProjectGraph.from_sources({
            "src/pkg/a.py": "def f(x_us):\n    return x_us\n",
            "src/pkg/b.py": "from pkg.a import f\n",
        })
        module = graph.modules["pkg.b"]
        resolved = graph.resolve_name(module, "f")
        assert resolved is not None
        kind, info = resolved
        assert kind == "function" and info.qualname == "pkg.a.f"

    def test_follows_reexport_chain(self):
        # Mirrors repro.trace.schema re-exporting ids.new_packet_id.
        graph = ProjectGraph.from_sources({
            "src/pkg/__init__.py": "from .ids import new_packet_id\n",
            "src/pkg/ids.py": "def new_packet_id():\n    return 0\n",
            "src/client.py": "from pkg import new_packet_id\n",
        })
        module = graph.modules["client"]
        resolved = graph.resolve_name(module, "new_packet_id")
        assert resolved is not None
        kind, info = resolved
        assert kind == "function"
        assert info.qualname == "pkg.ids.new_packet_id"

    def test_real_tree_reexport_resolves(self):
        sources = {}
        for path in sorted((REPO_ROOT / "src" / "repro" / "trace").glob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            sources[rel] = path.read_text(encoding="utf-8")
        graph = ProjectGraph.from_sources(sources)
        module = graph.modules["repro.trace.schema"]
        resolved = graph.resolve_name(module, "new_packet_id")
        assert resolved is not None
        kind, info = resolved
        assert kind == "function" and info.modname == "repro.trace.ids"

    def test_import_cycle_terminates(self):
        graph = ProjectGraph.from_sources({
            "src/a.py": "from b import ghost\n",
            "src/b.py": "from a import ghost\n",
        })
        module = graph.modules["a"]
        assert graph.resolve_name(module, "ghost") is None

    def test_syntax_error_file_is_skipped_not_fatal(self):
        graph = ProjectGraph.from_sources({
            "src/ok.py": "def f():\n    return 1\n",
            "src/broken.py": "def f(:\n",
        })
        assert "src/broken.py" in graph.unparsed
        assert "ok" in graph.modules


@pytest.mark.parametrize("fixture,rule_id,lines", [
    (name, rule_id, lines)
    for name, (rule_id, lines) in PROJECT_EXPECTED.items()
])
def test_fixture_trips_project_rule_at_expected_lines(fixture, rule_id, lines):
    results = _lint_fixture(fixture, rule_id)
    found = [(f.rule_id, f.line) for f in results]
    assert found == [(rule_id, line) for line in lines]
    for finding in results:
        assert finding.path == fixture
        assert finding.message


class TestUnitFlow:
    def test_mismatch_through_cross_module_call_hop(self):
        results = lint_sources({
            "src/m1.py": "def send(budget_bytes):\n    return budget_bytes\n",
            "src/m2.py": (
                "from m1 import send\n\n"
                "def go(rate_kbps):\n"
                "    return send(rate_kbps)\n"
            ),
        }, rule_ids=["ATH100"])
        assert [(f.rule_id, f.path, f.line) for f in results] == [
            ("ATH100", "src/m2.py", 4),
        ]

    def test_explicit_conversion_is_clean(self):
        src = (
            "US_PER_MS = 1000\n\n"
            "def deadline(now_us, frame_ms):\n"
            "    return now_us + frame_ms * US_PER_MS\n"
        )
        assert lint_sources({"src/m.py": src}, rule_ids=["ATH100"]) == []

    def test_suppression_comment_respected(self):
        src = (
            "def f(now_us, frame_ms):\n"
            "    return now_us + frame_ms  # athena-lint: disable=ATH100\n"
        )
        assert lint_sources({"src/m.py": src}, rule_ids=["ATH100"]) == []


class TestEventGraph:
    def test_explicit_priority_silences(self):
        src = (
            "class C:\n"
            "    def __init__(self, sim):\n"
            "        self.sim = sim\n"
            "        self.n_ticks = 0\n"
            "    def a(self):\n"
            "        self.n_ticks += 1\n"
            "    def b(self):\n"
            "        self.n_ticks = 0\n"
            "    def arm(self):\n"
            "        self.sim.at(5_000, self.a, priority=0)\n"
            "        self.sim.at(5_000, self.b, priority=1)\n"
        )
        assert lint_sources({"src/m.py": src}, rule_ids=["ATH102"]) == []

    def test_different_instants_are_clean(self):
        src = (
            "class C:\n"
            "    def __init__(self, sim):\n"
            "        self.sim = sim\n"
            "        self.n_ticks = 0\n"
            "    def a(self):\n"
            "        self.n_ticks += 1\n"
            "    def arm(self):\n"
            "        self.sim.at(5_000, self.a)\n"
            "        self.sim.at(7_500, self.a)\n"
        )
        assert lint_sources({"src/m.py": src}, rule_ids=["ATH102"]) == []

    def test_disjoint_state_is_clean(self):
        src = (
            "class C:\n"
            "    def __init__(self, sim):\n"
            "        self.sim = sim\n"
            "        self.n_sent = 0\n"
            "        self.n_lost = 0\n"
            "    def a(self):\n"
            "        self.n_sent += 1\n"
            "    def b(self):\n"
            "        self.n_lost += 1\n"
            "    def arm(self):\n"
            "        self.sim.at(5_000, self.a)\n"
            "        self.sim.at(5_000, self.b)\n"
        )
        assert lint_sources({"src/m.py": src}, rule_ids=["ATH102"]) == []


BAD_UNITS = (
    "def take(depth_bytes):\n"
    "    return depth_bytes\n\n"
    "def go(rate_kbps):\n"
    "    return take(rate_kbps)\n"
)


def _project(tmp_path: Path, files: dict) -> Path:
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return tmp_path


class TestCliV2:
    def test_rule_flag_fails_on_fixture_corpus(self, capsys):
        # Acceptance: `--rule ATH100` on the fixture corpus exits non-zero.
        code = main([str(FIXTURES), "--root", str(FIXTURES),
                     "--rule", "ATH100"])
        assert code == 1
        out = capsys.readouterr().out
        assert "bad_ath100.py:10:" in out

    def test_sarif_format_and_file(self, tmp_path, capsys):
        root = _project(tmp_path, {"src/m.py": BAD_UNITS})
        sarif_file = tmp_path / "lint.sarif"
        code = main(["--root", str(root), "--format", "sarif",
                     "--sarif", str(sarif_file)])
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "athena-lint"
        assert run["results"][0]["ruleId"] == "ATH100"
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/m.py"
        assert json.loads(sarif_file.read_text(encoding="utf-8")) == log

    def test_analyzer_self_lints_clean(self, capsys):
        code = main(["src/repro/analysis", "--root", str(REPO_ROOT)])
        assert code == 0, capsys.readouterr().out
