"""Self-tests of the benchmark.  Run with ``python -m pytest perf -q``.

Each workload runs in ``--smoke`` mode (5 operations per phase) in a fresh
interpreter, exactly as the regression gate runs it at full length.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import layers  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_smoke(out: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    detail = json.loads(out.read_text())
    assert json.loads(proc.stdout.splitlines()[-1]) == detail["result"]
    return detail


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``smoke(workload, trace, copy)``: one cached smoke run's detail."""
    done: dict = {}

    def get(workload: str, trace: int, copy: int = 0) -> dict:
        key = (workload, trace, copy)
        if key not in done:
            out = tmp_path_factory.mktemp("perf") / "detail.json"
            done[key] = run_smoke(out, "--workload", workload, "--trace", str(trace))
        return done[key]

    return get


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert per_layer == run.per_layer_units()
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_workload_list_matches_code():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert tuple(WORKLOADS) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct(smoke, workload):
    detail = smoke(workload, 0)
    result = detail["result"]
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] == run.SMOKE_OPS
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(smoke, workload):
    first, second = smoke(workload, 1, 0), smoke(workload, 1, 1)
    for detail in (first, second):
        assert detail["result"]["correct"], detail["failures"]
        assert set(detail["result"]["metrics"]) == set(run.per_layer_units())
    values = [
        {n: m["value"] for n, m in d["result"]["metrics"].items() if run.is_exact(n)}
        for d in (first, second)
    ]
    assert values[0] == values[1]
    assert first["output_digest"] == second["output_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_map_covers_runtime_packages(smoke, workload):
    detail = smoke(workload, 1)
    assert set(detail["packages"]) <= set(layers.LAYERS)
    assert detail["result"]["metrics"]["unmapped.share"]["value"] <= 0.05


def test_layer_picture(smoke):
    def metrics(workload):
        return {n: m["value"] for n, m in smoke(workload, 1)["result"]["metrics"].items()}

    def ranking(m):
        return sorted(layers.LAYERS, key=lambda layer: -m[f"{layer}.share"])

    call_5g, call_live = metrics("call_5g"), metrics("call_live")
    cold, warm = metrics("sweep_cold"), metrics("sweep_warm")
    assert ranking(call_5g)[0] == "phy"
    assert "core" in ranking(call_live)[:2]
    assert warm["sim.events"] == 0 and warm["phy.share"] < 0.01
    assert cold["run.cache_put_s"] > 0 and warm["run.cache_put_s"] == 0
    assert cold["run.hit_ratio"] == 0 and warm["run.hit_ratio"] == 1
    for workload in WORKLOADS:
        assert metrics(workload)["profile.overhead"] > 0


def test_builtins_are_charged_to_their_callers_layer(tmp_path):
    import cProfile

    package = tmp_path / "src" / "repro"
    source = "def work(n):\n    return sorted(range(n, 0, -1))\n"
    namespace: dict = {}
    exec(compile(source, str(package / "phy" / "kernel.py"), "exec"), namespace)
    profiler = cProfile.Profile()
    profiler.enable()
    namespace["work"](200_000)
    profiler.disable()
    stats = profiler.getstats()
    layer_map = layers.LayerMap(str(package), str(PERF))
    self_s = layers.attribute_self_time(stats, layer_map)
    assert self_s["phy"] > 0.9 * sum(self_s.values())
    assert layers.layer_counts(stats, layer_map)["calls"]["phy"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "call_5g", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
