"""Coverage for small helpers not exercised elsewhere."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.app import ScenarioConfig, run_session
from repro.core.delay import summarize_trace_owds
from repro.mitigation import EcnMarker, summarize_marking
from repro.phy import TddFrame


def test_summarize_trace_owds_keys():
    result = run_session(ScenarioConfig(duration_s=4.0, seed=2,
                                        record_tbs=False))
    series = summarize_trace_owds(result.trace)
    assert set(series) == {"rtp_sender_core", "rtp_core_receiver",
                           "icmp_core_sfu"}
    assert all(len(v) > 10 for v in series.values())
    assert np.median(series["icmp_core_sfu"]) < 15.0


def test_summarize_marking_renders():
    a = EcnMarker()
    a.seen, a.marked = 10, 3
    b = EcnMarker()
    b.seen, b.marked = 10, 0
    text = summarize_marking({"naive": a, "aware": b})
    assert "naive: marked 3/10 (30.0%)" in text
    assert "aware: marked 0/10 (0.0%)" in text


def test_fdd_ascii_frame():
    art = TddFrame("U", 500, fdd=True).ascii_frame()
    assert set(art.splitlines()[1]) == {"U"}


def test_module_main_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "figure", "fig99"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "unknown figure" in proc.stderr


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path):
    # Every example keeps its work under a __main__ guard, so importing it
    # runs nothing but still fails on any API it uses that no longer exists.
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
