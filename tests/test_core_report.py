"""Tests for the report table helpers and the streaming report text."""

import math

from repro.core import cdf_row, distribution_table, format_table


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 22], [333, 4]])
    lines = out.splitlines()
    assert lines[0].startswith("a")
    assert "-" in lines[1]
    assert len(lines) == 4


def test_format_table_floats():
    out = format_table(["x"], [[3.14159], [123.456], [0.00123]])
    assert "3.14" in out
    assert "123" in out
    assert "0.0012" in out


def test_format_table_nan():
    out = format_table(["x"], [[float("nan")]])
    assert "nan" in out


def test_cdf_row_percentiles():
    row = cdf_row("s", list(range(101)))
    assert row[0] == "s"
    assert row[1] == 10.0  # p10
    assert row[2] == 50.0  # p50
    assert row[3] == 90.0  # p90


def test_cdf_row_empty():
    row = cdf_row("s", [])
    assert row[0] == "s"
    assert all(math.isnan(v) for v in row[1:])


def test_distribution_table_combines_series():
    out = distribution_table({"a": [1.0, 2.0], "b": [3.0]})
    assert "a" in out and "b" in out
    assert "p50" in out


def _streaming_report(trace):
    from repro.core import (
        StreamingReportOperator,
        render_streaming_report,
        replay_trace,
    )

    results = replay_trace(trace, [StreamingReportOperator()])
    return render_streaming_report(results["report"])


def test_streaming_report_full_session():
    from repro.app import ScenarioConfig, run_session

    result = run_session(ScenarioConfig(duration_s=5.0, seed=2,
                                        record_tbs=True))
    text = _streaming_report(result.trace)
    for fragment in ("records:", "one-way delay", "RAN delay by media",
                     "delay spread", "grant utilization",
                     "delay decomposition", "QoE medians"):
        assert fragment in text


def test_streaming_report_emulated_skips_phy_sections():
    from repro.app import ScenarioConfig, run_session

    result = run_session(ScenarioConfig(duration_s=4.0, seed=2,
                                        access="emulated",
                                        record_tbs=False))
    text = _streaming_report(result.trace)
    assert "grant utilization" not in text
    assert "QoE medians" in text
