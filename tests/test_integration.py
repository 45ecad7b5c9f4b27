"""End-to-end integration: simulate → persist → reload → analyze."""

import numpy as np
import pytest

from repro.app import ScenarioConfig, run_session
from repro.core import AthenaSession
from repro.trace import CapturePoint, export_csv, load_trace, save_trace


@pytest.fixture(scope="module")
def result():
    config = ScenarioConfig(duration_s=8.0, seed=21, record_tbs=True,
                            record_grants=True)
    return run_session(config)


def test_trace_roundtrip_preserves_analysis(result, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    path = tmp / "run.jsonl"
    save_trace(result.trace, path)
    loaded = load_trace(path)

    live = AthenaSession(result.trace)
    offline = AthenaSession(loaded)

    live_spread = live.delay_spread_cdf(CapturePoint.CORE)
    offline_spread = offline.delay_spread_cdf(CapturePoint.CORE)
    assert live_spread == offline_spread

    assert live.spread_quantization() == offline.spread_quantization()
    assert (live.grant_efficiency() == offline.grant_efficiency())


def test_offline_correlation_matches_ground_truth(result, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace2")
    path = tmp / "run.jsonl"
    save_trace(result.trace, path)
    loaded = load_trace(path)
    offline = AthenaSession(loaded)
    corr = offline.correlate(ue_id=1)
    assert corr.accuracy_against_ground_truth(loaded) > 0.9


def test_csv_export_counts(result, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    written = export_csv(result.trace, tmp)
    packet_lines = written["packets"].read_text().count("\n") - 1
    assert packet_lines == len(result.trace.packets)
    assert "grants" in written  # record_grants=True


def test_grants_recorded(result):
    assert result.trace.grants
    from repro.trace import TbKind

    requested = [g for g in result.trace.grants if g.kind == TbKind.REQUESTED]
    assert requested
    for grant in requested:
        if grant.bsr_us is not None:
            assert grant.usable_slot_us - grant.bsr_us >= 10_000


def test_athena_full_pipeline_consistency(result):
    """The paper's correlation chain: TB -> packet -> frame agree."""
    athena = AthenaSession(result.trace)
    corr = athena.correlate(ue_id=1)
    tb_index = result.trace.tb_index()
    for pid, match in list(corr.matches.items())[:200]:
        for tb_id in match.tb_ids:
            assert tb_id in tb_index
    report = athena.root_causes()
    # Frame spread as computed from captures matches the per-packet
    # telemetry view within a slot duration.
    video = [d for d in report.frame_diagnoses if d.stream == "video"]
    assert video
    spreads = athena.delay_spread_cdf(CapturePoint.CORE, stream="video")
    assert np.median([d.spread_ms for d in video]) == pytest.approx(
        np.median(spreads), abs=0.01
    )


def test_athena_from_file(result, tmp_path_factory):
    from repro.core import AthenaSession

    tmp = tmp_path_factory.mktemp("fromfile")
    path = tmp / "run.jsonl"
    save_trace(result.trace, path)
    athena = AthenaSession(load_trace(path))
    assert len(athena.trace.packets) == len(result.trace.packets)
    assert athena.spread_quantization()[0] == 2.5


def test_athena_from_file_with_sync(tmp_path_factory):
    from repro.core import AthenaSession, synchronize_trace
    from repro.net.topology import PathConfig

    config = ScenarioConfig(
        duration_s=6.0, seed=2, record_tbs=False, time_sync=True,
        path=PathConfig(clock_offsets_us={"sender": 6_000}),
    )
    res = run_session(config)
    tmp = tmp_path_factory.mktemp("sync")
    path = tmp / "run.jsonl"
    save_trace(res.trace, path)
    raw = AthenaSession(load_trace(path))
    raw_uplink = [v for _, v in raw.owd_timeseries()["rtp_sender_core"]]
    synced = AthenaSession(synchronize_trace(load_trace(path)))
    synced_uplink = [v for _, v in synced.owd_timeseries()["rtp_sender_core"]]
    # The 6 ms-fast sender clock shrank raw OWDs; sync restores them.
    assert np.median(synced_uplink) - np.median(raw_uplink) > 4.0
