"""Tests for the trace synchronization pipeline (Athena step 2)."""

import copy

import numpy as np
import pytest

from repro.app import ScenarioConfig, run_session
from repro.core import AthenaSession, estimate_host_offsets, synchronize_trace
from repro.net.topology import PathConfig
from repro.trace import CapturePoint, MediaKind


OFFSETS = {"sender": 8_000, "receiver": -5_000, "sfu": 2_500}


def _desynced_session(duration=10.0, seed=3):
    config = ScenarioConfig(
        duration_s=duration,
        seed=seed,
        record_tbs=False,
        time_sync=True,
        path=PathConfig(clock_offsets_us=dict(OFFSETS)),
    )
    return run_session(config)


@pytest.fixture(scope="module")
def desynced():
    return _desynced_session()


@pytest.fixture(scope="module")
def reference():
    return run_session(
        ScenarioConfig(duration_s=10.0, seed=3, record_tbs=False)
    )


def _uplink_owds_ms(trace):
    return [
        d / 1_000
        for p in trace.packets
        if p.kind in (MediaKind.VIDEO, MediaKind.AUDIO)
        and (d := p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE))
        is not None
    ]


def test_sync_exchanges_recorded(desynced):
    hosts = {r.host for r in desynced.trace.sync_exchanges}
    assert hosts == {"sender", "receiver", "sfu"}
    assert len(desynced.trace.sync_exchanges) >= 20


def test_raw_trace_owds_are_skewed(desynced, reference):
    raw = np.median(_uplink_owds_ms(desynced.trace))
    truth = np.median(_uplink_owds_ms(reference.trace))
    # Sender clock runs 8 ms fast: measured uplink OWD shrinks by ~8 ms.
    assert raw == pytest.approx(truth - 8.0, abs=1.0)


def test_offset_estimation_accuracy(desynced):
    sync = estimate_host_offsets(desynced.trace)
    for host, true_offset in OFFSETS.items():
        assert sync.offsets_us[host] == pytest.approx(true_offset, abs=1_500)


def test_synchronized_owds_match_reference(desynced, reference):
    sync = estimate_host_offsets(desynced.trace)
    synced = synchronize_trace(desynced.trace, sync)
    fixed = np.median(_uplink_owds_ms(synced))
    truth = np.median(_uplink_owds_ms(reference.trace))
    assert fixed == pytest.approx(truth, abs=1.5)
    assert synced.metadata["synchronized"] is True
    assert synced.metadata["estimated_offsets_us"] == sync.offsets_us


def test_synchronize_leaves_its_input_unchanged(desynced):
    trace = desynced.trace
    captures = [dict(p.captures) for p in trace.packets]
    metadata = copy.deepcopy(trace.metadata)
    synced = synchronize_trace(trace)
    assert synced is not trace
    assert [p.captures for p in trace.packets] == captures
    assert repr(trace.metadata) == repr(metadata)
    assert "synchronized" not in trace.metadata
    # The sender's fast clock moved every synced sender stamp back.
    sender = CapturePoint.SENDER.value
    shifted = [
        (before[sender], after.captures[sender])
        for before, after in zip(captures, synced.packets)
        if sender in before
    ]
    assert shifted and all(after < before for before, after in shifted)
    assert synced.sync_exchanges == list(trace.sync_exchanges)


def test_analytics_recover_after_sync():
    result = _desynced_session(seed=5)
    athena = AthenaSession(synchronize_trace(result.trace))
    series = athena.owd_timeseries()
    uplink = [v for _, v in series["rtp_sender_core"]]
    # After alignment the uplink delay floor is physical again (>= ~2 ms
    # TDD alignment + slot + backhaul), not shifted negative by the clock.
    assert min(uplink) > 1.0
    step, score = athena.spread_quantization()
    assert step == 2.5 and score < 0.05


def test_drift_fit_variant(desynced):
    sync = estimate_host_offsets(desynced.trace, fit_drift=True)
    # No drift configured: the linear fit should find ~0 ppm.
    for host in OFFSETS:
        assert abs(sync.drift_ppm[host]) < 50.0
