"""Tests for the AthenaSession facade."""

import numpy as np
import pytest

from repro.app import ScenarioConfig, run_session
from repro.core import AthenaSession
from repro.phy import RanConfig
from repro.sim import ms, seconds
from repro.trace import CapturePoint, TbKind


@pytest.fixture(scope="module")
def session():
    config = ScenarioConfig(duration_s=10.0, seed=9, record_tbs=True,
                            ran=RanConfig(base_bler=0.05, retx_bler=0.05))
    return run_session(config)


@pytest.fixture(scope="module")
def athena(session):
    return AthenaSession(session.trace)


class TestOwdTimeseries:
    def test_three_series_present(self, athena):
        series = athena.owd_timeseries()
        assert set(series) == {"rtp_sender_core", "rtp_core_receiver", "icmp"}
        assert all(len(v) > 10 for v in series.values())

    def test_fig3_ordering(self, athena):
        """ICMP is the most stable; the RAN uplink is the most jittery."""
        series = athena.owd_timeseries()

        def spread(name):
            vals = [v for _, v in series[name]]
            return np.percentile(vals, 95) - np.percentile(vals, 5)

        assert spread("icmp") < spread("rtp_core_receiver")
        assert spread("rtp_core_receiver") < spread("rtp_sender_core")


class TestFig4And5:
    def test_audio_delay_below_video(self, athena):
        delays = athena.ran_delay_by_media()
        assert np.median(delays["audio"]) < np.median(delays["video"])

    def test_spread_zero_at_sender_positive_at_core(self, athena):
        sender = athena.delay_spread_cdf(CapturePoint.SENDER, stream="video")
        core = athena.delay_spread_cdf(CapturePoint.CORE, stream="video")
        assert np.median(sender) < 0.5
        assert np.median(core) >= 2.5

    def test_quantization_detects_tdd_period(self, athena):
        step, score = athena.spread_quantization()
        assert step == 2.5
        assert score < 0.05


class TestTimelineAndGrants:
    def test_scheduling_timeline_window(self, athena):
        tl = athena.scheduling_timeline(seconds(1.0), seconds(1.2))
        assert tl.packets
        assert tl.transport_blocks
        for p in tl.packets:
            assert seconds(1.0) <= p.send_us < seconds(1.2)
        for tb in tl.transport_blocks:
            assert seconds(1.0) <= tb.slot_us < seconds(1.2)

    def test_timeline_classification_helpers(self, athena):
        tl = athena.scheduling_timeline(0, seconds(10.0))
        used = tl.used_tbs()
        unused = tl.unused_tbs()
        assert len(used) + len(unused) == len(tl.transport_blocks)
        assert all(not tb.is_empty for tb in used)
        assert tl.retransmitted_tbs()  # bler 0.05 run has some

    def test_grant_efficiency_shows_overgranting(self, athena):
        eff = athena.grant_efficiency()
        # Requested grants are sized for stale BSRs: mostly wasted (§3.1).
        assert eff[TbKind.REQUESTED.value] < 0.6
        assert 0.0 < eff[TbKind.PROACTIVE.value] < 1.0


class TestQoeAndAdaptation:
    def test_qoe_bundle(self, athena):
        qoe = athena.qoe()
        assert qoe.receive_bitrate_kbps
        assert qoe.frame_rate_fps
        medians = qoe.medians()
        assert medians["fps"] > 20  # idle cell: full rate sustained

    def test_adaptation_series_layers(self, athena):
        series = athena.adaptation_timeseries()
        assert "base" in series.bitrate_kbps_by_layer
        assert "audio" in series.bitrate_kbps_by_layer
        # At 28 fps both base and high-FPS enhancement carry traffic.
        assert sum(series.bitrate_kbps_by_layer["base"]) > 0
        assert sum(series.bitrate_kbps_by_layer["high_fps_enh"]) > 0
        assert sum(series.bitrate_kbps_by_layer["low_fps_enh"]) == 0
        assert len(series.frame_rate_fps) == len(series.window_s)

    def test_root_causes_accessible(self, athena):
        report = athena.root_causes()
        assert report.packet_breakdowns
        assert report.frame_diagnoses

    def test_correlate_from_facade(self, athena, session):
        result = athena.correlate(ue_id=1)
        assert result.accuracy_against_ground_truth(session.trace) > 0.9
