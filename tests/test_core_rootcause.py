"""Tests for root-cause delay attribution (§3)."""

import pytest

from repro.app import ScenarioConfig, run_session
from repro.core import DelayCause, analyze_root_causes
from repro.core.rootcause import delay_components_ms
from repro.phy import RanConfig
from repro.trace import (
    CapturePoint,
    MediaKind,
    PacketRecord,
    RanPacketTelemetry,
)


def _telemetry_packet(total_ms, align_ms=0.0, queue_ms=0.0, spread_ms=0.0,
                      harq_ms=0.0, rounds=0):
    p = PacketRecord(packet_id=1, flow_id="v", kind=MediaKind.VIDEO,
                     size_bytes=1_000)
    p.set_capture(CapturePoint.SENDER, 0)
    p.set_capture(CapturePoint.CORE, int(total_ms * 1_000))
    p.ran = RanPacketTelemetry(
        enqueue_us=0,
        sched_wait_us=int(align_ms * 1_000),
        queue_wait_us=int(queue_ms * 1_000),
        spread_wait_us=int(spread_ms * 1_000),
        harq_delay_us=int(harq_ms * 1_000),
        harq_rounds=rounds,
    )
    return p


class TestPacketBreakdown:
    def test_components_reported(self):
        p = _telemetry_packet(16.0, align_ms=2.0, queue_ms=1.0, harq_ms=10.0,
                              rounds=1)
        total, propagation, align, queue, spread, harq = delay_components_ms(p)
        assert total == pytest.approx(16.0)
        assert align == pytest.approx(2.0)
        assert queue == pytest.approx(1.0)
        assert harq == pytest.approx(10.0)
        assert propagation == pytest.approx(3.0)
        assert total == pytest.approx(
            propagation + align + queue + spread + harq, abs=1e-9
        )

    def test_none_without_telemetry(self):
        p = PacketRecord(packet_id=1, flow_id="v", kind=MediaKind.VIDEO,
                         size_bytes=100)
        p.set_capture(CapturePoint.SENDER, 0)
        p.set_capture(CapturePoint.CORE, 1_000)
        assert delay_components_ms(p) is None

    def test_none_without_core_capture(self):
        p = _telemetry_packet(10.0)
        del p.captures[CapturePoint.CORE.value]
        assert delay_components_ms(p) is None


class TestEndToEndAttribution:
    def _report(self, bler, duration=8.0):
        config = ScenarioConfig(duration_s=duration, seed=5, record_tbs=True,
                                fixed_bitrate_kbps=900.0,
                                ran=RanConfig(base_bler=bler, retx_bler=bler))
        result = run_session(config)
        return analyze_root_causes(result.trace)

    def test_clean_channel_attributes_no_harq(self):
        report = self._report(bler=0.0)
        components = report.mean_component_ms()
        assert components["harq"] == 0.0
        assert components["tdd_alignment"] > 0.0
        assert report.cause_counts[DelayCause.HARQ_RETX] == 0

    def test_scheduling_spread_dominates_clean_channel(self):
        report = self._report(bler=0.0)
        video = [d for d in report.frame_diagnoses if d.stream == "video"]
        spread_frames = [d for d in video
                         if d.cause == DelayCause.SCHEDULING_SPREAD]
        assert len(spread_frames) > 0.5 * len(video)

    def test_lossy_channel_adds_harq_attribution(self):
        report = self._report(bler=0.3)
        components = report.mean_component_ms()
        assert components["harq"] > 0.5
        assert report.cause_counts[DelayCause.HARQ_RETX] > 0

    def test_residuals_near_zero(self):
        report = self._report(bler=0.2)
        # Every packet's delay must be fully explained by telemetry
        # components plus the fixed propagation floor.
        for b in report.packet_breakdowns:
            assert abs(b.residual_ms()) < 0.01

    def test_frame_diagnosis_spread_quantized(self):
        report = self._report(bler=0.0)
        spreads = [d.spread_ms for d in report.frame_diagnoses
                   if d.stream == "video" and d.spread_ms > 0]
        assert spreads
        for s in spreads:
            assert (s % 2.5) == pytest.approx(0.0, abs=0.01)
