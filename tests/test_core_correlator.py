"""Tests for cross-layer correlation: TB↔packet inference and frame
clustering."""

import pytest

from repro.app import ScenarioConfig, run_session
from repro.phy import RanConfig
from repro.core import (
    clustering_accuracy,
    correlate_packets_to_frames,
    correlate_tbs_to_packets,
)
from repro.trace import (
    CapturePoint,
    MediaKind,
    PacketRecord,
    TbKind,
    Trace,
    TransportBlockRecord,
)


def _session_trace():
    config = ScenarioConfig(duration_s=6.0, seed=11, record_tbs=True,
                            ran=RanConfig(base_bler=0.0, retx_bler=0.0))
    return run_session(config).trace


class TestTbPacketInference:
    def test_perfect_inference_on_clean_run(self):
        trace = _session_trace()
        result = correlate_tbs_to_packets(trace, ue_id=1)
        accuracy = result.accuracy_against_ground_truth(trace)
        assert accuracy == pytest.approx(1.0)

    def test_inference_with_harq_still_accurate(self):
        config = ScenarioConfig(duration_s=6.0, seed=11, record_tbs=True,
                                ran=RanConfig(base_bler=0.15, retx_bler=0.15))
        trace = run_session(config).trace
        result = correlate_tbs_to_packets(trace, ue_id=1)
        assert result.accuracy_against_ground_truth(trace) > 0.9

    def test_predicted_delivery_matches_core_capture(self):
        trace = _session_trace()
        result = correlate_tbs_to_packets(trace, ue_id=1)
        index = trace.packet_index()
        checked = 0
        for pid, match in result.matches.items():
            packet = index.get(pid)
            if packet is None or match.predicted_delivery_us is None:
                continue
            core = packet.capture_at(CapturePoint.CORE)
            if core is None:
                continue
            # Prediction is decode time; the core tap adds the backhaul.
            assert core - match.predicted_delivery_us == 1_000
            checked += 1
        assert checked > 50

    def test_empty_tbs_identified(self):
        trace = _session_trace()
        result = correlate_tbs_to_packets(trace, ue_id=1)
        true_empty = {tb.tb_id for tb in trace.transport_blocks if tb.is_empty}
        assert set(result.empty_tbs) == true_empty

    def test_handles_trace_without_tbs(self):
        trace = Trace()
        p = PacketRecord(packet_id=1, flow_id="v", kind=MediaKind.VIDEO,
                         size_bytes=1_000)
        p.set_capture(CapturePoint.SENDER, 0)
        trace.packets.append(p)
        result = correlate_tbs_to_packets(trace, ue_id=1)
        assert result.matches == {}
        assert result.unmatched_packets == [1]


class TestFrameClustering:
    def test_rtp_grouping_is_exact(self):
        trace = _session_trace()
        clusters = correlate_packets_to_frames(trace, use_rtp=True)
        assert clustering_accuracy(trace, clusters) == pytest.approx(1.0)

    def test_burst_clustering_recovers_most_frames(self):
        trace = _session_trace()
        clusters = correlate_packets_to_frames(trace, use_rtp=False)
        # Encrypted-traffic fallback: no RTP metadata, only timing.
        assert clustering_accuracy(trace, clusters) > 0.6

    def test_cluster_byte_totals(self):
        trace = _session_trace()
        clusters = correlate_packets_to_frames(trace, use_rtp=True)
        index = trace.packet_index()
        for cluster in clusters.values():
            total = sum(index[pid].size_bytes for pid in cluster.packet_ids)
            assert total == cluster.total_bytes

    def test_empty_trace(self):
        assert correlate_packets_to_frames(Trace()) == {}
