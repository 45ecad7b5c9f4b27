"""Cross-layer correlation: transport blocks ↔ packets ↔ frames.

This is Athena's step (2): "precisely time-synchronize this data with
packet captures at the network layer and correlate physical transport
blocks with network datagrams" (§1).  The sniffer sees TB sizes and timing
but not payloads, so the mapping must be *inferred*: we replay the UE's
FIFO buffer byte-accounting against the TB sequence — a packet captured at
the sender enters the virtual buffer at its send time, and each TB drains
bytes in order.  The simulator also carries ground-truth packet⇄TB links,
which lets tests quantify the inference accuracy.

Step (3) — packets to frames — uses the RTP frame id from header
extensions when available, with a burst-clustering fallback for encrypted
traffic (the approach of passive Zoom measurement work the paper builds
on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.units import TimeUs, ms
from ..trace.schema import CapturePoint, PacketRecord, Trace


@dataclass
class TbPacketMatch:
    """Inferred assignment of one packet's bytes to transport blocks."""

    packet_id: int
    tb_ids: List[int]
    first_tb_slot_us: Optional[TimeUs]
    predicted_delivery_us: Optional[TimeUs]
    harq_rounds: int


@dataclass
class CorrelationResult:
    """Outcome of the TB↔packet inference over a trace."""

    matches: Dict[int, TbPacketMatch]
    unmatched_packets: List[int]
    empty_tbs: List[int]
    # Packets evicted from the replay because the core tap proved they had
    # already been delivered — i.e. the sniffer missed the TB carrying them.
    evicted_packets: List[int] = field(default_factory=list)

    def accuracy_against_ground_truth(self, trace: Trace) -> float:
        """Fraction of packets whose inferred TB set equals the true one."""
        truth: Dict[int, List[int]] = {}
        for tb in trace.transport_blocks:
            for pid in tb.packet_ids:
                truth.setdefault(pid, []).append(tb.tb_id)
        if not truth:
            return float("nan")
        correct = 0
        checked = 0
        for pid, true_tbs in truth.items():
            match = self.matches.get(pid)
            if match is None:
                checked += 1
                continue
            checked += 1
            if sorted(match.tb_ids) == sorted(true_tbs):
                correct += 1
        return correct / checked if checked else float("nan")


def correlate_tbs_to_packets(
    trace: Trace,
    ue_id: int,
    enqueue_latency_us: TimeUs = 250,
    slot_us: TimeUs = 500,
    decode_delay_us: TimeUs = 0,
    harq_rtt_us: TimeUs = ms(10.0),
) -> CorrelationResult:
    """Infer which TBs carried which captured packets by FIFO replay.

    ``enqueue_latency_us`` models the sender-stack latency between the
    packet capture at tap 1 and the packet entering the UE's MAC buffer
    (the same constant the RAN applies).

    The replay self-heals against sniffer telemetry loss: if a queued
    packet's core capture (tap 2) shows it was delivered before the current
    slot, the sniffer must have missed the TB that carried it, so the
    packet is evicted (reported in ``evicted_packets``) and byte accounting
    resynchronizes instead of cascading.

    Implemented as a replay over the incremental
    :class:`~repro.core.streaming.operators.TbPacketCorrelator` — the same
    operator an :class:`~repro.core.streaming.tap.AnalysisTap` can run
    live, so there is exactly one byte-accounting implementation.
    """
    from .streaming.operators import TbPacketCorrelator
    from .streaming.replay import replay_trace

    op = TbPacketCorrelator(
        ue_id=ue_id,
        enqueue_latency_us=enqueue_latency_us,
        slot_us=slot_us,
        decode_delay_us=decode_delay_us,
        harq_rtt_us=harq_rtt_us,
    )
    result = replay_trace(trace, [op])[op.name]
    assert isinstance(result, CorrelationResult)
    return result


# ----------------------------------------------------------------------
# Packets -> frames
# ----------------------------------------------------------------------
@dataclass
class FrameCluster:
    """Packets grouped into one inferred media unit."""

    packet_ids: List[int] = field(default_factory=list)
    first_send_us: TimeUs = 0
    last_send_us: TimeUs = 0
    total_bytes: int = 0


def correlate_packets_to_frames(
    trace: Trace, use_rtp: bool = True, burst_gap_us: TimeUs = 5_000
) -> Dict[int, FrameCluster]:
    """Group video packets into media units.

    With RTP metadata (unencrypted header extensions) grouping is exact by
    frame id.  Without (``use_rtp=False``) we fall back to clustering the
    sender-side capture times: packets separated by less than
    ``burst_gap_us`` belong to the same burst/frame.

    Implemented as a replay over the incremental
    :class:`~repro.core.streaming.operators.FrameClusterOperator` (the
    §5.2 learned grant path trains on the same operator's live output).
    """
    from .streaming.operators import FrameClusterOperator
    from .streaming.replay import replay_trace

    op = FrameClusterOperator(use_rtp=use_rtp, burst_gap_us=burst_gap_us)
    result = replay_trace(trace, [op])[op.name]
    assert isinstance(result, dict)
    return result


def _add_to_cluster(cluster: FrameCluster, packet: PacketRecord) -> None:
    send = packet.capture_at(CapturePoint.SENDER)
    if not cluster.packet_ids:
        cluster.first_send_us = send
    cluster.packet_ids.append(packet.packet_id)
    cluster.last_send_us = max(cluster.last_send_us, send)
    cluster.total_bytes += packet.size_bytes


def clustering_accuracy(trace: Trace, clusters: Dict[int, FrameCluster]) -> float:
    """Fraction of true video frames recovered exactly by burst clustering.

    Only packets actually observed at the sender tap count — a frame cut
    off by the end of the capture is compared against its observed prefix.
    """
    observed = {
        p.packet_id
        for p in trace.packets
        if p.capture_at(CapturePoint.SENDER) is not None
    }
    truth: Dict[int, List[int]] = {}
    for frame in trace.frames:
        if frame.stream == "video":
            pids = sorted(pid for pid in frame.packet_ids if pid in observed)
            if pids:
                truth[frame.frame_id] = pids
    if not truth:
        return float("nan")
    recovered = {tuple(sorted(c.packet_ids)) for c in clusters.values()}
    hit = sum(1 for pids in truth.values() if tuple(pids) in recovered)
    return hit / len(truth)
