"""The VCA receiver: reassembly, jitter buffer, estimation, feedback.

The receiver reassembles frames from RTP packets, plays them through the
adaptive jitter buffer (filling in the per-frame render/stall accounting
the QoE metrics read), runs the delay-based bandwidth estimator on packet
arrivals, and sends an RTCP feedback report every 100 ms carrying the rate
estimate and the delay/jitter statistics Zoom's adaptation reacts to.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..cc.base import CcFeedback, PacketArrival
from ..cc.gcc import GccEstimator
from ..media.jitter import AdaptiveJitterBuffer
from ..media.rtp import FrameAssembly, FrameReassembler
from ..media.svc import CAPTURE_SLOT_US
from ..net.packet import make_feedback_packet
from ..net.topology import CallTopology
from ..core.streaming.live import LiveDiagnosis
from ..sim.engine import Simulator
from ..sim.units import TimeUs, ms, us_to_ms
from ..trace.ids import IdSpace
from ..trace.schema import CapturePoint, FrameRecord, MediaKind, PacketRecord


class VcaReceiver:
    """Receiver endpoint of one call's monitored media direction.

    ``ids`` draws the receiver's RTCP feedback packet identifiers from the
    call's own :class:`~repro.trace.ids.IdSpace`; ``None`` keeps the
    session-ambient allocation of the historical single-call session.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: CallTopology,
        frames_by_id: Dict[int, FrameRecord],
        feedback_interval_us: TimeUs = ms(100.0),
        mask_ran_delay: bool = False,
        jitter_buffer_margin_us: TimeUs = ms(10.0),
        jitter_buffer_beta: float = 4.0,
        diagnosis: Optional[LiveDiagnosis] = None,
        ids: Optional[IdSpace] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.frames_by_id = frames_by_id
        self._ids = ids
        self.estimator = GccEstimator()
        self.feedback_interval_us = feedback_interval_us
        self.mask_ran_delay = mask_ran_delay
        #: When set, §5.3 masking reads RAN-induced delay from the shared
        #: LiveDiagnosis feed instead of the packet's private telemetry hook.
        self.diagnosis = diagnosis
        self.reassembler = FrameReassembler(self._on_frame_complete)
        self.jitter_buffer = AdaptiveJitterBuffer(
            sim,
            nominal_frame_period_us=CAPTURE_SLOT_US,
            min_margin_us=jitter_buffer_margin_us,
            beta=jitter_buffer_beta,
            sink=topology.sink,
        )
        self._owd_window: Deque[Tuple[TimeUs, float]] = deque()
        # Per-SSRC (received count, min seq, max seq); HARQ can reorder
        # packets, so loss is inferred from counts, not sequence gaps.
        self._seq_span: Dict[int, Tuple[int, int, int]] = {}
        self.packets_received = 0
        topology.on_media_arrival = self._on_packet

    def start(self) -> None:
        """Start the periodic feedback timer."""
        self.sim.every(self.feedback_interval_us, self._send_feedback)

    # ------------------------------------------------------------------
    def _on_packet(self, packet: PacketRecord, arrival_us: TimeUs) -> None:
        self.packets_received += 1
        send_us = packet.capture_at(CapturePoint.SENDER)
        if send_us is not None:
            owd_ms = us_to_ms(arrival_us - send_us)
            self._owd_window.append((arrival_us, owd_ms))
            horizon = arrival_us - 2_000_000
            while self._owd_window and self._owd_window[0][0] < horizon:
                self._owd_window.popleft()
            if self.diagnosis is not None:
                fed_us = self.diagnosis.ran_induced_us(packet.packet_id)
                ran_us = fed_us if fed_us is not None else 0
            else:
                ran_us = packet.ran.ran_induced_us() if packet.ran else 0
            adjusted_arrival = arrival_us - ran_us if self.mask_ran_delay else arrival_us
            self.estimator.on_packet(
                PacketArrival(
                    packet_id=packet.packet_id,
                    send_us=send_us,
                    arrival_us=adjusted_arrival,
                    size_bytes=packet.size_bytes,
                    ran_induced_us=ran_us,
                )
            )
        self._track_loss(packet)
        if packet.kind == MediaKind.VIDEO and packet.rtp is not None:
            self.reassembler.on_packet(packet, arrival_us)
        elif packet.kind == MediaKind.AUDIO and packet.rtp is not None:
            frame = self.frames_by_id.get(packet.rtp.frame_id)
            if frame is not None and frame.rendered_us is None:
                # Audio plays through a short fixed buffer; no display
                # accounting follows, so the record is terminal here.
                frame.rendered_us = arrival_us + ms(40.0)
                self.topology.sink.finalize(frame)

    def _track_loss(self, packet: PacketRecord) -> None:
        rtp = packet.rtp
        if rtp is None:
            return
        entry = self._seq_span.get(rtp.ssrc)
        if entry is None:
            self._seq_span[rtp.ssrc] = (1, rtp.seq, rtp.seq)
        else:
            count, lo, hi = entry
            self._seq_span[rtp.ssrc] = (count + 1, min(lo, rtp.seq), max(hi, rtp.seq))

    def _on_frame_complete(self, assembly: FrameAssembly) -> None:
        frame = self.frames_by_id.get(assembly.frame_id)
        if frame is None:
            return
        self.jitter_buffer.on_frame(frame, assembly)

    # ------------------------------------------------------------------
    def loss_ratio(self) -> float:
        """Fraction of RTP packets lost so far (count vs sequence span)."""
        expected = 0
        received = 0
        for count, lo, hi in self._seq_span.values():
            expected += hi - lo + 1
            received += count
        if expected <= 0:
            return 0.0
        return max(0.0, (expected - received) / expected)

    def owd_stats_ms(self) -> Tuple[float, float]:
        """(mean, p95) one-way delay over the recent window."""
        if not self._owd_window:
            return 0.0, 0.0
        values = sorted(owd for _, owd in self._owd_window)
        mean = sum(values) / len(values)
        p95 = values[min(len(values) - 1, int(0.95 * len(values)))]
        return mean, p95

    def _send_feedback(self) -> None:
        mean_owd, p95_owd = self.owd_stats_ms()
        feedback = CcFeedback(
            sent_us=self.sim.now,
            estimated_rate_kbps=self.estimator.estimated_rate_kbps(),
            loss_ratio=self.loss_ratio(),
            mean_owd_ms=mean_owd,
            p95_owd_ms=p95_owd,
            jitter_ms=us_to_ms(int(self.jitter_buffer.jitter_estimate_us())),
        )
        packet = make_feedback_packet(ids=self._ids)
        packet.app_payload = feedback  # type: ignore[attr-defined]
        self.topology.send_feedback(packet)
