"""The VCA sender: capture clocks, encoding, packetization, rate control.

The video capture clock ticks at the full 28 fps rate; the adaptation
policy decides per slot whether a frame is encoded and at which SVC layer.
Audio samples go out every 20 ms regardless.  Feedback reports from the
receiver steer both the encoder bitrate (congestion control) and the frame
rate mode (Zoom's adaptation policy).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cc.base import CcFeedback
from ..cc.gcc import LossBasedController
from ..media.audio import AudioSource
from ..media.codec import VideoEncoder
from ..media.rtp import RtpPacketizer
from ..media.svc import CAPTURE_SLOT_US, FpsMode, layer_for_slot, nominal_fps
from ..net.packet import AUDIO_SSRC, VIDEO_SSRC
from ..net.topology import CallTopology
from ..sim.engine import Simulator
from ..sim.units import TimeUs
from ..trace.ids import IdSpace, new_frame_id
from ..trace.schema import FrameRecord, MediaKind, PacketRecord
from .adaptation import ZoomAdaptationPolicy


class VcaSender:
    """Sender endpoint of one call's monitored media direction.

    ``call_id`` switches the sender into multi-call mode: flows are named
    ``call<k>.video``/``call<k>.audio``, SSRCs are offset per call, frames
    are call-tagged, and ``ids`` draws frame/packet identifiers from the
    call's own :class:`~repro.trace.ids.IdSpace`.  With ``call_id=None``
    (the historical single-call session) nothing changes.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: CallTopology,
        rng: np.random.Generator,
        encoder: Optional[VideoEncoder] = None,
        audio: Optional[AudioSource] = None,
        policy: Optional[ZoomAdaptationPolicy] = None,
        audio_kbps_estimate: float = 80.0,
        fixed_mode: Optional[FpsMode] = None,
        fixed_bitrate_kbps: Optional[float] = None,
        burst_spacing_us: int = 30,  # NIC serialization between burst packets
        call_id: Optional[int] = None,
        ids: Optional[IdSpace] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.encoder = encoder or VideoEncoder(rng)
        self.audio = audio or AudioSource(rng)
        self.policy = policy or ZoomAdaptationPolicy()
        self.audio_kbps_estimate = audio_kbps_estimate
        self.fixed_mode = fixed_mode
        self.fixed_bitrate_kbps = fixed_bitrate_kbps
        self.burst_spacing_us = burst_spacing_us
        self.call_id = call_id
        self._ids = ids
        flow_prefix = "" if call_id is None else f"call{call_id}."
        ssrc_offset = 0 if call_id is None else call_id
        self.video_packetizer = RtpPacketizer(
            f"{flow_prefix}video",
            MediaKind.VIDEO,
            ssrc=VIDEO_SSRC + ssrc_offset,
            ids=ids,
        )
        self.audio_packetizer = RtpPacketizer(
            f"{flow_prefix}audio",
            MediaKind.AUDIO,
            ssrc=AUDIO_SSRC + ssrc_offset,
            ids=ids,
        )
        self.frames_by_id: Dict[int, FrameRecord] = {}
        self._slot_index = 0
        self.mode_series = []  # (time_us, FpsMode) transitions for Fig 8
        self.rate_series = []  # (time_us, target_kbps)
        topology.on_feedback_arrival = self._on_feedback
        self._loss_based = LossBasedController(
            initial_rate_kbps=self.encoder.target_bitrate_kbps
        )
        if fixed_bitrate_kbps is not None:
            self.encoder.set_target_bitrate(fixed_bitrate_kbps)
        if fixed_mode is not None:
            self.policy.mode = fixed_mode
        self.mode_series.append((0, self.policy.mode))

    def start(self) -> None:
        """Start the capture clocks."""
        self.sim.every(CAPTURE_SLOT_US, self._video_slot)
        self.sim.every(self.audio.sample_interval_us, self._audio_tick)

    # ------------------------------------------------------------------
    @property
    def mode(self) -> FpsMode:
        """Current frame-rate operating mode."""
        return self.fixed_mode or self.policy.mode

    def _video_slot(self) -> None:
        slot = self._slot_index
        self._slot_index += 1
        layer = layer_for_slot(self.mode, slot)
        if layer is None:
            return
        self.encoder.set_frame_rate(nominal_fps(self.mode))
        encoded = self.encoder.encode(layer)
        frame_id = self._new_frame_id()
        now = self.sim.now
        frame = FrameRecord(
            frame_id=frame_id,
            stream="video",
            capture_us=now,
            encode_done_us=now,
            size_bytes=encoded.size_bytes,
            svc_layer=int(layer),
            target_fps=nominal_fps(self.mode),
            ssim=encoded.ssim,
            call_id=self.call_id,
        )
        packets = self.video_packetizer.packetize(
            frame_id, int(layer), encoded.size_bytes, now
        )
        frame.packet_ids = [p.packet_id for p in packets]
        self.frames_by_id[frame_id] = frame
        # Render/stall accounting lands at playout; the jitter buffer (or
        # run teardown) finalizes the record.
        self.topology.sink.emit(frame, final=False)
        self._send_burst(packets)

    def _send_burst(self, packets) -> None:
        """Send a frame's packets back-to-back at NIC serialization pace."""
        now = self.sim.now
        for i, packet in enumerate(packets):
            if i == 0 or self.burst_spacing_us <= 0:
                self.topology.send_media(packet)
            else:
                self.sim.post(
                    now + i * self.burst_spacing_us,
                    lambda p=packet: self.topology.send_media(p),
                )

    def _new_frame_id(self) -> int:
        return (
            self._ids.next_frame_id() if self._ids is not None else new_frame_id()
        )

    def _audio_tick(self) -> None:
        sample = self.audio.next_sample()
        frame_id = self._new_frame_id()
        now = self.sim.now
        frame = FrameRecord(
            frame_id=frame_id,
            stream="audio",
            capture_us=now,
            encode_done_us=now,
            size_bytes=sample.size_bytes,
            svc_layer=-1,
            target_fps=0.0,
            call_id=self.call_id,
        )
        packets = self.audio_packetizer.packetize(
            frame_id, -1, sample.size_bytes, now
        )
        frame.packet_ids = [p.packet_id for p in packets]
        self.frames_by_id[frame_id] = frame
        self.topology.sink.emit(frame, final=False)
        for packet in packets:
            self.topology.send_media(packet)

    # ------------------------------------------------------------------
    def _on_feedback(self, packet: PacketRecord, _arrival: TimeUs) -> None:
        feedback: Optional[CcFeedback] = getattr(packet, "app_payload", None)
        if feedback is None:
            return
        now = self.sim.now
        if self.fixed_mode is None:
            previous = self.policy.mode
            mode = self.policy.update(now, feedback.p95_owd_ms, feedback.jitter_ms)
            if mode is not previous:
                self.mode_series.append((now, mode))
        if self.fixed_bitrate_kbps is None:
            loss_cap_kbps = self._loss_based.on_loss_report(feedback.loss_ratio)
            video_rate_kbps = (
                min(feedback.estimated_rate_kbps, loss_cap_kbps)
                - self.audio_kbps_estimate
            )
            self.encoder.set_target_bitrate(video_rate_kbps)
            self.rate_series.append((now, self.encoder.target_bitrate_kbps))
