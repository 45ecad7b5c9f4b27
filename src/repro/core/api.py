"""The Athena session API: one object that answers the paper's questions.

``AthenaSession`` wraps a :class:`~repro.trace.schema.Trace` (from a live
simulation or loaded from disk) and exposes the cross-layer analyses:

* :meth:`owd_timeseries` — Fig 3's three delay series;
* :meth:`ran_delay_by_media` — Fig 4's audio/video RAN-delay CDFs;
* :meth:`delay_spread_cdf` — Fig 5's sender vs core spread, with the
  2.5 ms quantization detector;
* :meth:`adaptation_timeseries` — Fig 8's per-layer bitrate / frame rate /
  delay series;
* :meth:`scheduling_timeline` — the packet+TB timeline of Fig 9;
* :meth:`root_causes` — §3's delay attribution;
* :meth:`correlate` — the TB↔packet inference with accuracy scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..media.quality import QoeSummary, qoe_summary
from ..media.svc import SvcLayer
from ..sim.units import TimeUs, US_PER_SEC, us_to_ms
from ..trace.schema import (
    CapturePoint,
    MediaKind,
    PacketRecord,
    TbKind,
    Trace,
    TransportBlockRecord,
)
from .correlator import CorrelationResult, correlate_tbs_to_packets
from .delay import (
    OwdPoint,
    SpreadSample,
    delay_spread,
    detect_quantization,
    owd_series,
    probe_owd_series,
    ran_delay_by_media,
)
from .rootcause import RootCauseReport, analyze_root_causes


@dataclass
class TimelineEntry:
    """One packet's life in a Fig 9-style timeline window."""

    packet_id: int
    kind: MediaKind
    send_us: TimeUs
    core_us: Optional[TimeUs]
    tb_ids: List[int]


@dataclass
class SchedulingTimeline:
    """Synchronized packet + TB view of a time window (Fig 9)."""

    start_us: TimeUs
    end_us: TimeUs
    packets: List[TimelineEntry]
    transport_blocks: List[TransportBlockRecord]

    def used_tbs(self) -> List[TransportBlockRecord]:
        """TBs that carried data in the window."""
        return [tb for tb in self.transport_blocks if not tb.is_empty]

    def unused_tbs(self) -> List[TransportBlockRecord]:
        """Granted-but-empty TBs (wasted bandwidth)."""
        return [tb for tb in self.transport_blocks if tb.is_empty]

    def retransmitted_tbs(self) -> List[TransportBlockRecord]:
        """TBs that needed at least one HARQ retransmission."""
        return [tb for tb in self.transport_blocks if tb.is_retx]


@dataclass
class AdaptationSeries:
    """Fig 8's three stacked time series."""

    window_s: List[float]
    bitrate_kbps_by_layer: Dict[str, List[float]]
    frame_rate_fps: List[float]
    delay_ms_p50: List[float]
    delay_ms_p95: List[float]


class AthenaSession:
    """Cross-layer analysis over one experiment trace."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._packet_index = trace.packet_index()

    # ------------------------------------------------------------------
    # Fig 3
    # ------------------------------------------------------------------
    def owd_timeseries(self) -> Dict[str, List[Tuple[float, float]]]:
        """(send time s, OWD ms) series for RAN uplink, WAN+SFU, and ICMP."""
        media = (MediaKind.VIDEO, MediaKind.AUDIO)
        uplink = owd_series(
            self.trace.packets, CapturePoint.SENDER, CapturePoint.CORE, media
        )
        downstream = owd_series(
            self.trace.packets, CapturePoint.CORE, CapturePoint.RECEIVER, media
        )
        probes = probe_owd_series(self.trace.probes)
        return {
            "rtp_sender_core": [(p.send_us / US_PER_SEC, p.owd_ms) for p in uplink],
            "rtp_core_receiver": [
                (p.send_us / US_PER_SEC, p.owd_ms) for p in downstream
            ],
            "icmp": [(t / US_PER_SEC, owd) for t, owd in probes],
        }

    # ------------------------------------------------------------------
    # Fig 4
    # ------------------------------------------------------------------
    def ran_delay_by_media(self) -> Dict[str, List[float]]:
        """Sender→core delay distributions for audio and video packets."""
        return ran_delay_by_media(self.trace.packets)

    # ------------------------------------------------------------------
    # Fig 5
    # ------------------------------------------------------------------
    def delay_spread_cdf(
        self, point: CapturePoint, stream: Optional[str] = None
    ) -> List[float]:
        """Per-media-unit delay spread (ms) at a capture point."""
        samples = delay_spread(self.trace.frames, self._packet_index, point)
        return [
            s.spread_ms
            for s in samples
            if stream is None or s.stream == stream
        ]

    def spread_samples(self, point: CapturePoint) -> List[SpreadSample]:
        """Full spread samples (with packet counts) at a capture point."""
        return delay_spread(self.trace.frames, self._packet_index, point)

    def spread_quantization(
        self, point: CapturePoint = CapturePoint.CORE
    ) -> Tuple[float, float]:
        """Detected quantization step of the delay spread (step_ms, score)."""
        spreads = [s for s in self.delay_spread_cdf(point) if s > 0]
        if not spreads:
            return 0.0, float("nan")
        return detect_quantization(spreads)

    # ------------------------------------------------------------------
    # Fig 7
    # ------------------------------------------------------------------
    def qoe(self) -> QoeSummary:
        """QoE metric bundle for this trace."""
        return qoe_summary(self.trace.packets, self.trace.frames)

    # ------------------------------------------------------------------
    # Fig 8
    # ------------------------------------------------------------------
    def adaptation_timeseries(self, window_us: TimeUs = US_PER_SEC) -> AdaptationSeries:
        """Per-window bitrate by SVC layer, frame rate, and delay."""
        layer_names = {
            int(SvcLayer.BASE): "base",
            int(SvcLayer.LOW_FPS_ENH): "low_fps_enh",
            int(SvcLayer.HIGH_FPS_ENH): "high_fps_enh",
            -1: "audio",
        }
        arrivals: List[Tuple[TimeUs, str, int]] = []
        for p in self.trace.packets:
            t = p.capture_at(CapturePoint.RECEIVER)
            if t is None or p.rtp is None:
                continue
            name = (
                "audio"
                if p.kind == MediaKind.AUDIO
                else layer_names.get(p.rtp.layer_id, "base")
            )
            arrivals.append((t, name, p.size_bytes))
        renders = [
            f.rendered_us
            for f in self.trace.frames
            if f.stream == "video" and f.rendered_us is not None
        ]
        owds = [
            (p.send_us, p.owd_ms)
            for p in owd_series(
                self.trace.packets,
                CapturePoint.SENDER,
                CapturePoint.RECEIVER,
                (MediaKind.VIDEO, MediaKind.AUDIO),
            )
        ]
        if not arrivals:
            return AdaptationSeries([], {}, [], [], [])
        start = min(t for t, _, _ in arrivals)
        end = max(t for t, _, _ in arrivals)
        n = int((end - start) // window_us) + 1
        seconds_per_window = window_us / US_PER_SEC
        by_layer = {name: [0.0] * n for name in set(layer_names.values())}
        for t, name, size in arrivals:
            by_layer[name][int((t - start) // window_us)] += size * 8
        for name in by_layer:
            by_layer[name] = [
                b / seconds_per_window / 1_000 for b in by_layer[name]
            ]
        fps = [0.0] * n
        for t in renders:
            idx = int((t - start) // window_us)
            if 0 <= idx < n:
                fps[idx] += 1.0 / seconds_per_window
        delay_bins: List[List[float]] = [[] for _ in range(n)]
        for t, owd in owds:
            idx = int((t - start) // window_us)
            if 0 <= idx < n:
                delay_bins[idx].append(owd)
        p50 = [float(np.median(b)) if b else float("nan") for b in delay_bins]
        p95 = [
            float(np.percentile(b, 95)) if b else float("nan") for b in delay_bins
        ]
        return AdaptationSeries(
            window_s=[(start + i * window_us) / US_PER_SEC for i in range(n)],
            bitrate_kbps_by_layer=by_layer,
            frame_rate_fps=fps,
            delay_ms_p50=p50,
            delay_ms_p95=p95,
        )

    # ------------------------------------------------------------------
    # Fig 9
    # ------------------------------------------------------------------
    def scheduling_timeline(
        self, start_us: TimeUs, end_us: TimeUs
    ) -> SchedulingTimeline:
        """Synchronized packet + TB view of ``[start_us, end_us)``."""
        entries: List[TimelineEntry] = []
        for p in self.trace.packets:
            send = p.capture_at(CapturePoint.SENDER)
            if send is None or not start_us <= send < end_us:
                continue
            entries.append(
                TimelineEntry(
                    packet_id=p.packet_id,
                    kind=p.kind,
                    send_us=send,
                    core_us=p.capture_at(CapturePoint.CORE),
                    tb_ids=list(p.ran.tb_ids) if p.ran else [],
                )
            )
        tbs = [
            tb
            for tb in self.trace.transport_blocks
            if start_us <= tb.slot_us < end_us
        ]
        entries.sort(key=lambda e: e.send_us)
        tbs.sort(key=lambda tb: tb.slot_us)
        return SchedulingTimeline(
            start_us=start_us, end_us=end_us, packets=entries, transport_blocks=tbs
        )

    # ------------------------------------------------------------------
    # §3 attribution and correlation
    # ------------------------------------------------------------------
    def root_causes(
        self, ul_period_ms: float = 2.5, harq_rtt_ms: float = 10.0
    ) -> RootCauseReport:
        """Delay attribution across the trace."""
        return analyze_root_causes(self.trace, ul_period_ms, harq_rtt_ms)

    def correlate(self, ue_id: int = 1, **kwargs) -> CorrelationResult:
        """Infer the TB↔packet mapping from timing and sizes alone."""
        return correlate_tbs_to_packets(self.trace, ue_id, **kwargs)

    # ------------------------------------------------------------------
    # Screen-capture observer (the paper's QR methodology)
    # ------------------------------------------------------------------
    def screen_observation(
        self, start_us: TimeUs = 0, end_us: Optional[TimeUs] = None
    ):
        """Replay the paper's 70 fps screen sampling over rendered frames."""
        from ..media.screen import capture_screen

        if end_us is None:
            renders = [
                f.rendered_us
                for f in self.trace.frames
                if f.rendered_us is not None
            ]
            end_us = max(renders) if renders else 0
        return capture_screen(self.trace.frames, start_us, end_us)

    # ------------------------------------------------------------------
    # Grant efficiency (over-granting, §3.1)
    # ------------------------------------------------------------------
    def grant_efficiency(self) -> Dict[str, float]:
        """Fraction of granted bits used, by grant kind."""
        stats: Dict[str, List[int]] = {
            TbKind.PROACTIVE.value: [0, 0],
            TbKind.REQUESTED.value: [0, 0],
        }
        for tb in self.trace.transport_blocks:
            used, granted = stats[tb.kind.value]
            stats[tb.kind.value] = [used + tb.used_bits, granted + tb.size_bits]
        out: Dict[str, float] = {}
        for kind, (used, granted) in stats.items():
            out[kind] = used / granted if granted else float("nan")
        return out
