"""Streaming session report: the ``athena-repro analyze`` accumulator.

:class:`StreamingReportOperator` reproduces the sections of
:func:`repro.core.report.athena_report` from a single pass over the
records, without ever holding the trace:

* distributions (one-way delays, RAN delay by media, delay spread) live in
  fixed-width histograms — percentiles come from the cumulative bin counts,
  means from exact running sums;
* the delay-spread quantization detector runs on the binned values with
  per-bin weights (the batch detector's score, weighted);
* QoE series use per-second windows, O(duration seconds), not O(packets);
* the delay decomposition and frame causes come from an embedded
  :class:`~repro.core.streaming.operators.RootCauseOperator` running with
  ``retain_results=False``.

Memory is O(bins + seconds + watermark window) — bounded for arbitrarily
long sessions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...sim.units import TimeUs, US_PER_SEC, us_to_ms
from ...trace.schema import (
    CapturePoint,
    FrameRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    TbKind,
    TransportBlockRecord,
)
from ..report import CDF_HEADERS, format_table
from .base import StreamOperator, WATERMARK_END
from .operators import RootCauseOperator

_SENDER = CapturePoint.SENDER.value
_CORE = CapturePoint.CORE.value
_RECEIVER = CapturePoint.RECEIVER.value


class Histogram:
    """Fixed-bin histogram with exact count/mean and binned percentiles."""

    def __init__(self, bin_width: float, max_value: float) -> None:
        if bin_width <= 0 or max_value <= bin_width:
            raise ValueError("need bin_width > 0 and max_value > bin_width")
        self.bin_width = bin_width
        self.n_bins = int(max_value / bin_width) + 1
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        idx = int(value / self.bin_width)
        idx = max(0, min(idx, self.n_bins - 1))
        self._counts[idx] = self._counts.get(idx, 0) + 1
        self.count += 1
        self.total += value

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Approximate percentile: the center of the bin holding rank q%."""
        if self.count == 0:
            return float("nan")
        rank = q / 100.0 * self.count
        seen = 0
        for idx in sorted(self._counts):
            seen += self._counts[idx]
            if seen >= rank:
                return (idx + 0.5) * self.bin_width
        idx = max(self._counts)
        return (idx + 0.5) * self.bin_width

    def binned_values(self) -> List[Tuple[float, int]]:
        """(bin center, count) pairs for weighted downstream analysis."""
        return [
            ((idx + 0.5) * self.bin_width, n)
            for idx, n in sorted(self._counts.items())
        ]

    def summary_row(self, name: str) -> List[object]:
        """A :data:`repro.core.report.CDF_HEADERS` row for this histogram."""
        return [
            name,
            self.percentile(10),
            self.percentile(50),
            self.percentile(90),
            self.percentile(99),
            self.mean(),
        ]


def quantization_from_histogram(
    binned: Sequence[Tuple[float, int]],
    candidates_ms: Sequence[float] = (0.5, 1.0, 2.0, 2.5, 5.0, 10.0),
) -> Tuple[float, float]:
    """Weighted version of :func:`repro.core.delay.detect_quantization`.

    Operates on (value, count) pairs from a histogram instead of raw
    samples; the scoring and step-selection rules are the batch ones.
    """

    def score(step: float) -> float:
        weight = 0
        dist = 0.0
        for value, n in binned:
            if value < step / 2:
                continue
            frac = (value / step) % 1.0
            dist += min(frac, 1.0 - frac) * n
            weight += n
        return dist / weight if weight else 0.5

    best_step = 0.0
    for step in sorted(candidates_ms):
        if score(step) < 0.125:
            best_step = step
    if best_step == 0.0:
        best_step = min(candidates_ms, key=score)
    return best_step, score(best_step)


class StreamingReportOperator(StreamOperator):
    """Everything ``athena-repro analyze`` prints, in one bounded pass."""

    channels = ("packet", "tb", "grant", "frame", "probe", "sync")
    watermark_channels = ("packet", "frame")
    name = "report"

    def __init__(
        self,
        window_us: TimeUs = US_PER_SEC,
        delay_bin_ms: float = 0.05,
        delay_max_ms: float = 5_000.0,
    ) -> None:
        self.window_us = window_us
        self.record_counts: Dict[str, int] = {ch: 0 for ch in self.channels}
        # Fig 3: per-segment one-way delays.
        self.owd_ms = {
            "rtp_sender_core": Histogram(delay_bin_ms, delay_max_ms),
            "rtp_core_receiver": Histogram(delay_bin_ms, delay_max_ms),
            "icmp": Histogram(delay_bin_ms, delay_max_ms),
        }
        # Fig 4: RAN uplink delay by media kind.
        self.ran_delay_ms = {
            "audio": Histogram(delay_bin_ms, delay_max_ms),
            "video": Histogram(delay_bin_ms, delay_max_ms),
        }
        # Fig 5: core delay spread, fed from the embedded root-cause
        # operator's frame diagnoses (spread is measured at the core tap).
        self.spread = Histogram(delay_bin_ms, delay_max_ms)
        self.root_causes = RootCauseOperator(
            retain_results=False, on_diagnosis=self._on_diagnosis
        )
        # Grant utilization: running (used, granted) bits by grant kind.
        self._grant_bits: Dict[str, List[int]] = {
            TbKind.PROACTIVE.value: [0, 0],
            TbKind.REQUESTED.value: [0, 0],
        }
        # QoE: per-second windows and bounded frame accumulators.
        self._bitrate_windows: Dict[int, float] = {}
        self._fps_windows: Dict[int, int] = {}
        self.jitter = Histogram(0.01, 2_000.0)
        self.ssim = Histogram(0.001, 1.0)
        self.stall_count = 0
        self._last_video_frame: Optional[Tuple[TimeUs, TimeUs]] = None

    # ------------------------------------------------------------------
    def on_record(self, channel: str, record: object) -> None:
        self.record_counts[channel] += 1
        if channel == "packet":
            assert isinstance(record, PacketRecord)
            self._on_packet(record)
            self.root_causes.on_record(channel, record)
        elif channel == "tb":
            assert isinstance(record, TransportBlockRecord)
            used, granted = self._grant_bits[record.kind.value]
            self._grant_bits[record.kind.value] = [
                used + record.used_bits,
                granted + record.size_bits,
            ]
            self.root_causes.on_record(channel, record)
        elif channel == "frame":
            assert isinstance(record, FrameRecord)
            self._on_frame(record)
            self.root_causes.on_record(channel, record)
        elif channel == "probe":
            assert isinstance(record, ProbeRecord)
            if record.received_us is not None:
                rtt_us = record.received_us - record.sent_us
                self.owd_ms["icmp"].add(us_to_ms(rtt_us) / 2.0)

    def on_watermark(self, watermark_us: TimeUs) -> None:
        self.root_causes.on_watermark(watermark_us)

    def finish(self) -> "StreamingReportOperator":
        self.root_causes.on_watermark(WATERMARK_END)
        return self

    def result(self) -> "StreamingReportOperator":
        return self

    # ------------------------------------------------------------------
    def _on_packet(self, packet: PacketRecord) -> None:
        if packet.kind not in (MediaKind.VIDEO, MediaKind.AUDIO):
            return
        uplink = packet.one_way_delay_us(_SENDER, _CORE)
        if uplink is not None:
            self.owd_ms["rtp_sender_core"].add(us_to_ms(uplink))
            self.ran_delay_ms[packet.kind.value].add(us_to_ms(uplink))
        downstream = packet.one_way_delay_us(_CORE, _RECEIVER)
        if downstream is not None:
            self.owd_ms["rtp_core_receiver"].add(us_to_ms(downstream))
        arrival = packet.capture_at(_RECEIVER)
        if arrival is not None:
            window = int(arrival // self.window_us)
            self._bitrate_windows[window] = (
                self._bitrate_windows.get(window, 0.0) + packet.size_bytes * 8
            )

    def _on_frame(self, frame: FrameRecord) -> None:
        if frame.stream != "video":
            return
        if frame.stalled:
            self.stall_count += 1
        if frame.rendered_us is None:
            return
        window = int(frame.rendered_us // self.window_us)
        self._fps_windows[window] = self._fps_windows.get(window, 0) + 1
        if frame.ssim is not None:
            self.ssim.add(frame.ssim)
        if self._last_video_frame is not None:
            prev_capture, prev_rendered = self._last_video_frame
            if frame.capture_us > prev_capture:
                d_arrival = frame.rendered_us - prev_rendered
                d_capture = frame.capture_us - prev_capture
                self.jitter.add(abs(us_to_ms(d_arrival - d_capture)))
        if (
            self._last_video_frame is None
            or frame.capture_us > self._last_video_frame[0]
        ):
            self._last_video_frame = (frame.capture_us, frame.rendered_us)

    def _on_diagnosis(self, diagnosis) -> None:
        self.spread.add(diagnosis.spread_ms)

    # ------------------------------------------------------------------
    def grant_efficiency(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for kind, (used, granted) in self._grant_bits.items():
            out[kind] = used / granted if granted else float("nan")
        return out

    def qoe_medians(self) -> Dict[str, float]:
        def med(values: Sequence[float]) -> float:
            return float(np.median(list(values))) if values else float("nan")

        seconds = self.window_us / US_PER_SEC
        return {
            "bitrate_kbps": med(
                [b / seconds / 1_000 for b in self._bitrate_windows.values()]
            ),
            "fps": med([c / seconds for c in self._fps_windows.values()]),
            "jitter_ms": self.jitter.percentile(50),
            "ssim": self.ssim.percentile(50),
        }


def render_streaming_report(report: StreamingReportOperator) -> str:
    """Plain-text report with the sections of ``athena_report``."""
    sections: List[str] = []
    counts = report.record_counts
    sections.append(
        f"records: {counts['packet']} packets, "
        f"{counts['tb']} transport blocks, "
        f"{counts['grant']} grants, {counts['frame']} media units, "
        f"{counts['probe']} probes, "
        f"{counts['sync']} sync exchanges"
    )

    if any(h.count for h in report.owd_ms.values()):
        rows = [h.summary_row(name) for name, h in report.owd_ms.items()]
        sections.append(
            "one-way delay (ms) per path segment:\n"
            + format_table(CDF_HEADERS, rows)
        )

    if any(h.count for h in report.ran_delay_ms.values()):
        rows = [h.summary_row(name) for name, h in report.ran_delay_ms.items()]
        sections.append(
            "RAN delay by media kind (ms):\n" + format_table(CDF_HEADERS, rows)
        )

    if report.spread.count:
        positive = [(v, n) for v, n in report.spread.binned_values() if v > 0]
        if positive:
            step, score = quantization_from_histogram(positive)
        else:
            step, score = 0.0, float("nan")
        sections.append(
            "delay spread at the core (ms):\n"
            + format_table(CDF_HEADERS, [report.spread.summary_row("spread")])
            + f"\nquantization step: {step:.1f} ms (lattice score {score:.4f})"
        )

    if counts["tb"]:
        eff = report.grant_efficiency()
        sections.append(
            "grant utilization: "
            + ", ".join(f"{k} {100 * v:.0f}%" for k, v in eff.items())
        )
        components = report.root_causes.breakdown_op.mean_component_ms()
        if components:
            rows = [[k, v] for k, v in components.items()]
            sections.append(
                "mean uplink delay decomposition (ms/packet):\n"
                + format_table(["component", "ms"], rows)
            )
        cause_counts = report.root_causes.cause_counts
        if cause_counts:
            rows = [[c.value, n] for c, n in cause_counts.most_common()]
            sections.append(
                "dominant frame-delay causes:\n"
                + format_table(["cause", "media units"], rows)
            )

    medians = report.qoe_medians()
    sections.append(
        f"QoE medians: {medians['bitrate_kbps']:.0f} kbps, "
        f"{medians['fps']:.1f} fps, jitter {medians['jitter_ms']:.2f} ms, "
        f"SSIM {medians['ssim']:.3f}, {report.stall_count} stalls"
    )

    divider = "\n" + "-" * 64 + "\n"
    return divider.join(sections)
