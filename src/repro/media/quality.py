"""Picture-quality model and QoE metric computation.

The paper measures SSIM by comparing each received frame against the
corresponding sent frame (QR-code identified).  Received quality is then a
function of how many bits the encoder spent on the frame — we model the
canonical saturating rate-distortion relationship

    SSIM(bpp) = ssim_max - span * exp(-k * bpp)

calibrated so that the paper's operating range (roughly 300–1200 kbps at
360p) lands in Fig 7d's observed 0.80–0.88 band.  The QoE aggregation
functions reproduce the metrics of Fig 7: windowed receive bitrate,
frame-level jitter, rendered frame rate, and the SSIM distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..sim.units import TimeUs, US_PER_SEC, us_to_ms
from ..trace.columnar import ChannelView
from ..trace.schema import CapturePoint, FrameRecord, MediaKind, PacketRecord

#: Packet kinds counted toward the received media bitrate.
_MEDIA_KINDS = (MediaKind.VIDEO, MediaKind.AUDIO)

SSIM_MAX = 0.90
SSIM_SPAN = 0.105
SSIM_K = 11.0


def ssim_from_bpp(bits_per_pixel: float, noise: float = 0.0) -> float:
    """Structural similarity of an encoded frame given its bit budget."""
    if bits_per_pixel < 0:
        raise ValueError(f"bits per pixel must be >= 0: {bits_per_pixel}")
    value = SSIM_MAX - SSIM_SPAN * math.exp(-SSIM_K * bits_per_pixel) + noise
    return float(min(0.99, max(0.40, value)))


@dataclass
class QoeSummary:
    """Fig 7's four metrics, plus stall statistics."""

    receive_bitrate_kbps: List[float]
    frame_jitter_ms: List[float]
    frame_rate_fps: List[float]
    ssim: List[float]
    stall_count: int
    mean_frame_delay_ms: float

    def medians(self) -> dict:
        """Median of each QoE metric (handy for bench tables)."""

        def med(xs: Sequence[float]) -> float:
            return float(np.median(xs)) if len(xs) else float("nan")

        return {
            "bitrate_kbps": med(self.receive_bitrate_kbps),
            "jitter_ms": med(self.frame_jitter_ms),
            "fps": med(self.frame_rate_fps),
            "ssim": med(self.ssim),
        }


def _project(records: Sequence, *fields: Union[str, CapturePoint]) -> List[list]:
    """Per-field value lists of ``records``, in row order.

    A field is a record attribute name, or a :class:`CapturePoint` for each
    packet's stamp at that tap (None where unseen).  A columnar
    :class:`~repro.trace.columnar.ChannelView` decodes the fields straight
    from its columns without building a record; any other sequence is read
    record by record.  The QoE metrics below read their inputs only
    through here, so both trace stores share one implementation.
    """
    if isinstance(records, ChannelView):
        return [
            records.captures_at(f.value)
            if isinstance(f, CapturePoint)
            else records.column(f)
            for f in fields
        ]
    return [
        [r.captures.get(f.value) for r in records]
        if isinstance(f, CapturePoint)
        else list(map(attrgetter(f), records))
        for f in fields
    ]


def windowed_receive_bitrate_kbps(
    packets: Sequence[PacketRecord],
    window_us: TimeUs = US_PER_SEC,
    point: CapturePoint = CapturePoint.RECEIVER,
) -> List[float]:
    """Received media bitrate per window (Fig 7a / Fig 8 top)."""
    kinds, sizes, stamps = _project(packets, "kind", "size_bytes", point)
    arrivals: List[Tuple[TimeUs, int]] = [
        (t, size)
        for kind, size, t in zip(kinds, sizes, stamps)
        if t is not None and kind in _MEDIA_KINDS
    ]
    if not arrivals:
        return []
    arrivals.sort()
    start = arrivals[0][0]
    end = arrivals[-1][0]
    n_windows = int((end - start) // window_us) + 1
    bits = [0.0] * n_windows
    for t, size in arrivals:
        bits[int((t - start) // window_us)] += size * 8
    seconds_per_window = window_us / US_PER_SEC
    return [b / seconds_per_window / 1_000 for b in bits]


def frame_level_jitter_ms(frames: Sequence[FrameRecord]) -> List[float]:
    """Frame-level jitter (Fig 7b): |Δarrival − Δcapture| per frame pair.

    Arrival of a frame is the arrival of its last packet, approximated here
    by the recorded render-ready time.
    """
    return _jitter(*_project(frames, "stream", "capture_us", "rendered_us"))


def _jitter(
    streams: List[str], capture: List[TimeUs], rendered: List[Optional[TimeUs]]
) -> List[float]:
    # Stable sort: frames captured at the same instant keep row order.
    complete = sorted(
        (
            (c, r)
            for s, c, r in zip(streams, capture, rendered)
            if r is not None and s == "video"
        ),
        key=itemgetter(0),
    )
    jitter: List[float] = []
    for (prev_c, prev_r), (cur_c, cur_r) in zip(complete, complete[1:]):
        d_arrival = cur_r - prev_r
        d_capture = cur_c - prev_c
        jitter.append(abs(us_to_ms(d_arrival - d_capture)))
    return jitter


def frame_rate_series(
    frames: Sequence[FrameRecord], window_us: TimeUs = US_PER_SEC
) -> List[float]:
    """Rendered video frames per second, per window (Fig 7c / Fig 8 middle)."""
    return _frame_rate(*_project(frames, "stream", "rendered_us"), window_us)


def _frame_rate(
    streams: List[str], rendered_us: List[Optional[TimeUs]], window_us: TimeUs
) -> List[float]:
    rendered = sorted(
        r for s, r in zip(streams, rendered_us) if r is not None and s == "video"
    )
    if not rendered:
        return []
    start, end = rendered[0], rendered[-1]
    n_windows = int((end - start) // window_us) + 1
    counts = [0] * n_windows
    for t in rendered:
        counts[int((t - start) // window_us)] += 1
    seconds_per_window = window_us / US_PER_SEC
    return [c / seconds_per_window for c in counts]


def ssim_values(frames: Sequence[FrameRecord]) -> List[float]:
    """SSIM of every rendered video frame (Fig 7d)."""
    return _ssim(*_project(frames, "stream", "rendered_us", "ssim"))


def _ssim(
    streams: List[str], rendered: List[Optional[TimeUs]], ssim: List[Optional[float]]
) -> List[float]:
    return [
        q
        for s, r, q in zip(streams, rendered, ssim)
        if q is not None and r is not None and s == "video"
    ]


def qoe_summary(
    packets: Sequence[PacketRecord],
    frames: Sequence[FrameRecord],
    window_us: TimeUs = US_PER_SEC,
) -> QoeSummary:
    """Aggregate all Fig 7 metrics for one experiment run."""
    streams, capture, rendered, ssim, stalled = _project(
        frames, "stream", "capture_us", "rendered_us", "ssim", "stalled"
    )
    delays = [
        us_to_ms(r - c)
        for s, c, r in zip(streams, capture, rendered)
        if r is not None and s == "video"
    ]
    return QoeSummary(
        receive_bitrate_kbps=windowed_receive_bitrate_kbps(packets, window_us),
        frame_jitter_ms=_jitter(streams, capture, rendered),
        frame_rate_fps=_frame_rate(streams, rendered, window_us),
        ssim=_ssim(streams, rendered, ssim),
        stall_count=sum(
            1 for s, stall in zip(streams, stalled) if stall and s == "video"
        ),
        mean_frame_delay_ms=float(np.mean(delays)) if delays else float("nan"),
    )


def cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as (sorted values, cumulative probabilities)."""
    if len(values) == 0:
        return np.array([]), np.array([])
    xs = np.sort(np.asarray(values, dtype=float))
    ps = np.arange(1, len(xs) + 1) / len(xs)
    return xs, ps


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile helper returning NaN on empty input."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))
