"""Receiver-side jitter buffer and display accounting.

The jitter buffer trades mouth-to-ear delay against stall risk (§2): it
holds completed frames until an adaptive playout deadline computed from the
recent minimum transit time plus a jitter-scaled safety margin.  The
renderer tracks how long each frame stayed on screen — the paper's QR-code
+ 70 fps screen-capture methodology — flagging frames displayed much longer
than their packetization interval as stalls.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.units import TimeUs, ms
from ..trace.bus import TraceSink
from ..trace.schema import FrameRecord
from .rtp import FrameAssembly

# Screen-capture sampling used by the paper's methodology: 70 fps.
SCREEN_SAMPLE_US: TimeUs = 14_286

RenderCallback = Callable[[FrameRecord, TimeUs], None]


class AdaptiveJitterBuffer:
    """Playout scheduling with an adaptive delay target.

    Target playout for a frame captured at ``c``::

        playout(c) = c + min_recent_transit + max(min_margin, beta * jitter)

    where ``jitter`` is an EWMA of transit-time variation (RFC 3550 style)
    and ``min_recent_transit`` is tracked over a sliding window so the
    buffer drains after a delay spike subsides.
    """

    def __init__(
        self,
        sim: Simulator,
        nominal_frame_period_us: TimeUs,
        min_margin_us: TimeUs = ms(10.0),
        beta: float = 4.0,
        max_target_us: TimeUs = ms(1_000.0),
        transit_window_us: TimeUs = ms(2_000.0),
        stall_factor: float = 1.8,
        on_render: Optional[RenderCallback] = None,
        sink: Optional[TraceSink] = None,
    ) -> None:
        self._sim = sim
        self._sink = sink
        self.nominal_frame_period_us = nominal_frame_period_us
        self.min_margin_us = min_margin_us
        self.beta = beta
        self.max_target_us = max_target_us
        self.transit_window_us = transit_window_us
        self.stall_factor = stall_factor
        self.on_render = on_render

        self._jitter_us = 0.0
        self._prev_transit: Optional[TimeUs] = None
        self._transits: Deque[Tuple[TimeUs, TimeUs]] = deque()  # (arrival, transit)
        self._last_rendered_capture: Optional[TimeUs] = None
        self._last_render: Optional[Tuple[FrameRecord, TimeUs]] = None
        self.frames_rendered = 0
        self.frames_dropped_late = 0
        self.stalls = 0

    # ------------------------------------------------------------------
    def current_delay_target_us(self) -> TimeUs:
        """The adaptive buffering delay currently applied on top of transit."""
        margin = max(self.min_margin_us, int(self.beta * self._jitter_us))
        return min(margin, self.max_target_us)

    def jitter_estimate_us(self) -> float:
        """EWMA of frame transit-time variation."""
        return self._jitter_us

    def on_frame(self, frame: FrameRecord, assembly: FrameAssembly) -> None:
        """Handle a fully reassembled frame."""
        arrival = assembly.last_arrival_us
        assert arrival is not None
        capture = frame.capture_us
        transit = arrival - capture

        # Jitter EWMA (RFC 3550 §6.4.1 shape).
        if self._prev_transit is not None:
            d = abs(transit - self._prev_transit)
            self._jitter_us += (d - self._jitter_us) / 16.0
        self._prev_transit = transit

        # Sliding-window minimum transit.
        self._transits.append((arrival, transit))
        horizon = arrival - self.transit_window_us
        while self._transits and self._transits[0][0] < horizon:
            self._transits.popleft()
        min_transit = min(t for _, t in self._transits)

        if (
            self._last_rendered_capture is not None
            and capture <= self._last_rendered_capture
        ):
            self.frames_dropped_late += 1
            return

        target = capture + min_transit + self.current_delay_target_us()
        render_at = max(arrival, target, self._sim.now)
        self._last_rendered_capture = capture
        self._sim.post(render_at, lambda: self._render(frame, render_at))

    # ------------------------------------------------------------------
    def _render(self, frame: FrameRecord, render_us: TimeUs) -> None:
        frame.rendered_us = render_us
        if self._last_render is not None:
            prev_frame, prev_render = self._last_render
            duration_us = render_us - prev_render
            # Quantize to the 70 fps screen-capture grid, as the paper's
            # measurement pipeline would observe it.
            samples = max(1, round(duration_us / SCREEN_SAMPLE_US))
            prev_frame.display_duration_us = samples * SCREEN_SAMPLE_US
            if duration_us > self.stall_factor * self.nominal_frame_period_us:
                prev_frame.stalled = True
                self.stalls += 1
            if self._sink is not None:
                # Display accounting only lands when the *next* frame
                # renders, so the previous record is terminal now.
                self._sink.finalize(prev_frame)
        self._last_render = (frame, render_us)
        self.frames_rendered += 1
        if self.on_render is not None:
            self.on_render(frame, render_us)
