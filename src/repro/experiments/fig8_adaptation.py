"""Fig 8 — How Zoom adapts: SVC layer set, frame rate, and delay.

Zoom reacts to very high absolute delay (>1 s) by switching the SVC layer
set and "more permanently" reducing the frame rate to 14 fps; under high
jitter it transiently skips frames down to rates around 20 fps.  We drive
the call through a saturation episode and report the per-layer bitrate,
frame-rate, and delay time series, plus the observed mode transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..app.session import run_session
from ..core.api import AdaptationSeries, AthenaSession
from ..core.report import format_table
from ..media.svc import FpsMode
from ..sim.units import seconds, us_to_sec
from .common import saturating_scenario


@dataclass
class Fig8Result:
    """Fig 8's stacked time series and the adaptation transitions."""

    series: AdaptationSeries
    mode_transitions: List[Tuple[float, FpsMode]]  # (time s, new mode)

    def modes_seen(self) -> List[FpsMode]:
        """Distinct operating modes in order of first appearance."""
        seen: List[FpsMode] = []
        for _, mode in self.mode_transitions:
            if mode not in seen:
                seen.append(mode)
        return seen

    def fps_during(self, start_s: float, end_s: float) -> float:
        """Median rendered fps within a time window."""
        values = [
            fps
            for t, fps in zip(self.series.window_s, self.series.frame_rate_fps)
            if start_s <= t < end_s
        ]
        return float(np.median(values)) if values else float("nan")

    def peak_delay_ms(self) -> float:
        """Highest per-window p95 one-way delay."""
        vals = [v for v in self.series.delay_ms_p95 if v == v]
        return max(vals) if vals else float("nan")

    def summary(self) -> str:
        """Bench-ready report: transitions and per-phase frame rates."""
        rows = [[f"{t:.1f}", mode.value] for t, mode in self.mode_transitions]
        table = format_table(["time (s)", "mode"], rows)
        duration_s = self.series.window_s[-1] if self.series.window_s else 0.0
        phases = [
            ("pre-overload", 0.0, duration_s / 3),
            ("overload", duration_s / 3, 2 * duration_s / 3),
            ("recovery", 2 * duration_s / 3, duration_s + 1),
        ]
        phase_rows = [
            [name, self.fps_during(a, b)] for name, a, b in phases
        ]
        return (
            f"mode transitions:\n{table}\n"
            f"peak p95 delay: {self.peak_delay_ms():.0f} ms\n"
            + format_table(["phase", "median fps"], phase_rows)
        )


def run_fig8(duration_s: float = 90.0, seed: int = 7) -> Fig8Result:
    """Regenerate Fig 8's adaptation time series.

    The middle third combines heavy cross traffic with a deep fade of the
    monitored UE's channel (mobility), under which its uplink queue grows
    past one second — the condition that flips Zoom into the persistent
    14 fps SVC layer set.
    """
    third = seconds(duration_s / 3)
    config = saturating_scenario(
        duration_s=duration_s,
        seed=seed,
        record_tbs=False,
        channel_phases=[
            (0, 20, 0.08),  # healthy: 64QAM, nominal BLER
            (third, 2, 0.45),  # deep fade: QPSK, heavy retransmissions
            (2 * third, 20, 0.08),  # recovered
        ],
    )
    result = run_session(config)
    athena = AthenaSession(result.trace)
    series = athena.adaptation_timeseries()
    transitions = [
        (us_to_sec(t), mode) for t, mode in result.sender.mode_series
    ]
    return Fig8Result(series=series, mode_transitions=transitions)
