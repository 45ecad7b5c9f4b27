"""Fig 10 — GCC on an idle private 5G network detects phantom overuse.

One VCA flow, no competing traffic: the network is consistently idle, yet
the filtered one-way delay gradient fluctuates with the RAN's scheduling
quantization (2.5 ms slots, ~10 ms BSR loop, 10 ms HARQ steps) and crosses
the adaptive threshold, so the detector repeatedly declares overuse —
"falsely react[ing] to phantom network fluctuations" (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..app.session import run_session
from ..cc.base import BandwidthSignal, EstimatorHistory
from ..core.report import format_table
from .common import idle_cell_scenario


@dataclass
class Fig10Result:
    """The estimator's diagnostic series over an idle-cell session."""

    history: EstimatorHistory

    def gradient_series(self) -> List[float]:
        """Filtered delay gradient (trendline slope) per sample."""
        return [s.filtered_gradient for s in self.history.samples]

    def threshold_series(self) -> List[float]:
        """Adaptive threshold per sample (modified-trend scale)."""
        return [s.threshold for s in self.history.samples]

    def overuse_events(self) -> int:
        """Number of samples the detector flagged as overuse."""
        return self.history.overuse_count()

    def gradient_volatility(self) -> float:
        """Standard deviation of the filtered gradient (idle net ⇒ ~0 ideal)."""
        grads = self.gradient_series()
        return float(np.std(grads)) if grads else float("nan")

    def summary(self) -> str:
        """Bench-ready report of the phantom-overuse behaviour."""
        signals = [s.signal for s in self.history.samples]
        rows = [
            ["samples", len(signals)],
            ["overuse samples", self.overuse_events()],
            ["overuse fraction", self.history.overuse_fraction()],
            ["underuse samples",
             sum(1 for s in signals if s == BandwidthSignal.UNDERUSE)],
            ["gradient std", self.gradient_volatility()],
            ["gradient min",
             min(self.gradient_series()) if signals else float("nan")],
            ["gradient max",
             max(self.gradient_series()) if signals else float("nan")],
        ]
        return format_table(["quantity", "value"], rows)


def run_fig10(
    duration_s: float = 60.0, seed: int = 7, per_packet: bool = True
) -> Fig10Result:
    """Regenerate Fig 10's filtered-gradient/overuse series.

    The paper plots the gradient against *packet index*, i.e. it evaluates
    the filter per packet rather than per 5 ms send group — which is what
    makes the RAN's 2.5 ms delay spread look like queue growth.  Set
    ``per_packet=False`` for WebRTC's default grouping.
    """
    from ..cc.base import PacketArrival
    from ..cc.gcc import GccConfig, GccEstimator
    from ..trace.schema import CapturePoint

    config = idle_cell_scenario(
        duration_s=duration_s, seed=seed, record_tbs=False
    )
    result = run_session(config)
    if not per_packet:
        return Fig10Result(history=result.receiver.estimator.history)
    estimator = GccEstimator(GccConfig(burst_time_us=0))
    arrivals = []
    for p in result.trace.packets:
        send = p.capture_at(CapturePoint.SENDER)
        arrival = p.capture_at(CapturePoint.RECEIVER)
        if send is None or arrival is None:
            continue
        arrivals.append(
            PacketArrival(
                packet_id=p.packet_id,
                send_us=send,
                arrival_us=arrival,
                size_bytes=p.size_bytes,
            )
        )
    arrivals.sort(key=lambda a: a.arrival_us)
    for arrival in arrivals:
        estimator.on_packet(arrival)
    return Fig10Result(history=estimator.history)
