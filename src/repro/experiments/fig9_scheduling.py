"""Fig 9 — Time-series examples of the cross-layer Zoom trace.

(a) Link-layer scheduling: a video frame's packet burst trickles out over
    proactive TBs in 2.5 ms steps until the BSR-requested grant arrives
    ~10 ms later and drains the buffer; over-granting leaves requested TBs
    unused.
(b) Link-layer retransmissions: failed TBs inflate the delay of the packets
    they carry in 10 ms multiples; even empty TBs get retransmitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.api import AthenaSession, SchedulingTimeline
from ..core.report import format_table
from ..phy.params import RanConfig
from ..sim.units import ms, seconds, us_to_ms
from ..trace.schema import CapturePoint, MediaKind, TbKind
from .common import cached_run_session, idle_cell_scenario


@dataclass
class Fig9aResult:
    """Scheduling timeline plus the frame-burst statistics it explains."""

    timeline: SchedulingTimeline
    frame_spread_ms: List[float]
    proactive_utilization: float
    requested_utilization: float
    unused_requested_tbs: int
    requested_tbs: int

    def median_spread_ms(self) -> float:
        """Median frame-level delay spread in the analyzed run."""
        return float(np.median(self.frame_spread_ms)) if self.frame_spread_ms else float("nan")

    def summary(self) -> str:
        """Bench-ready description of the Fig 9a mechanism."""
        tl = self.timeline
        rows = [
            ["proactive TBs in window",
             sum(1 for tb in tl.transport_blocks if tb.kind == TbKind.PROACTIVE)],
            ["requested TBs in window",
             sum(1 for tb in tl.transport_blocks if tb.kind == TbKind.REQUESTED)],
            ["unused (over-granted) TBs in window", len(tl.unused_tbs())],
            ["median frame spread (ms)", self.median_spread_ms()],
            ["proactive grant utilization", self.proactive_utilization],
            ["requested grant utilization", self.requested_utilization],
            ["unused requested TBs (run-wide)",
             f"{self.unused_requested_tbs}/{self.requested_tbs}"],
        ]
        return format_table(["quantity", "value"], rows)


@dataclass
class Fig9bResult:
    """Retransmission timeline plus the delay-inflation statistics."""

    timeline: SchedulingTimeline
    retx_tbs: int
    total_tbs: int
    empty_retx_tbs: int
    inflation_no_retx_ms: List[float]
    inflation_with_retx_ms: List[float]

    def mean_inflation_step_ms(self) -> float:
        """Mean extra delay of retransmitted packets over clean ones."""
        if not self.inflation_no_retx_ms or not self.inflation_with_retx_ms:
            return float("nan")
        return float(
            np.mean(self.inflation_with_retx_ms) - np.mean(self.inflation_no_retx_ms)
        )

    def summary(self) -> str:
        """Bench-ready description of the Fig 9b mechanism."""
        rows = [
            ["TBs with retransmissions", f"{self.retx_tbs}/{self.total_tbs}"],
            ["empty TBs retransmitted", self.empty_retx_tbs],
            ["clean packet delay (ms, mean)",
             float(np.mean(self.inflation_no_retx_ms)) if self.inflation_no_retx_ms else float("nan")],
            ["retx packet delay (ms, mean)",
             float(np.mean(self.inflation_with_retx_ms)) if self.inflation_with_retx_ms else float("nan")],
            ["delay inflation per retx (ms)", self.mean_inflation_step_ms()],
        ]
        return format_table(["quantity", "value"], rows)


def _find_burst_window(athena: AthenaSession, min_packets: int = 4):
    """Locate a video-frame burst to center the Fig 9 window on."""
    for frame in athena.trace.frames:
        if frame.stream == "video" and len(frame.packet_ids) >= min_packets:
            start = frame.capture_us
            return max(0, start - ms(5.0)), start + ms(115.0)
    return 0, ms(120.0)


def run_fig9a(duration_s: float = 20.0, seed: int = 7) -> Fig9aResult:
    """Regenerate Fig 9(a): the scheduling delay-spread mechanism."""
    config = idle_cell_scenario(
        duration_s=duration_s,
        seed=seed,
        fixed_bitrate_kbps=900.0,  # several packets per frame, as in the trace
        record_tbs=True,
        # Isolate scheduling from HARQ.
        ran=RanConfig(base_bler=0.0, retx_bler=0.0),
    )
    result = cached_run_session(config)
    athena = AthenaSession(result.trace)
    start, end = _find_burst_window(athena)
    timeline = athena.scheduling_timeline(start, end)
    spreads = [
        s for s in athena.delay_spread_cdf(CapturePoint.CORE, stream="video")
    ]
    eff = athena.grant_efficiency()
    requested = [
        tb for tb in result.trace.transport_blocks if tb.kind == TbKind.REQUESTED
    ]
    return Fig9aResult(
        timeline=timeline,
        frame_spread_ms=spreads,
        proactive_utilization=eff[TbKind.PROACTIVE.value],
        requested_utilization=eff[TbKind.REQUESTED.value],
        unused_requested_tbs=sum(1 for tb in requested if tb.is_empty),
        requested_tbs=len(requested),
    )


def run_fig9b(
    duration_s: float = 30.0, seed: int = 7, bler: float = 0.25
) -> Fig9bResult:
    """Regenerate Fig 9(b): HARQ delay inflation in 10 ms steps."""
    ran = RanConfig(base_bler=bler, retx_bler=bler)
    config = idle_cell_scenario(
        duration_s=duration_s,
        seed=seed,
        ran=ran,
        fixed_bitrate_kbps=900.0,
        record_tbs=True,
    )
    result = cached_run_session(config)
    athena = AthenaSession(result.trace)
    start, end = _find_burst_window(athena)
    timeline = athena.scheduling_timeline(start, end + ms(40.0))
    clean: List[float] = []
    inflated: List[float] = []
    for packet in result.trace.packets:
        if packet.kind != MediaKind.VIDEO or packet.ran is None:
            continue
        owd_us = packet.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE)
        if owd_us is None:
            continue
        if packet.ran.harq_rounds == 1:
            inflated.append(us_to_ms(owd_us))
        elif packet.ran.harq_rounds == 0:
            clean.append(us_to_ms(owd_us))
    tbs = result.trace.transport_blocks
    return Fig9bResult(
        timeline=timeline,
        retx_tbs=sum(1 for tb in tbs if tb.is_retx),
        total_tbs=len(tbs),
        empty_retx_tbs=sum(1 for tb in tbs if tb.is_retx and tb.is_empty),
        inflation_no_retx_ms=clean,
        inflation_with_retx_ms=inflated,
    )
