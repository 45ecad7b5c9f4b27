"""Root-cause attribution of uplink delay (§3).

Athena's headline capability: explaining *why* a packet or frame was late.
The classifier decomposes each packet's sender→core delay into:

* ``propagation`` — the fixed floor (UE processing + backhaul + one slot);
* ``tdd_alignment`` — waiting for the next uplink slot (bounded by the UL
  period, 2.5 ms by default);
* ``grant_queueing`` — waiting for an uplink grant / behind buffered bytes
  (the BSR scheduling-delay pathology of §3.1);
* ``harq`` — retransmission inflation in multiples of the HARQ RTT (§3.2).

Frame-level diagnoses then label each media unit with the dominant cause
of its delay spread and inflation, which is what Figs 9(a) and 9(b)
visualize.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.units import TimeUs, us_to_ms
from ..trace.schema import (
    CapturePoint,
    FrameRecord,
    MediaKind,
    PacketRecord,
    TbKind,
    Trace,
    TransportBlockRecord,
)

_SENDER = CapturePoint.SENDER.value
_CORE = CapturePoint.CORE.value
_PROACTIVE = TbKind.PROACTIVE


class DelayCause(Enum):
    """Dominant cause labels for frame-level delay events."""

    NONE = "none"
    SCHEDULING_SPREAD = "scheduling_spread"
    HARQ_RETX = "harq_retx"
    QUEUEING = "queueing"


@dataclass
class PacketDelayBreakdown:
    """Per-packet decomposition of the sender→core one-way delay."""

    packet_id: int
    kind: MediaKind
    total_ms: float
    propagation_ms: float
    tdd_alignment_ms: float
    grant_queueing_ms: float
    segmentation_spread_ms: float
    harq_ms: float
    harq_rounds: int

    def residual_ms(self) -> float:
        """Delay not explained by the known components (should be ~0)."""
        explained = (
            self.propagation_ms
            + self.tdd_alignment_ms
            + self.grant_queueing_ms
            + self.segmentation_spread_ms
            + self.harq_ms
        )
        return self.total_ms - explained


@dataclass
class FrameDiagnosis:
    """Frame-level delay event with its dominant cause."""

    frame_id: int
    stream: str
    spread_ms: float
    max_packet_delay_ms: float
    harq_rounds: int
    proactive_bytes: int
    requested_bytes: int
    cause: DelayCause


@dataclass
class RootCauseReport:
    """Aggregate attribution over a whole trace."""

    packet_breakdowns: List[PacketDelayBreakdown]
    frame_diagnoses: List[FrameDiagnosis]
    cause_counts: Counter = field(default_factory=Counter)

    def mean_component_ms(self) -> Dict[str, float]:
        """Mean per-packet delay contribution of each component."""
        if not self.packet_breakdowns:
            return {}
        return {
            "propagation": float(
                np.mean([b.propagation_ms for b in self.packet_breakdowns])
            ),
            "tdd_alignment": float(
                np.mean([b.tdd_alignment_ms for b in self.packet_breakdowns])
            ),
            "grant_queueing": float(
                np.mean([b.grant_queueing_ms for b in self.packet_breakdowns])
            ),
            "segmentation_spread": float(
                np.mean(
                    [b.segmentation_spread_ms for b in self.packet_breakdowns]
                )
            ),
            "harq": float(np.mean([b.harq_ms for b in self.packet_breakdowns])),
        }


def delay_components_ms(
    packet: PacketRecord,
) -> Optional[Tuple[float, float, float, float, float, float]]:
    """One packet's uplink delay split from its RAN telemetry, or None.

    The tuple is ``(total, propagation, tdd_alignment, grant_queueing,
    segmentation_spread, harq)`` in milliseconds, the field order of
    :class:`PacketDelayBreakdown`.  The propagation floor is inferred as
    the residual.
    """
    delay_us = packet.one_way_delay_us(_SENDER, _CORE)
    t = packet.ran
    if delay_us is None or t is None:
        return None
    total_ms = us_to_ms(delay_us)
    harq_ms = us_to_ms(t.harq_delay_us)
    align_ms = us_to_ms(t.sched_wait_us)
    queue_ms = us_to_ms(t.queue_wait_us)
    spread_ms = us_to_ms(t.spread_wait_us)
    propagation_ms = max(
        0.0, total_ms - harq_ms - align_ms - queue_ms - spread_ms
    )
    return total_ms, propagation_ms, align_ms, queue_ms, spread_ms, harq_ms


def packet_breakdown(
    packet: PacketRecord, floor_ms: float
) -> Optional[PacketDelayBreakdown]:
    """Decompose one packet's uplink delay using RAN telemetry."""
    del floor_ms  # the floor is inferred as the residual
    parts = delay_components_ms(packet)
    if parts is None:
        return None
    return PacketDelayBreakdown(
        packet.packet_id,
        packet.kind,
        *parts,
        harq_rounds=packet.ran.harq_rounds,
    )


def diagnose_frame(
    frame: FrameRecord,
    packet_index: Dict[int, PacketRecord],
    tb_index: Dict[int, TransportBlockRecord],
    ul_period_ms: float = 2.5,
    harq_rtt_ms: float = 10.0,
) -> Optional[FrameDiagnosis]:
    """Label one media unit with its dominant delay cause."""
    core_times: List[TimeUs] = []
    delays: List[float] = []
    harq_rounds = 0
    proactive_bytes = 0
    requested_bytes = 0
    for pid in frame.packet_ids:
        packet = packet_index.get(pid)
        if packet is None:
            continue
        captures = packet.captures
        t_core = captures.get(_CORE)
        t_send = captures.get(_SENDER)
        if t_core is None or t_send is None:
            continue
        core_times.append(t_core)
        delays.append(us_to_ms(t_core - t_send))
        ran = packet.ran
        if ran is not None:
            harq_rounds = max(harq_rounds, ran.harq_rounds)
            for tb_id in ran.tb_ids:
                tb = tb_index.get(tb_id)
                if tb is None:
                    continue
                share = packet.size_bytes  # coarse: attribute packet to TB kind
                if tb.kind == _PROACTIVE:
                    proactive_bytes += share
                else:
                    requested_bytes += share
    if not core_times:
        return None
    spread_ms = us_to_ms(max(core_times) - min(core_times))
    max_delay_ms = max(delays)

    cause = DelayCause.NONE
    if harq_rounds > 0 and max_delay_ms >= harq_rtt_ms:
        cause = DelayCause.HARQ_RETX
    elif max_delay_ms > 3.0 * harq_rtt_ms:
        cause = DelayCause.QUEUEING
    elif spread_ms >= ul_period_ms:
        cause = DelayCause.SCHEDULING_SPREAD
    return FrameDiagnosis(
        frame_id=frame.frame_id,
        stream=frame.stream,
        spread_ms=spread_ms,
        max_packet_delay_ms=max_delay_ms,
        harq_rounds=harq_rounds,
        proactive_bytes=proactive_bytes,
        requested_bytes=requested_bytes,
        cause=cause,
    )


def analyze_root_causes(
    trace: Trace,
    ul_period_ms: float = 2.5,
    harq_rtt_ms: float = 10.0,
) -> RootCauseReport:
    """Full root-cause attribution over a trace.

    Implemented as a replay over the incremental
    :class:`~repro.core.streaming.operators.RootCauseOperator`, the same
    operator that feeds :class:`~repro.core.streaming.live.LiveDiagnosis`
    during a live session.
    """
    from .streaming.operators import RootCauseOperator
    from .streaming.replay import replay_trace

    op = RootCauseOperator(ul_period_ms=ul_period_ms, harq_rtt_ms=harq_rtt_ms)
    result = replay_trace(trace, [op])[op.name]
    assert isinstance(result, RootCauseReport)
    return result
