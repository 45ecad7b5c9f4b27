"""The user-equipment side of the uplink: buffer, TB assembly, telemetry.

A :class:`UePhy` owns the transmission buffer and, when the scheduler hands
it a grant for an uplink slot, assembles a transport block: it drains bytes
FIFO from the buffer (segmenting packets where needed), piggybacks a Buffer
Status Report if data remains, and runs the TB through HARQ.  It also fills
in the per-packet :class:`~repro.trace.schema.RanPacketTelemetry` that the
§5.3 mitigation exports to the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..sim.engine import Simulator
from ..sim.units import TimeUs
from ..trace.bus import TraceSink
from ..trace.ids import new_tb_id
from ..trace.schema import (
    PacketRecord,
    RanPacketTelemetry,
    TbKind,
    TransportBlockRecord,
)
from .buffer import UeBuffer
from .channel import ChannelState, FixedChannel
from .harq import run_harq
from .params import RanConfig
from .tdd import TddFrame

PacketSink = Callable[[PacketRecord, TimeUs], None]


@dataclass
class TbBuildResult:
    """What the scheduler needs to know after a TB was assembled."""

    tb: TransportBlockRecord
    prbs_used: int
    harq_rounds: int
    lost: bool
    bsr_bytes: Optional[int]  # buffer status carried in this TB (None if empty)
    bsr_delivered_us: Optional[TimeUs]  # when the gNB learns the BSR


class _PacketProgress:
    """Decode bookkeeping for one packet spread over one or more TBs."""

    __slots__ = ("decode_times", "nominal_times", "lost")

    def __init__(self) -> None:
        self.decode_times: List[TimeUs] = []  # actual (with HARQ) decode times
        self.nominal_times: List[TimeUs] = []  # decode times had HARQ not failed
        self.lost = False


class UePhy:
    """One mobile attached to the cell."""

    def __init__(
        self,
        ue_id: int,
        sim: Simulator,
        config: RanConfig,
        tdd: TddFrame,
        rng: np.random.Generator,
        trace_sink: TraceSink,
        channel: Optional[object] = None,
        proactive: Optional[bool] = None,
        record_tbs: bool = False,
    ) -> None:
        self.ue_id = ue_id
        self._sim = sim
        self._config = config
        self._tdd = tdd
        self._rng = rng
        self.channel = channel or FixedChannel(config.default_mcs, config.base_bler)
        self.proactive = config.proactive_grants if proactive is None else proactive
        self.record_tbs = record_tbs
        self._trace_sink = trace_sink
        self.buffer = UeBuffer()
        self.sink: Optional[PacketSink] = None
        self._progress: Dict[int, _PacketProgress] = {}
        self._rlc_retries: Dict[int, int] = {}
        # Counters for reports/tests.
        self.packets_enqueued = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        self.bytes_delivered = 0
        self.rlc_retransmissions = 0

    # ------------------------------------------------------------------
    # Application-facing side
    # ------------------------------------------------------------------
    def enqueue(self, packet: PacketRecord) -> bool:
        """Queue a packet for uplink transmission.

        Returns True if the UE had no data buffered before this packet —
        the condition under which a Scheduling Request is needed when
        proactive grants are disabled.
        """
        was_empty = self.buffer.empty
        now = self._sim.now
        packet.ran = RanPacketTelemetry(enqueue_us=now)
        self.buffer.enqueue(packet, now)
        self._progress[packet.packet_id] = _PacketProgress()
        self.packets_enqueued += 1
        return was_empty

    # ------------------------------------------------------------------
    # Scheduler-facing side
    # ------------------------------------------------------------------
    def channel_state(self, slot_us: TimeUs) -> ChannelState:
        """Channel conditions for a transmission in the given slot."""
        return self.channel.sample(slot_us)

    def build_tb(
        self,
        slot_us: TimeUs,
        grant_bits: int,
        prbs: int,
        kind: TbKind,
        state: ChannelState,
    ) -> TbBuildResult:
        """Assemble and 'transmit' one transport block in an uplink slot."""
        cfg = self._config
        payload_bytes = grant_bits // 8
        segments = self.buffer.drain(payload_bytes)
        used_bits = sum(seg.taken_bytes for seg in segments) * 8

        outcome = run_harq(
            rng=self._rng,
            first_tx_slot_us=slot_us,
            slot_us=cfg.slot_us,
            decode_delay_us=cfg.decode_delay_us,
            first_bler=state.bler,
            retx_bler=state.bler if cfg.retx_bler is None else cfg.retx_bler,
            harq_rtt_us=cfg.harq_rtt_us,
            max_rounds=cfg.max_harq_rounds,
        )
        nominal_decode_us = slot_us + cfg.slot_us + cfg.decode_delay_us

        tb = TransportBlockRecord(
            tb_id=new_tb_id(),
            ue_id=self.ue_id,
            slot_us=slot_us,
            kind=kind,
            size_bits=grant_bits,
            used_bits=used_bits,
            packet_ids=[seg.packet.packet_id for seg in segments],
            harq_rounds=outcome.rounds,
            failed_slot_us=list(outcome.failed_slot_us),
            delivered_us=None if outcome.lost else outcome.decode_us,
        )

        for seg in segments:
            self._account_segment(
                seg.packet,
                seg.is_first_segment,
                seg.is_last_segment,
                tb,
                outcome.lost,
                outcome.decode_us,
                nominal_decode_us,
                slot_us,
            )

        # The BSR piggybacks on the MAC PDU; the gNB learns it when the TB
        # decodes.  A lost TB never delivers its BSR.
        bsr_bytes: Optional[int] = None
        bsr_delivered: Optional[TimeUs] = None
        if not self.buffer.empty:
            bsr_bytes = self.buffer.bytes_queued
            if not outcome.lost:
                bsr_delivered = outcome.decode_us

        return TbBuildResult(
            tb=tb,
            prbs_used=prbs,
            harq_rounds=outcome.rounds,
            lost=outcome.lost,
            bsr_bytes=bsr_bytes,
            bsr_delivered_us=bsr_delivered,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _account_segment(
        self,
        packet: PacketRecord,
        is_first: bool,
        is_last: bool,
        tb: TransportBlockRecord,
        lost: bool,
        decode_us: TimeUs,
        nominal_decode_us: TimeUs,
        slot_us: TimeUs,
    ) -> None:
        telemetry = packet.ran
        assert telemetry is not None, "packet entered PHY without telemetry"
        progress = self._progress[packet.packet_id]
        progress.decode_times.append(decode_us)
        progress.nominal_times.append(nominal_decode_us)
        progress.lost = progress.lost or lost
        telemetry.tb_ids.append(tb.tb_id)
        telemetry.harq_rounds = max(telemetry.harq_rounds, tb.harq_rounds)

        if is_first:
            telemetry.first_tb_us = slot_us
            total_wait_us = slot_us - telemetry.enqueue_us
            first_opportunity = self._tdd.next_ul_slot_start(telemetry.enqueue_us)
            alignment_wait_us = first_opportunity - telemetry.enqueue_us
            # Split the wait for the first TB into the unavoidable TDD
            # alignment part and the queueing/grant part (§3.1).
            telemetry.sched_wait_us = min(total_wait_us, alignment_wait_us)
            telemetry.queue_wait_us = total_wait_us - telemetry.sched_wait_us

        if is_last:
            self._finalize_packet(packet, progress)

    def _finalize_packet(self, packet: PacketRecord, progress: _PacketProgress) -> None:
        telemetry = packet.ran
        assert telemetry is not None
        if progress.lost:
            if self._config.rlc_mode == "am":
                retries = self._rlc_retries.get(packet.packet_id, 0)
                if retries < self._config.rlc_max_retx:
                    # RLC AM recovers the PDU: retransmit the whole packet
                    # from the head of the queue.
                    self._rlc_retries[packet.packet_id] = retries + 1
                    self.rlc_retransmissions += 1
                    self._progress[packet.packet_id] = _PacketProgress()
                    self.buffer.requeue_front(
                        packet, packet.size_bytes, self._sim.now
                    )
                    return
            packet.dropped = True
            self.packets_lost += 1
            self._progress.pop(packet.packet_id, None)
            self._rlc_retries.pop(packet.packet_id, None)
            # The record never reaches the receiver tap: terminal here.
            self._trace_sink.finalize(packet)
            return
        delivered = max(progress.decode_times)
        nominal = max(progress.nominal_times)
        telemetry.delivered_us = delivered
        # HARQ inflation: how much later the packet completed than it would
        # have with every TB decoding on its first attempt (§3.2).
        telemetry.harq_delay_us = max(0, delivered - nominal)
        # Segmentation spread: the tail of a multi-TB packet rode later
        # uplink slots than its head.
        first_nominal = min(progress.nominal_times)
        telemetry.spread_wait_us = max(0, nominal - first_nominal)
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        sink = self.sink
        if sink is not None:
            self._sim.post(delivered, lambda p=packet, t=delivered: sink(p, t))
        self._progress.pop(packet.packet_id, None)
