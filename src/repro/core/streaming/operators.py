"""Incremental versions of Athena's batch analyses.

Each operator here is the *single* implementation of one batch entry point
in :mod:`repro.core`: the batch function replays its trace through the
operator (see :mod:`repro.core.streaming.replay`) and returns the identical
result object, while the live path feeds the same operator from an
:class:`~repro.core.streaming.tap.AnalysisTap` on the telemetry bus.

Exactness notes (regression-tested in ``tests/test_streaming_analysis.py``):

* the batch correlator stably sorts TBs by slot and packets by sender
  capture; the :class:`TimeOrderedOperator` heap keyed ``(time, phase,
  arrival seq)`` reproduces exactly those stable orders, with packets
  (phase 0, key = send + enqueue latency) released before TBs (phase 1,
  key = slot) at a shared instant — matching the batch admission test
  ``send + enqueue <= slot``;
* the batch min-RTT offset filter (``min()``) keeps the *first* minimal
  exchange, so the running filter only replaces its best on strict
  improvement;
* result-list orderings (unmatched packets, empty TBs, breakdowns,
  diagnoses) equal the batch ones because replay feeds records in trace
  order and the heap's tie-break preserves arrival order.

Operators accept ``retain_results=False`` for live use: full result lists
are then dropped as soon as each item is pushed to the callbacks /
:class:`~repro.core.streaming.live.LiveDiagnosis`, keeping state bounded by
the watermark window instead of the run length.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ...sim.units import TimeUs, ms
from ...trace.schema import (
    CapturePoint,
    FrameRecord,
    MediaKind,
    PacketRecord,
    SyncExchangeRecord,
    TransportBlockRecord,
)
from ..correlator import (
    CorrelationResult,
    FrameCluster,
    TbPacketMatch,
    _add_to_cluster,
)
from ..rootcause import (
    FrameDiagnosis,
    PacketDelayBreakdown,
    RootCauseReport,
    delay_components_ms,
    diagnose_frame,
)
from ..timesync import ProbeExchange, estimate_offset_and_drift
from .base import StreamOperator, TimeOrderedOperator

_SENDER = CapturePoint.SENDER.value
_CORE = CapturePoint.CORE.value


class SyncOffsetOperator(StreamOperator):
    """Incremental per-host clock-offset estimation from sync exchanges.

    Without drift fitting the state is O(hosts): only the running
    minimum-RTT exchange per host is kept (strict-``<`` replacement keeps
    the first minimal exchange, like batch ``min()``).  With
    ``fit_drift=True`` every exchange is retained, because the batch least
    squares filters on the global minimum RTT — sync exchanges are sparse
    (~1/s), so this stays tiny.
    """

    channels = ("sync",)
    name = "sync"

    def __init__(self, fit_drift: bool = False) -> None:
        self.fit_drift = fit_drift
        self._best: Dict[str, ProbeExchange] = {}
        self._best_rtt_us: Dict[str, TimeUs] = {}
        self._all: Dict[str, List[ProbeExchange]] = {}
        self._counts: Dict[str, int] = {}

    def on_record(self, channel: str, record: object) -> None:
        assert isinstance(record, SyncExchangeRecord)
        exchange = ProbeExchange(
            t1=record.t1, t2=record.t2, t3=record.t3, t4=record.t4
        )
        host = record.host
        self._counts[host] = self._counts.get(host, 0) + 1
        rtt_us = exchange.rtt_us()
        if host not in self._best_rtt_us or rtt_us < self._best_rtt_us[host]:
            self._best_rtt_us[host] = rtt_us
            self._best[host] = exchange
        if self.fit_drift:
            self._all.setdefault(host, []).append(exchange)

    def result(self) -> "SyncResult":
        from ..sync_pipeline import SyncResult

        out = SyncResult()
        for host, count in self._counts.items():
            out.exchanges_used[host] = count
            exchanges = self._all.get(host, ())
            if self.fit_drift and len(exchanges) >= 2:
                intercept, drift = estimate_offset_and_drift(exchanges)
                out.offsets_us[host] = -intercept
                out.drift_ppm[host] = -drift
            else:
                out.offsets_us[host] = -self._best[host].offset_us()
                out.drift_ppm[host] = 0.0
        return out


class TbPacketCorrelator(TimeOrderedOperator):
    """Incremental FIFO-replay inference of which TBs carried which packets.

    The byte-accounting body is the batch one from
    :func:`repro.core.correlator.correlate_tbs_to_packets`, driven by
    heap-ordered events instead of two pre-sorted lists.  The live queue
    holds only in-flight packets; completed matches fire ``on_match`` and,
    with ``retain_results=False``, are dropped immediately.
    """

    channels = ("packet", "tb")
    name = "correlation"

    def __init__(
        self,
        ue_id: int,
        enqueue_latency_us: TimeUs = 250,
        slot_us: TimeUs = 500,
        decode_delay_us: TimeUs = 0,
        harq_rtt_us: TimeUs = ms(10.0),
        retain_results: bool = True,
        on_match: Optional[Callable[[TbPacketMatch], None]] = None,
    ) -> None:
        super().__init__()
        self.ue_id = ue_id
        self.enqueue_latency_us = enqueue_latency_us
        self.slot_us = slot_us
        self.decode_delay_us = decode_delay_us
        self.harq_rtt_us = harq_rtt_us
        self.retain_results = retain_results
        self.on_match = on_match
        self.core_backhaul_us: TimeUs = 1_000  # gNB decode -> core tap
        self._queue: List[Tuple[PacketRecord, int]] = []
        self._packet_order: List[int] = []  # admission order = batch order
        self.matches: Dict[int, TbPacketMatch] = {}
        self.empty_tbs: List[int] = []
        self.evicted: List[int] = []

    # -- heap keys -----------------------------------------------------
    def record_key(self, channel: str, record: object) -> Optional[TimeUs]:
        if channel == "tb":
            assert isinstance(record, TransportBlockRecord)
            if record.ue_id != self.ue_id:
                return None
            return record.slot_us
        assert isinstance(record, PacketRecord)
        send = record.capture_at(_SENDER)
        if send is None or record.kind not in (MediaKind.VIDEO, MediaKind.AUDIO):
            return None
        return send + self.enqueue_latency_us

    def record_phase(self, channel: str, record: object) -> int:
        # Packets whose enqueue instant equals a TB's slot are admitted to
        # that TB (batch uses `<=`): release the packet first.
        return 1 if channel == "tb" else 0

    # -- byte accounting (batch body) ----------------------------------
    def process(self, channel: str, record: object) -> None:
        if channel == "packet":
            assert isinstance(record, PacketRecord)
            self._queue.append((record, record.size_bytes))
            if self.retain_results:
                self._packet_order.append(record.packet_id)
            return
        assert isinstance(record, TransportBlockRecord)
        tb = record
        slot = tb.slot_us
        # Resynchronize: a queued packet whose core capture proves it
        # decoded before this slot began was carried by a TB the sniffer
        # missed — evict it so byte accounting does not cascade.
        while self._queue:
            head, remaining = self._queue[0]
            core = head.capture_at(_CORE)
            if core is not None and core - self.core_backhaul_us < slot:
                if remaining == head.size_bytes:
                    self.evicted.append(head.packet_id)
                self._queue.pop(0)
            else:
                break
        budget = tb.used_bits // 8
        if budget == 0:
            self.empty_tbs.append(tb.tb_id)
            return
        decode_us = (
            slot
            + self.slot_us
            + self.decode_delay_us
            + tb.harq_rounds * self.harq_rtt_us
        )
        while budget > 0 and self._queue:
            packet, remaining = self._queue[0]
            take = min(budget, remaining)
            budget -= take
            remaining -= take
            match = self.matches.get(packet.packet_id)
            if match is None:
                match = TbPacketMatch(
                    packet_id=packet.packet_id,
                    tb_ids=[],
                    first_tb_slot_us=slot,
                    predicted_delivery_us=None,
                    harq_rounds=0,
                )
                self.matches[packet.packet_id] = match
            match.tb_ids.append(tb.tb_id)
            match.harq_rounds = max(match.harq_rounds, tb.harq_rounds)
            match.predicted_delivery_us = max(
                match.predicted_delivery_us or 0, decode_us
            )
            if remaining == 0:
                self._queue.pop(0)
                self._complete(match)
            else:
                self._queue[0] = (packet, remaining)

    def _complete(self, match: TbPacketMatch) -> None:
        if self.on_match is not None:
            self.on_match(match)
        if not self.retain_results:
            del self.matches[match.packet_id]

    def result(self) -> CorrelationResult:
        unmatched = [
            pid for pid in self._packet_order if pid not in self.matches
        ]
        return CorrelationResult(
            matches=self.matches,
            unmatched_packets=unmatched,
            empty_tbs=self.empty_tbs,
            evicted_packets=self.evicted,
        )


class FrameClusterOperator(TimeOrderedOperator):
    """Incremental packet→frame clustering (RTP ids or burst gaps).

    A cluster closes once the watermark passes its last packet's send time
    by ``close_after_us`` — no later packet can extend it, since packets
    are processed in send order and a burst gap (or a new RTP frame id)
    would have started a new cluster.  Closed clusters fire ``on_cluster``
    (this is the burst feed :class:`PeriodicityPredictor` learns from) and
    are evicted when ``retain_results=False``.
    """

    channels = ("packet",)
    name = "clusters"

    def __init__(
        self,
        use_rtp: bool = True,
        burst_gap_us: TimeUs = 5_000,
        close_after_us: TimeUs = ms(100.0),
        retain_results: bool = True,
        on_cluster: Optional[Callable[[int, FrameCluster], None]] = None,
    ) -> None:
        super().__init__()
        self.use_rtp = use_rtp
        self.burst_gap_us = burst_gap_us
        self.close_after_us = close_after_us
        self.retain_results = retain_results
        self.on_cluster = on_cluster
        self.clusters: Dict[int, FrameCluster] = {}
        self._open: Dict[int, FrameCluster] = {}
        self._next_burst_id = 0
        self._last_send: Optional[TimeUs] = None
        self._last_burst_key: Optional[int] = None

    def record_key(self, channel: str, record: object) -> Optional[TimeUs]:
        assert isinstance(record, PacketRecord)
        if record.kind != MediaKind.VIDEO:
            return None
        return record.capture_at(_SENDER)

    def process(self, channel: str, record: object) -> None:
        assert isinstance(record, PacketRecord)
        send = record.capture_at(_SENDER)
        if self.use_rtp:
            if record.rtp is None:
                return
            key = record.rtp.frame_id
        else:
            if (
                self._last_send is not None
                and send - self._last_send > self.burst_gap_us
            ):
                self._next_burst_id += 1
            key = self._next_burst_id
            self._last_send = send
        cluster = self._open.get(key)
        if cluster is None:
            cluster = self.clusters.get(key)
        if cluster is None:
            cluster = FrameCluster()
            self._open[key] = cluster
            if self.retain_results:
                self.clusters[key] = cluster
        _add_to_cluster(cluster, record)

    def on_watermark(self, watermark_us: TimeUs) -> None:
        super().on_watermark(watermark_us)
        ripe = [
            key
            for key, cluster in self._open.items()
            if cluster.last_send_us + self.close_after_us < watermark_us
        ]
        for key in ripe:
            cluster = self._open.pop(key)
            if self.on_cluster is not None:
                self.on_cluster(key, cluster)

    def result(self) -> Dict[int, FrameCluster]:
        return self.clusters


class DelayBreakdownOperator(StreamOperator):
    """Stateless per-packet delay decomposition with running means.

    Emission order is feed order — on replay that is trace order, matching
    the batch ``analyze_root_causes`` breakdown list.  Live, each packet
    with a sender→core delay and RAN telemetry is pushed to
    ``on_breakdown`` the moment it finalizes (its exact RAN-induced total,
    in integer microseconds, is the value
    :class:`~repro.mitigation.ran_aware_cc.RanAwareGcc` must subtract).
    A :class:`PacketDelayBreakdown` is built only when
    ``retain_results`` keeps it.
    """

    channels = ("packet",)
    name = "breakdowns"

    _COMPONENTS = (
        "propagation",
        "tdd_alignment",
        "grant_queueing",
        "segmentation_spread",
        "harq",
    )

    def __init__(
        self,
        retain_results: bool = True,
        on_breakdown: Optional[Callable[[PacketRecord], None]] = None,
    ) -> None:
        self.retain_results = retain_results
        self.on_breakdown = on_breakdown
        self.breakdowns: List[PacketDelayBreakdown] = []
        self.count = 0
        self._sums = {name: 0.0 for name in self._COMPONENTS}

    def on_record(self, channel: str, record: object) -> None:
        assert isinstance(record, PacketRecord)
        parts = delay_components_ms(record)
        if parts is None:
            return
        _, propagation_ms, align_ms, queue_ms, spread_ms, harq_ms = parts
        self.count += 1
        sums = self._sums
        sums["propagation"] += propagation_ms
        sums["tdd_alignment"] += align_ms
        sums["grant_queueing"] += queue_ms
        sums["segmentation_spread"] += spread_ms
        sums["harq"] += harq_ms
        if self.retain_results:
            self.breakdowns.append(
                PacketDelayBreakdown(
                    record.packet_id,
                    record.kind,
                    *parts,
                    harq_rounds=record.ran.harq_rounds,
                )
            )
        if self.on_breakdown is not None:
            self.on_breakdown(record)

    def mean_component_ms(self) -> Dict[str, float]:
        """Running mean of each delay component (empty before any packet)."""
        if self.count == 0:
            return {}
        return {name: self._sums[name] / self.count for name in self._COMPONENTS}

    def result(self) -> List[PacketDelayBreakdown]:
        # Live delivery order is finalization order (HARQ reorders); batch
        # trace order is send order, which is ascending packet id.  The
        # sort makes both identical (already sorted on replay).
        self.breakdowns.sort(key=lambda b: b.packet_id)
        return self.breakdowns


class _FrameBuffer(TimeOrderedOperator):
    """Holds frames until the watermark passes their settle horizon."""

    def __init__(
        self,
        settle_after_us: TimeUs,
        process_fn: Callable[[FrameRecord], None],
    ) -> None:
        super().__init__()
        self.settle_after_us = settle_after_us
        self._process_fn = process_fn

    def record_key(self, channel: str, record: object) -> Optional[TimeUs]:
        assert isinstance(record, FrameRecord)
        return record.encode_done_us + self.settle_after_us

    def record_phase(self, channel: str, record: object) -> int:
        # Tie-break equal settle horizons by frame id, not arrival order:
        # live delivery order is *finalization* order (render/arrival),
        # while batch replay feeds encode order — the id makes both agree.
        assert isinstance(record, FrameRecord)
        return record.frame_id

    def process(self, channel: str, record: object) -> None:
        assert isinstance(record, FrameRecord)
        self._process_fn(record)


class RootCauseOperator(StreamOperator):
    """Incremental root-cause attribution: breakdowns + frame diagnoses.

    Packets and TBs are indexed as they finalize (no ordering needed — the
    indexes are pure lookups).  Frames are diagnosed once the watermark
    passes ``encode_done + settle_after_us``, by which point every packet
    of the frame has been paced out, carried, and finalized; index entries
    older than ``retention_us`` behind the watermark are then evicted.
    With ``retain_results=False`` each entry's age (packet: sender capture,
    TB: slot) also goes on a min-heap as it arrives, so eviction pops just
    the expired entries instead of rebuilding the indexes.
    Frames are diagnosed *before* eviction in each watermark step, so any
    ``retention_us >= settle_after_us`` keeps diagnoses complete.

    On replay (no watermark until finish) the indexes are complete when the
    frames drain, reproducing :func:`repro.core.rootcause.analyze_root_causes`
    exactly — including list order, because frames release in encode order
    with feed-order tie-break, which is the trace order.
    """

    channels = ("packet", "tb", "frame")
    # TB telemetry is optional (absent in emulated-access runs); only the
    # packet and frame streams gate the watermark.
    watermark_channels = ("packet", "frame")
    name = "root_causes"

    def __init__(
        self,
        ul_period_ms: float = 2.5,
        harq_rtt_ms: float = 10.0,
        settle_after_us: TimeUs = ms(250.0),
        retention_us: TimeUs = ms(500.0),
        retain_results: bool = True,
        on_breakdown: Optional[Callable[[PacketRecord], None]] = None,
        on_diagnosis: Optional[Callable[[FrameDiagnosis], None]] = None,
    ) -> None:
        if retention_us < settle_after_us:
            raise ValueError("retention_us must be >= settle_after_us")
        self.ul_period_ms = ul_period_ms
        self.harq_rtt_ms = harq_rtt_ms
        self.settle_after_us = settle_after_us
        self.retention_us = retention_us
        self.retain_results = retain_results
        self.on_diagnosis = on_diagnosis
        self.cause_counts: Counter = Counter()
        self.diagnoses: List[FrameDiagnosis] = []
        self.breakdown_op = DelayBreakdownOperator(
            retain_results=retain_results, on_breakdown=on_breakdown
        )
        self._packet_index: Dict[int, PacketRecord] = {}
        self._tb_index: Dict[int, TransportBlockRecord] = {}
        # (age, id) min-heaps over the index entries, kept only when
        # entries are evicted (retain_results=False).
        self._packet_ages: List[Tuple[TimeUs, int]] = []
        self._tb_ages: List[Tuple[TimeUs, int]] = []
        self._frames = _FrameBuffer(settle_after_us, self._diagnose)

    # ------------------------------------------------------------------
    def on_record(self, channel: str, record: object) -> None:
        if channel == "frame":
            self._frames.on_record(channel, record)
            return
        if channel == "packet":
            assert isinstance(record, PacketRecord)
            self._packet_index[record.packet_id] = record
            if not self.retain_results:
                heapq.heappush(
                    self._packet_ages,
                    (record.capture_at(_SENDER) or 0, record.packet_id),
                )
            self.breakdown_op.on_record(channel, record)
            return
        assert isinstance(record, TransportBlockRecord)
        self._tb_index[record.tb_id] = record
        if not self.retain_results:
            heapq.heappush(self._tb_ages, (record.slot_us, record.tb_id))

    def _diagnose(self, frame: FrameRecord) -> None:
        d = diagnose_frame(
            frame,
            self._packet_index,
            self._tb_index,
            self.ul_period_ms,
            self.harq_rtt_ms,
        )
        if d is None:
            return
        self.cause_counts[d.cause] += 1
        if self.retain_results:
            self.diagnoses.append(d)
        if self.on_diagnosis is not None:
            self.on_diagnosis(d)

    def on_watermark(self, watermark_us: TimeUs) -> None:
        self._frames.on_watermark(watermark_us)
        if self.retain_results:
            return
        horizon = watermark_us - self.retention_us
        for ages, index in (
            (self._packet_ages, self._packet_index),
            (self._tb_ages, self._tb_index),
        ):
            while ages and ages[0][0] < horizon:
                index.pop(heapq.heappop(ages)[1], None)

    def index_size(self) -> int:
        """Resident packet+TB index entries (bounded live, full on replay)."""
        return len(self._packet_index) + len(self._tb_index)

    def result(self) -> RootCauseReport:
        return RootCauseReport(
            packet_breakdowns=self.breakdown_op.result(),
            frame_diagnoses=self.diagnoses,
            cause_counts=self.cause_counts,
        )
