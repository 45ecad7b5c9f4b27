"""End-to-end call paths: Fig 2's measurement topology in code.

The monitored media direction is::

    sender --(access: 5G RAN uplink | emulated tc link)--> mobile core
           --(WAN)--> SFU (application-layer processing) --(WAN)--> receiver

with packet captures stamped at the sender (tap 1), the core (tap 2), the
SFU (tap 3/3*), and the receiver (tap 4), each on its own host clock.  The
feedback direction (RTCP) runs receiver → core → 5G downlink → sender.
An ICMP prober pings the SFU from the core every 20 ms to isolate the WAN
(orange path in Figs 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol

import numpy as np

from ..core.timesync import HostClock
from ..phy.ran import RanSimulator
from ..sim.engine import Simulator
from ..sim.units import TimeUs, ms
from ..trace.bus import InMemorySink, TraceSink
from ..trace.ids import IdSpace
from ..trace.schema import CapturePoint, MediaKind, PacketRecord, ProbeRecord, Trace
from .links import Arrival, DelayLink, EmulatedLink, ProcessingNode
from .packet import make_probe_packet

MediaDelivery = Callable[[PacketRecord, TimeUs], None]


class AccessUplink(Protocol):
    """The access network carrying media from the sender to the mobile core."""

    def send(self, packet: PacketRecord, on_core_arrival: Arrival) -> None:
        """Carry one packet; ``on_core_arrival`` fires at the core tap."""


class RanUplink:
    """5G access: packets go through the RAN simulator's uplink."""

    def __init__(self, ran: RanSimulator, ue_id: int) -> None:
        self._ran = ran
        self.ue_id = ue_id
        self._on_core: Optional[Arrival] = None
        ran.set_uplink_sink(ue_id, self._deliver)

    def send(self, packet: PacketRecord, on_core_arrival: Arrival) -> None:
        self._on_core = on_core_arrival
        self._ran.send_uplink(self.ue_id, packet)

    def _deliver(self, packet: PacketRecord, arrival_us: TimeUs) -> None:
        if self._on_core is not None:
            self._on_core(packet, arrival_us)


class EmulatedUplink:
    """Wired baseline access: tc-style shaper with fixed latency (Fig 7)."""

    def __init__(self, link: EmulatedLink) -> None:
        self.link = link

    def send(self, packet: PacketRecord, on_core_arrival: Arrival) -> None:
        self.link.send(packet, on_core_arrival)


@dataclass(frozen=True)
class PathConfig:
    """Delay characteristics of everything beyond the access network.

    Frozen like the rest of a :class:`~repro.run.scenario.ScenarioConfig`,
    with one residual: ``clock_offsets_us`` stays a ``dict``.  A tuple of
    pairs would change the scenario cache's pinned canonical form, and a
    read-only mapping proxy does not pickle into the batch pool.  Nothing
    writes to it after construction; treat it as read-only.
    """

    wan_core_to_sfu_us: TimeUs = ms(10.0)
    wan_sfu_to_receiver_us: TimeUs = ms(10.0)
    wan_jitter_std_us: float = 250.0
    sfu_base_us: TimeUs = 800
    sfu_jitter_std_us: float = 300.0
    sfu_tail_prob: float = 0.04
    sfu_tail_mean_us: float = 6_000.0
    feedback_wan_us: TimeUs = ms(20.0)
    feedback_jitter_std_us: float = 250.0
    icmp_interval_us: TimeUs = ms(20.0)
    # Clock offsets of each capture host relative to true time (NTP residuals).
    clock_offsets_us: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        hosts = sorted(point.value for point in CapturePoint)
        for host, offset in self.clock_offsets_us.items():
            if type(host) is not str or host not in hosts or type(offset) is not int:
                raise ValueError(
                    f"clock_offsets_us maps a host in {hosts} to int us, "
                    f"not {host!r}: {offset!r}"
                )


class CallTopology:
    """One call's media direction plus its feedback channel and prober.

    In a multi-call cell each call owns one topology; ``call_id`` tags every
    record the topology emits (packets at the sender tap, probes, sync
    exchanges) so the trace bus can scope per-call views, ``ids`` draws the
    topology's own packets (probes) from the call's id space, and ``sfu``
    lets N calls share one :class:`SfuFanout` processing node instead of
    each building a private one.
    """

    def __init__(
        self,
        sim: Simulator,
        uplink: AccessUplink,
        rng: np.random.Generator,
        config: Optional[PathConfig] = None,
        trace: Optional[Trace] = None,
        ran_for_feedback: Optional[RanSimulator] = None,
        feedback_ue_id: Optional[int] = None,
        record_packets: bool = True,
        sink: Optional[TraceSink] = None,
        call_id: Optional[int] = None,
        ids: Optional[IdSpace] = None,
        sfu: Optional[ProcessingNode] = None,
    ) -> None:
        self.sim = sim
        self.uplink = uplink
        self.config = config or PathConfig()
        if sink is None:
            sink = InMemorySink(trace if trace is not None else Trace())
        self.sink = sink
        # Legacy accessor: the collected Trace when the sink keeps one.
        self.trace = sink.result_trace() or (trace if trace is not None else Trace())
        self.record_packets = record_packets
        self.call_id = call_id
        self.ids = ids
        self._probe_count = 0
        self.media_packets_sent = 0
        self._ran_for_feedback = ran_for_feedback
        self._feedback_ue_id = feedback_ue_id

        offsets = self.config.clock_offsets_us
        self.clocks = {
            point: HostClock(point.value, offsets.get(point.value, 0))
            for point in CapturePoint
        }

        cfg = self.config
        self._wan_up = DelayLink(
            sim, cfg.wan_core_to_sfu_us, cfg.wan_jitter_std_us, rng=rng
        )
        self._wan_down = DelayLink(
            sim, cfg.wan_sfu_to_receiver_us, cfg.wan_jitter_std_us, rng=rng
        )
        self._sfu = sfu if sfu is not None else ProcessingNode(
            sim,
            rng,
            base_us=cfg.sfu_base_us,
            jitter_std_us=cfg.sfu_jitter_std_us,
            tail_prob=cfg.sfu_tail_prob,
            tail_mean_us=cfg.sfu_tail_mean_us,
        )
        self._feedback_wan = DelayLink(
            sim, cfg.feedback_wan_us, cfg.feedback_jitter_std_us, rng=rng
        )
        # Dedicated probe links share the WAN's characteristics but skip the
        # SFU's application-layer processing — that is the point of Fig 3's
        # comparison between ICMP and RTP.
        self._probe_out = DelayLink(
            sim, cfg.wan_core_to_sfu_us, cfg.wan_jitter_std_us, rng=rng
        )
        self._probe_back = DelayLink(
            sim, cfg.wan_core_to_sfu_us, cfg.wan_jitter_std_us, rng=rng
        )

        self.on_media_arrival: Optional[MediaDelivery] = None
        self.on_feedback_arrival: Optional[MediaDelivery] = None
        # Observers of outgoing media (e.g. the §5.2 traffic-pattern learner).
        self.media_send_listeners: list = []

    # ------------------------------------------------------------------
    # Media direction (monitored)
    # ------------------------------------------------------------------
    def send_media(self, packet: PacketRecord) -> None:
        """Inject a media packet at the sender (tap 1)."""
        if self.call_id is not None:
            packet.call_id = self.call_id
        self.media_packets_sent += 1
        self._stamp(packet, CapturePoint.SENDER)
        if self.record_packets and packet.kind in (MediaKind.VIDEO, MediaKind.AUDIO):
            # Packets keep mutating (capture stamps, RAN telemetry) until the
            # receiver tap or a drop; finalization follows at that point.
            self.sink.emit(packet, final=False)
        for listener in self.media_send_listeners:
            listener(packet, self.sim.now)
        self.uplink.send(packet, self._on_core)
        if packet.dropped:
            # Synchronous drop in the access shaper (queue overflow): the
            # record has reached its terminal state already.
            self.sink.finalize(packet)

    def _on_core(self, packet: PacketRecord, _arrival: TimeUs) -> None:
        self._stamp(packet, CapturePoint.CORE)
        self._wan_up.send(packet, self._on_sfu)

    def _on_sfu(self, packet: PacketRecord, _arrival: TimeUs) -> None:
        self._stamp(packet, CapturePoint.SFU)
        self._sfu.process(packet, self._after_sfu)

    def _after_sfu(self, packet: PacketRecord, _departure: TimeUs) -> None:
        self._wan_down.send(packet, self._on_receiver)

    def _on_receiver(self, packet: PacketRecord, arrival: TimeUs) -> None:
        self._stamp(packet, CapturePoint.RECEIVER)
        # Finalize before app delivery: a live AnalysisTap on the sink then
        # diagnoses the packet before the receiver's estimator can query the
        # LiveDiagnosis feed about it.  (Same sim instant; trace-identical.)
        self.sink.finalize(packet)
        if self.on_media_arrival is not None:
            self.on_media_arrival(packet, arrival)

    # ------------------------------------------------------------------
    # Feedback direction
    # ------------------------------------------------------------------
    def send_feedback(self, packet: PacketRecord) -> None:
        """Carry an RTCP packet from the receiver back to the sender."""
        self._feedback_wan.send(packet, self._feedback_at_core)

    def _feedback_at_core(self, packet: PacketRecord, arrival: TimeUs) -> None:
        if self._ran_for_feedback is not None and self._feedback_ue_id is not None:
            self._ran_for_feedback.send_downlink(
                self._feedback_ue_id, packet, self._feedback_at_sender
            )
        else:
            # Wired baseline: symmetric fixed latency on the return path.
            self.sim.post(
                self.sim.now + ms(15.0),
                lambda: self._feedback_at_sender(packet, self.sim.now),
            )

    def _feedback_at_sender(self, packet: PacketRecord, arrival: TimeUs) -> None:
        if self.on_feedback_arrival is not None:
            self.on_feedback_arrival(packet, arrival)

    # ------------------------------------------------------------------
    # ICMP prober (core -> SFU -> core, every 20 ms)
    # ------------------------------------------------------------------
    def start_prober(self) -> None:
        """Start pinging the SFU from the core at the configured interval."""
        self.sim.every(self.config.icmp_interval_us, self._send_probe)

    def _send_probe(self) -> None:
        packet = make_probe_packet(seq=self._probe_count, ids=self.ids)
        self._probe_count += 1
        record = ProbeRecord(
            probe_id=packet.packet_id,
            sent_us=self.clocks[CapturePoint.CORE].timestamp(self.sim.now),
            call_id=self.call_id,
        )
        self.sink.emit(record, final=False)

        def reply(_pkt: PacketRecord, _t: TimeUs) -> None:
            self._probe_back.send(
                _pkt,
                lambda _p, back_t: self._probe_done(record, back_t),
            )

        self._probe_out.send(packet, reply)

    def _probe_done(self, record: ProbeRecord, arrival: TimeUs) -> None:
        record.received_us = self.clocks[CapturePoint.CORE].timestamp(arrival)
        self.sink.finalize(record)

    # ------------------------------------------------------------------
    # NTP-style time synchronization (Athena step 2)
    # ------------------------------------------------------------------
    def start_time_sync(
        self, rng: np.random.Generator, interval_us: TimeUs = ms(1_000.0)
    ) -> None:
        """Run periodic two-way clock exchanges between each capture host
        and the core, recording local timestamps for offline offset
        estimation.  Exchange delays mirror each host's real path to the
        core (the RAN for the sender, the WAN/SFU for the others), including
        occasional congestion spikes — which is why Athena's estimators use
        minimum-RTT filtering."""
        cfg = self.config
        paths = {
            CapturePoint.SENDER: (4_000, 1_000, 0.08, 10_000.0),
            CapturePoint.SFU: (cfg.wan_core_to_sfu_us, 300, 0.02, 5_000.0),
            CapturePoint.RECEIVER: (
                cfg.wan_core_to_sfu_us + cfg.wan_sfu_to_receiver_us + 1_000,
                400,
                0.04,
                6_000.0,
            ),
        }
        for i, (point, params) in enumerate(paths.items()):
            self.sim.every(
                interval_us,
                lambda p=point, pr=params, r=rng: self._sync_exchange(p, pr, r),
                start_us=self.sim.now + (i + 1) * (interval_us // 4),
            )

    def _sync_exchange(self, point: CapturePoint, params, rng) -> None:
        base_us, jitter_us, spike_prob, spike_mean_us = params

        def one_way() -> int:
            delay_us = base_us + abs(rng.normal(0.0, jitter_us))
            if rng.random() < spike_prob:
                delay_us += rng.exponential(spike_mean_us)
            return int(delay_us)

        host_clock = self.clocks[point]
        core_clock = self.clocks[CapturePoint.CORE]
        t_send = self.sim.now
        out = one_way()
        back = one_way()
        proc = 100  # server-side turnaround
        from ..trace.schema import SyncExchangeRecord

        self.sink.emit(
            SyncExchangeRecord(
                host=point.value,
                t1=host_clock.timestamp(t_send),
                t2=core_clock.timestamp(t_send + out),
                t3=core_clock.timestamp(t_send + out + proc),
                t4=host_clock.timestamp(t_send + out + proc + back),
                call_id=self.call_id,
            )
        )

    # ------------------------------------------------------------------
    def _stamp(self, packet: PacketRecord, point: CapturePoint) -> None:
        packet.set_capture(point, self.clocks[point].timestamp(self.sim.now))


class SfuFanout:
    """One SFU host serving N concurrent calls of the cell.

    The fan-out owns the shared application-layer :class:`ProcessingNode`
    (one queueing/tail-latency budget for the whole conference server, fed
    by its own RNG stream) and registers each call's :class:`CallTopology`
    against it, so contention at the SFU is modeled across calls while WAN
    propagation stays per call.  Single-call sessions skip the fan-out and
    keep their private node — construction and RNG draws are unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        config: Optional[PathConfig] = None,
    ) -> None:
        self.sim = sim
        cfg = config or PathConfig()
        self.config = cfg
        self.sfu = ProcessingNode(
            sim,
            rng,
            base_us=cfg.sfu_base_us,
            jitter_std_us=cfg.sfu_jitter_std_us,
            tail_prob=cfg.sfu_tail_prob,
            tail_mean_us=cfg.sfu_tail_mean_us,
        )
        # Registry keyed by call id — the fan-out's whole point is that no
        # lookup ever assumes "the one call".
        self._topologies: Dict[int, CallTopology] = {}

    def attach(self, topology: CallTopology) -> CallTopology:
        """Register one call's topology with the shared SFU."""
        call_id = topology.call_id
        if call_id is None:
            raise ValueError("fan-out topologies must carry a call_id")
        if call_id in self._topologies:
            raise ValueError(f"call {call_id} already attached to the SFU")
        self._topologies[call_id] = topology
        return topology

    def topology_for(self, call_id: int) -> CallTopology:
        """Look up the topology serving one call."""
        return self._topologies[call_id]

    @property
    def call_count(self) -> int:
        """Calls currently fanned out by this SFU."""
        return len(self._topologies)

    def media_packets_sent(self) -> int:
        """Media packets injected across every attached call."""
        return sum(t.media_packets_sent for t in self._topologies.values())
