"""Record schema shared by the simulator, the trace files, and Athena.

These dataclasses mirror the three measurement sources the paper combines:

* **PHY/MAC** — transport blocks and uplink grants, as captured by an
  NG-Scope-style control-channel sniffer (Fig 2, "Sniff");
* **Network** — per-packet captures at the sender, the mobile core, the SFU,
  and the receiver (Fig 2, "Packet Capture" taps 1, 2, 3/3*, 4);
* **Application** — media frames/samples with SVC-layer annotations and
  picture quality, plus the ICMP probes used to factor out the WAN.

A :class:`Trace` bundles one experiment's records together with metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..sim.units import TimeUs
# Re-exported for callers that predate session-scoped ids (trace.ids).
from .ids import new_packet_id  # noqa: F401


class MediaKind(str, Enum):
    """Classification of a packet's payload."""

    VIDEO = "video"
    AUDIO = "audio"
    PROBE = "probe"
    FEEDBACK = "feedback"
    CROSS = "cross"


class TbKind(str, Enum):
    """How the uplink grant backing a transport block was issued (§3.1)."""

    PROACTIVE = "proactive"
    REQUESTED = "requested"


class CapturePoint(str, Enum):
    """Packet-capture taps, numbered as in Fig 2 of the paper."""

    SENDER = "sender"  # tap 1: at the mobile sender
    CORE = "core"  # tap 2: at the mobile core (isolates the RAN uplink)
    SFU = "sfu"  # tap 3/3*: at the conferencing SFU
    RECEIVER = "receiver"  # tap 4: at the wired receiver


#: Capture point -> its plain-str capture key.  A CapturePoint hashes and
#: compares as its value, so a member or a plain string looks up this table
#: and ``PacketRecord.captures`` alike, without reading the enum's ``.value``.
_CAPTURE_KEYS: Dict[str, str] = {p.value: p.value for p in CapturePoint}


@dataclass
class RtpInfo:
    """RTP header fields Athena reads, including the SVC layer extension.

    ``frame_start`` mirrors the S bit of VP8/VP9-style payload descriptors:
    set on the first packet of a media unit, it lets the receiver detect
    frame boundaries without heuristics.
    """

    ssrc: int
    seq: int
    # RFC 3550 wire-format field name; unit is RTP media-clock ticks
    # (90 kHz video / 48 kHz audio), not simulation time.
    timestamp: int  # athena-lint: disable=ATH003
    frame_id: int
    layer_id: int = 0
    marker: bool = False
    frame_start: bool = False


@dataclass
class RanPacketTelemetry:
    """Per-packet RAN delay decomposition (the §5.3 telemetry export).

    All components are in microseconds and sum (with propagation) to the
    sender→core one-way delay:

    * ``sched_wait_us`` — TDD alignment: wait for the next uplink slot after
      the packet entered the buffer (bounded by the UL period, §3.1);
    * ``queue_wait_us`` — additional wait for a sufficient grant (the BSR
      scheduling loop) and behind earlier buffered bytes;
    * ``spread_wait_us`` — extra time a segmented packet spent spanning
      several TBs (its tail rode later uplink slots);
    * ``harq_delay_us`` — delay added by link-layer retransmissions of the
      TB(s) carrying this packet, in 10 ms multiples (§3.2).
    """

    enqueue_us: TimeUs
    first_tb_us: Optional[TimeUs] = None
    delivered_us: Optional[TimeUs] = None
    queue_wait_us: TimeUs = 0
    sched_wait_us: TimeUs = 0
    spread_wait_us: TimeUs = 0
    harq_delay_us: TimeUs = 0
    harq_rounds: int = 0
    tb_ids: List[int] = field(default_factory=list)

    def ran_induced_us(self) -> TimeUs:
        """Total RAN-attributable delay beyond pure propagation."""
        return (
            self.queue_wait_us
            + self.sched_wait_us
            + self.spread_wait_us
            + self.harq_delay_us
        )


@dataclass
class PacketRecord:
    """One datagram observed at up to four capture points."""

    packet_id: int
    flow_id: str
    kind: MediaKind
    size_bytes: int
    rtp: Optional[RtpInfo] = None
    captures: Dict[str, TimeUs] = field(default_factory=dict)
    ran: Optional[RanPacketTelemetry] = None
    dropped: bool = False
    #: Conference call this packet belongs to (None on single-call records,
    #: which predate the multi-call cell and serialize without the field).
    call_id: Optional[int] = None

    def capture_at(self, point: str) -> Optional[TimeUs]:
        """Timestamp at a capture point, or None if never seen there."""
        return self.captures.get(point)

    def set_capture(self, point: str, time_us: TimeUs) -> None:
        """Record the observation of this packet at ``point``."""
        # Stored under the plain-str key, never the enum member itself.
        self.captures[_CAPTURE_KEYS[point]] = time_us

    def one_way_delay_us(self, src: str, dst: str) -> Optional[TimeUs]:
        """One-way delay between two capture points, or None if unseen."""
        t_src = self.captures.get(src)
        t_dst = self.captures.get(dst)
        if t_src is None or t_dst is None:
            return None
        return t_dst - t_src


@dataclass
class TransportBlockRecord:
    """One PHY transport block, as seen by the control-channel sniffer."""

    tb_id: int
    ue_id: int
    slot_us: TimeUs  # slot in which the TB was (first) transmitted
    kind: TbKind
    size_bits: int
    used_bits: int = 0
    packet_ids: List[int] = field(default_factory=list)
    harq_rounds: int = 0  # retransmission count (0 = first attempt decoded)
    failed_slot_us: List[TimeUs] = field(default_factory=list)
    delivered_us: Optional[TimeUs] = None  # decode success time, None if lost

    @property
    def is_empty(self) -> bool:
        """True if the grant went unused (padding only) — wasted bandwidth."""
        return self.used_bits == 0

    @property
    def is_retx(self) -> bool:
        """True if this TB needed at least one HARQ retransmission."""
        return self.harq_rounds > 0


@dataclass
class GrantRecord:
    """One uplink grant issued by the base station."""

    grant_id: int
    ue_id: int
    kind: TbKind
    issued_us: TimeUs
    usable_slot_us: TimeUs
    size_bits: int
    bsr_us: Optional[TimeUs] = None  # BSR that triggered it (requested only)
    bsr_bytes: Optional[int] = None


@dataclass
class FrameRecord:
    """One media unit: a video frame or an audio sample."""

    frame_id: int
    stream: str  # "video" | "audio"
    capture_us: TimeUs
    encode_done_us: TimeUs
    size_bytes: int
    svc_layer: int = 0
    target_fps: float = 0.0
    packet_ids: List[int] = field(default_factory=list)
    ssim: Optional[float] = None
    rendered_us: Optional[TimeUs] = None
    display_duration_us: Optional[TimeUs] = None
    stalled: bool = False
    #: Conference call this frame belongs to (None on single-call records).
    call_id: Optional[int] = None


@dataclass
class SyncExchangeRecord:
    """One NTP-style two-way exchange between a capture host and the core.

    All four timestamps are *local clock readings*: ``t1``/``t4`` on the
    named host, ``t2``/``t3`` on the core.  Athena's synchronization step
    estimates per-host clock offsets from these before correlating captures.
    """

    host: str  # capture point name ("sender", "receiver", "sfu")
    t1: TimeUs
    t2: TimeUs
    t3: TimeUs
    t4: TimeUs
    #: Conference call whose topology ran the exchange (None on single-call).
    call_id: Optional[int] = None


@dataclass
class ProbeRecord:
    """One ICMP echo (core → receiver path probe, orange line in Fig 3)."""

    probe_id: int
    sent_us: TimeUs
    received_us: Optional[TimeUs] = None
    #: Conference call whose prober sent the echo (None on single-call).
    call_id: Optional[int] = None

    def owd_us(self) -> Optional[TimeUs]:
        """One-way delay, or None if the probe was lost."""
        if self.received_us is None:
            return None
        return self.received_us - self.sent_us


def record_belongs_to_call(
    channel: str, record: object, call_id: int, ue_id: Optional[int]
) -> bool:
    """Whether a record is part of call ``call_id`` (UE ``ue_id``).

    Application-layer records (packets, frames, probes, sync exchanges)
    carry ``call_id`` directly; PHY records (transport blocks, grants) are
    cell-shared and attributed through the call's UE id instead.
    """
    if channel in ("tb", "grant"):
        return ue_id is not None and getattr(record, "ue_id", None) == ue_id
    return getattr(record, "call_id", None) == call_id


@dataclass
class Trace:
    """All records from one experiment, ready for Athena to correlate."""

    metadata: Dict[str, object] = field(default_factory=dict)
    packets: List[PacketRecord] = field(default_factory=list)
    transport_blocks: List[TransportBlockRecord] = field(default_factory=list)
    grants: List[GrantRecord] = field(default_factory=list)
    frames: List[FrameRecord] = field(default_factory=list)
    probes: List[ProbeRecord] = field(default_factory=list)
    sync_exchanges: List[SyncExchangeRecord] = field(default_factory=list)

    def packets_of_kind(self, kind: MediaKind) -> List[PacketRecord]:
        """Packets whose payload classification is ``kind``."""
        return [p for p in self.packets if p.kind == kind]

    def frames_of_stream(self, stream: str) -> List[FrameRecord]:
        """Frames belonging to the given media stream ("video"/"audio")."""
        return [f for f in self.frames if f.stream == stream]

    def packet_index(self) -> Dict[int, PacketRecord]:
        """Map from packet_id to record."""
        return {p.packet_id: p for p in self.packets}

    def frame_index(self) -> Dict[int, FrameRecord]:
        """Map from frame_id to record."""
        return {f.frame_id: f for f in self.frames}

    def tb_index(self) -> Dict[int, TransportBlockRecord]:
        """Map from tb_id to record."""
        return {tb.tb_id: tb for tb in self.transport_blocks}

    def call_ids(self) -> List[int]:
        """Distinct call ids tagged on this trace's records, ascending."""
        ids = {
            record.call_id
            for family in (self.packets, self.frames, self.probes, self.sync_exchanges)
            for record in family
            if record.call_id is not None
        }
        return sorted(ids)

    def for_call(self, call_id: int, ue_id: Optional[int] = None) -> "Trace":
        """The per-call view of a multi-call cell trace.

        Record objects are shared with the parent trace, not copied; PHY
        records are attributed through ``ue_id`` (see
        :func:`record_belongs_to_call`), so passing ``ue_id=None`` yields a
        view without TB/grant telemetry.
        """
        view = Trace(metadata=dict(self.metadata))
        view.metadata["call_id"] = call_id
        from .bus import CHANNEL_FIELDS  # local import: bus imports schema

        for channel, attr in CHANNEL_FIELDS.items():
            setattr(
                view,
                attr,
                [
                    record
                    for record in getattr(self, attr)
                    if record_belongs_to_call(channel, record, call_id, ue_id)
                ],
            )
        return view
