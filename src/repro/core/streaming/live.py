"""LiveDiagnosis: the shared feed the mitigations consume (§5.2/§5.3).

Before this existed, each mitigation kept a private hook into the RAN:
the receiver read ``packet.ran`` directly to mask delay for
:class:`~repro.mitigation.ran_aware_cc.RanAwareGcc`, and the learned
grant path fed :class:`~repro.mitigation.ml_predictor.PeriodicityPredictor`
from raw per-packet send events.  A :class:`LiveDiagnosis` is instead
populated by the streaming operators through an
:class:`~repro.core.streaming.tap.AnalysisTap` — one place where Athena's
online view of the RAN lives:

* per-packet RAN-induced delay (exact integer microseconds from the
  telemetry export), bounded-memory keyed by packet id — what the
  §5.3 congestion-control masking subtracts;
* the closed-burst feed from the frame clusterer — what the §5.2 learned
  grant scheduler trains on;
* rolling frame root-cause counts and the latest diagnosis — the "seeing"
  output, cheap enough to poll from any component.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from typing import Callable, Deque, List, Optional

from ...sim.units import TimeUs
from ...trace.schema import PacketRecord
from ..correlator import FrameCluster
from ..rootcause import DelayCause, FrameDiagnosis

#: Default per-packet retention: comfortably above the in-flight packet
#: count of a paper-scale session while keeping memory O(1) in run length.
DEFAULT_TRACKED_PACKETS = 4096


class LiveDiagnosis:
    """Bounded, continuously updated cross-layer diagnosis of one session."""

    def __init__(
        self,
        max_tracked_packets: int = DEFAULT_TRACKED_PACKETS,
        recent_diagnoses: int = 64,
    ) -> None:
        self.max_tracked_packets = max_tracked_packets
        self._ran_induced: "OrderedDict[int, TimeUs]" = OrderedDict()
        self.cause_counts: Counter = Counter()
        self.recent_diagnoses: Deque[FrameDiagnosis] = deque(
            maxlen=recent_diagnoses
        )
        self.latest_diagnosis: Optional[FrameDiagnosis] = None
        self.packets_seen = 0
        self.bursts_seen = 0
        self._burst_listeners: List[Callable[[TimeUs, int], None]] = []
        self._diagnosis_listeners: List[Callable[[FrameDiagnosis], None]] = []

    # -- operator-facing ingestion -------------------------------------
    def on_breakdown(self, packet: PacketRecord) -> None:
        """Record one packet's RAN-induced delay (DelayBreakdownOperator)."""
        self.packets_seen += 1
        ran = packet.ran
        if ran is not None:
            self._ran_induced[packet.packet_id] = ran.ran_induced_us()
            while len(self._ran_induced) > self.max_tracked_packets:
                self._ran_induced.popitem(last=False)

    def on_cluster(self, key: int, cluster: FrameCluster) -> None:
        """Accept one closed frame burst (FrameClusterOperator)."""
        self.bursts_seen += 1
        for listener in self._burst_listeners:
            listener(cluster.first_send_us, cluster.total_bytes)

    def on_diagnosis(self, diagnosis: FrameDiagnosis) -> None:
        """Accept one frame root-cause diagnosis (RootCauseOperator)."""
        self.cause_counts[diagnosis.cause] += 1
        self.recent_diagnoses.append(diagnosis)
        self.latest_diagnosis = diagnosis
        for listener in self._diagnosis_listeners:
            listener(diagnosis)

    # -- mitigation-facing queries -------------------------------------
    def ran_induced_us(self, packet_id: int) -> Optional[TimeUs]:
        """RAN-attributable delay of a recently diagnosed packet, or None."""
        return self._ran_induced.get(packet_id)

    def cause_fraction(self, cause: DelayCause) -> float:
        """Fraction of diagnosed frames attributed to ``cause``."""
        total = sum(self.cause_counts.values())
        if total == 0:
            return 0.0
        return self.cause_counts[cause] / total

    def tracked_packet_count(self) -> int:
        """Packets currently resident in the bounded delay map."""
        return len(self._ran_induced)

    # -- subscriptions -------------------------------------------------
    def add_burst_listener(self, listener: Callable[[TimeUs, int], None]) -> None:
        """Call ``listener(burst_start_us, burst_bytes)`` per closed burst."""
        self._burst_listeners.append(listener)

    def add_diagnosis_listener(
        self, listener: Callable[[FrameDiagnosis], None]
    ) -> None:
        """Call ``listener(diagnosis)`` for every diagnosed frame."""
        self._diagnosis_listeners.append(listener)
