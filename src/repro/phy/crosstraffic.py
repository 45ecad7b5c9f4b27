"""Background load from competing mobiles in the cell.

The paper's experiment (§2) shares the cell with six other mobiles whose
aggregate uplink throughput steps through 0, 14, 16, and 18 Mbps in
five-minute phases.  Each simulated cross-traffic UE sends in on/off bursts
(Poisson arrivals within a burst), so the cell sees transient saturation —
the mechanism behind the 40–120 ms delay excursions of Fig 3 — even when
the average load is below capacity.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..sim.engine import Simulator
from ..sim.units import TimeUs, ms
from ..trace.schema import MediaKind, PacketRecord, new_packet_id
from .params import CrossTrafficConfig
from .ran import RanSimulator


class CrossTrafficSource:
    """Drives one cross-traffic UE's packet generation."""

    def __init__(
        self,
        sim: Simulator,
        ran: RanSimulator,
        ue_id: int,
        config: CrossTrafficConfig,
        n_ues: int,
        rng: np.random.Generator,
        phase_offset_us: TimeUs = 0,
    ) -> None:
        self._sim = sim
        self._ran = ran
        self._ue_id = ue_id
        self._config = config
        self._n_ues = n_ues
        self._rng = rng
        self._phase_offset_us = phase_offset_us
        self._cycle_us = ms(config.burst_on_ms + config.burst_off_ms)
        self._on_us = ms(config.burst_on_ms)
        self._flow_id = f"cross-ue{ue_id}"
        # Mean in-burst packet gap (us), keyed by each phase's per-UE rate.
        self._mean_gap_us: Dict[float, float] = {}
        for phase in config.phases:
            per_ue_kbps = phase.rate_kbps / n_ues
            if per_ue_kbps > 0:
                self._mean_gap_us[per_ue_kbps] = self._gap_for(per_ue_kbps)
        self.packets_sent = 0
        self.bytes_sent = 0

    def start(self) -> None:
        """Begin generating traffic."""
        self._sim.post(self._sim.now, self._next_packet)

    # ------------------------------------------------------------------
    def _in_burst(self, now: TimeUs) -> bool:
        position = (now + self._phase_offset_us) % self._cycle_us
        return position < self._on_us

    def _next_burst_start(self, now: TimeUs) -> TimeUs:
        cycle = self._cycle_us
        position = (now + self._phase_offset_us) % cycle
        return now + (cycle - position)

    def _gap_for(self, per_ue_kbps: float) -> float:
        """Mean in-burst gap (us) that averages ``per_ue_kbps`` over a cycle.

        Within a burst the send rate compensates for the off period so the
        long-run average matches the configured phase rate.
        """
        config = self._config
        cycle_ms = config.burst_on_ms + config.burst_off_ms
        burst_kbps = per_ue_kbps * cycle_ms / config.burst_on_ms
        return config.packet_bytes * 8 / (burst_kbps * 1_000) * 1e6

    def _next_packet(self) -> None:
        now = self._sim.now
        per_ue_kbps = self._config.rate_at(now) / self._n_ues
        if per_ue_kbps <= 0:
            # Idle phase: poll for the next phase boundary.
            self._sim.post(now + ms(100.0), self._next_packet)
            return
        if not self._in_burst(now):
            self._sim.post(self._next_burst_start(now), self._next_packet)
            return
        packet = PacketRecord(
            packet_id=new_packet_id(),
            flow_id=self._flow_id,
            kind=MediaKind.CROSS,
            size_bytes=self._config.packet_bytes,
        )
        self._ran.send_uplink(self._ue_id, packet)
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        gap = max(1, int(self._rng.exponential(self._mean_gap_us[per_ue_kbps])))
        self._sim.post(now + gap, self._next_packet)


def attach_cross_traffic(
    sim: Simulator,
    ran: RanSimulator,
    config: CrossTrafficConfig,
    rng: np.random.Generator,
    first_ue_id: int = 100,
) -> List[CrossTrafficSource]:
    """Attach ``config.n_ues`` background mobiles to the cell and start them.

    Burst phases are staggered across UEs so the aggregate load is bursty
    but not synchronized.
    """
    sources: List[CrossTrafficSource] = []
    cycle = ms(config.burst_on_ms + config.burst_off_ms)
    for i in range(config.n_ues):
        ue_id = first_ue_id + i
        ran.add_ue(ue_id, proactive=False, record_tbs=False)
        source = CrossTrafficSource(
            sim=sim,
            ran=ran,
            ue_id=ue_id,
            config=config,
            n_ues=config.n_ues,
            rng=rng,
            phase_offset_us=(cycle * i) // max(1, config.n_ues),
        )
        source.start()
        sources.append(source)
    return sources
