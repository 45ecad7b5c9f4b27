"""Configuration of the simulated 5G standalone cell.

Defaults mirror the private small cell measured in the paper (§2, §3):

* TDD with the ``DDDSU`` slot pattern at 30 kHz subcarrier spacing — one
  0.5 ms uplink slot every 2.5 ms, downlink slots four times as frequent;
* BSR-to-grant scheduling delay of ~10 ms;
* HARQ retransmission delay of 10 ms per round;
* proactive grants sized to carry "one or two" RTP packets per uplink slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sim.units import TimeUs, ms


@dataclass(frozen=True)
class RanConfig:
    """All tunables of the RAN simulator.

    The defaults reproduce the paper's cell; experiments override individual
    fields (e.g. disabling proactive grants, changing the TDD pattern, or
    sweeping the HARQ failure probability) by constructing with the value
    or with :func:`dataclasses.replace` — the config is frozen.
    """

    # --- frame structure -------------------------------------------------
    slot_us: TimeUs = 500  # numerology mu=1 (30 kHz SCS)
    tdd_pattern: str = "DDDSU"  # one UL slot per 2.5 ms, DL 4x as frequent
    fdd: bool = False  # if True every slot is both DL and UL capable

    # --- capacity ---------------------------------------------------------
    n_ul_prbs: int = 106  # 40 MHz carrier at 30 kHz SCS
    data_symbols_per_slot: int = 13
    subcarriers_per_prb: int = 12

    # --- scheduling (§3.1) -------------------------------------------------
    bsr_sched_delay_us: TimeUs = ms(10.0)  # BSR sent -> grant usable
    sr_sched_delay_us: TimeUs = ms(10.0)  # SR sent -> initial grant usable
    proactive_grants: bool = True
    proactive_tb_bits: int = 16_000  # carries 1-2 ~1100 B RTP packets
    # How requested grants compete for PRBs: "round_robin" shares the slot
    # across UEs; "fifo" serves the oldest grant first (a backlogged heavy
    # UE can then starve light flows under overload).
    scheduler_policy: str = "round_robin"
    sr_grant_bits: int = 2_000  # initial grant after a scheduling request

    # --- HARQ (§3.2) / RLC --------------------------------------------------
    harq_rtt_us: TimeUs = ms(10.0)  # retransmission delay per round
    max_harq_rounds: int = 4  # then the TB (and its packets) are lost
    # RLC mode: "um" (unacknowledged; HARQ exhaustion drops the packet, the
    # norm for low-latency media bearers) or "am" (acknowledged; the RLC
    # layer re-enqueues the packet for retransmission).
    rlc_mode: str = "um"
    rlc_max_retx: int = 4  # AM: RLC-level retransmissions before giving up
    base_bler: float = 0.08  # first-transmission block error rate
    # Per-retransmission failure probability; None tracks the channel's BLER.
    retx_bler: "float | None" = None

    # --- link budget --------------------------------------------------------
    default_mcs: int = 20  # per-UE MCS when no channel model is attached
    decode_delay_us: TimeUs = 0  # extra processing after the slot ends

    # --- propagation beyond the air interface ------------------------------
    ue_to_gnb_proc_us: TimeUs = 250  # UE L2 processing before a slot
    gnb_to_core_us: TimeUs = ms(1.0)  # backhaul from gNB to mobile core

    # --- simulator performance ---------------------------------------------
    # Skip uplink slots on which the cell provably has nothing to do (no
    # buffered data, no due or pending grant, no HARQ reservation, no
    # advisor): the slot loop jumps straight to the next busy slot and the
    # zero-fill proactive-grant capacity accounting is fast-forwarded
    # arithmetically.  Semantically identical to the per-slot reference
    # loop (elide_idle_slots=False) — a trace-identity test enforces
    # byte-identical JSONL output for both settings.
    elide_idle_slots: bool = True

    # bookkeeping
    capacity_window_us: TimeUs = ms(100.0)  # granularity of capacity series

    def __post_init__(self) -> None:
        if self.slot_us <= 0:
            raise ValueError("slot_us must be positive")
        if self.n_ul_prbs <= 0:
            raise ValueError(f"n_ul_prbs must be positive: {self.n_ul_prbs}")
        if not self.fdd and "U" not in self.tdd_pattern.upper():
            raise ValueError(f"TDD pattern {self.tdd_pattern!r} has no uplink slot")
        if not 0.0 <= self.base_bler < 1.0:
            raise ValueError(f"base_bler out of range: {self.base_bler}")
        if self.retx_bler is not None and not 0.0 <= self.retx_bler < 1.0:
            raise ValueError(f"retx_bler out of range: {self.retx_bler}")
        if self.max_harq_rounds < 0:
            raise ValueError("max_harq_rounds must be >= 0")
        if self.harq_rtt_us <= 0:
            raise ValueError("harq_rtt_us must be positive")
        if self.scheduler_policy not in ("round_robin", "fifo"):
            raise ValueError(
                f"unknown scheduler policy: {self.scheduler_policy!r}"
            )
        if self.rlc_mode not in ("um", "am"):
            raise ValueError(f"unknown RLC mode: {self.rlc_mode!r}")
        if self.rlc_max_retx < 0:
            raise ValueError("rlc_max_retx must be >= 0")

    @property
    def ul_period_us(self) -> TimeUs:
        """Nominal spacing between uplink opportunities (2.5 ms by default)."""
        if self.fdd:
            return self.slot_us
        pattern = self.tdd_pattern.upper()
        return self.slot_us * len(pattern) // pattern.count("U")


@dataclass(frozen=True)
class CrossTrafficPhase:
    """One constant-rate phase of the background load (Fig 3/4 uses
    five-minute phases at 0, 14, 16, and 18 Mbps)."""

    start_us: TimeUs
    rate_kbps: float

    def __post_init__(self) -> None:
        if self.rate_kbps < 0:
            raise ValueError("rate must be >= 0")


@dataclass(frozen=True)
class CrossTrafficConfig:
    """Aggregate background traffic from competing mobiles in the cell.

    Frozen; a list passed as ``phases`` is stored as a tuple.
    """

    n_ues: int = 6
    phases: Tuple[CrossTrafficPhase, ...] = (CrossTrafficPhase(0, 0.0),)
    packet_bytes: int = 1_400
    # On/off burstiness: traffic is sent in bursts so the cell experiences
    # transient saturation even when the average rate is below capacity.
    burst_on_ms: float = 60.0
    burst_off_ms: float = 40.0

    def __post_init__(self) -> None:
        if isinstance(self.phases, list):
            object.__setattr__(self, "phases", tuple(self.phases))

    def rate_at(self, time_us: TimeUs) -> float:
        """Aggregate offered rate_kbps (kbps) at ``time_us``."""
        rate_kbps = 0.0
        for phase in self.phases:
            if time_us >= phase.start_us:
                rate_kbps = phase.rate_kbps
        return rate_kbps
