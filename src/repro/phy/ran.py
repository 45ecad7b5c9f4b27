"""Top-level RAN simulator: the cell, its UEs, and the slot loop.

:class:`RanSimulator` is the facade the network layer talks to.  It owns the
TDD clock, the gNB scheduler, and the attached UEs; packets handed to
:meth:`send_uplink` come out of the per-UE sink callback when their last
transport block decodes, which the network layer then carries to the mobile
core.  It also produces the PHY telemetry stream (TB and grant records) that
Athena correlates, and the per-window granted-capacity series used to
configure the paper's emulated wired baseline (Fig 7).

Slot-loop hot path (DESIGN.md §3.2)
-----------------------------------
A cell-wide *idle* uplink slot — no buffered data, no due or pending grant,
no HARQ reservation, no advisor grant due — produces no transport blocks, no
HARQ draws, and no channel samples; its only effect is the capacity
accounting of the zero-fill proactive grants, computed arithmetically from
each channel's RNG-free ``nominal_mcs``.  Because idle slots are pure
arithmetic, the loop can *elide* them (``RanConfig.elide_idle_slots``): it
jumps straight to the scheduler's ``next_busy_slot_after`` and goes fully
dormant when no work is queued, revived by demand wake-ups from packet
enqueues, decoded BSRs/SRs, new grants, retransmission reservations,
advisor installation and advisor schedule refreshes
(:meth:`RanSimulator.advisor_changed`).  Slot events run at a reserved
negative priority so the elided and per-slot reference paths fire in
identical order among same-timestamp events; a trace-identity test asserts
the two paths emit byte-identical telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.engine import EventHandle, Simulator
from ..sim.random import RngStreams
from ..sim.units import TimeUs, US_PER_SEC
from ..trace.bus import InMemorySink, TraceSink
from ..trace.schema import PacketRecord, TransportBlockRecord
from .mcs import bits_per_prb
from .params import RanConfig
from .scheduler import GnbScheduler, GrantAdvisor
from .tdd import TddFrame
from .ue import PacketSink, UePhy

#: Slot events fire before all same-timestamp default-priority events, so a
#: slot event re-inserted after an elided stretch keeps the exact position
#: the per-slot reference loop would have given it.
SLOT_PRIORITY = -1


def nominal_ul_capacity_kbps(config: RanConfig) -> float:
    """Theoretical uplink capacity at the default MCS with full allocation.

    Derived purely from the cell configuration — no simulator needed — so
    emulated baselines can be sized before any run executes (Fig 7).
    """
    tdd = TddFrame(config.tdd_pattern, config.slot_us, fdd=config.fdd)
    per_slot_bits = config.n_ul_prbs * bits_per_prb(
        config.default_mcs, config.subcarriers_per_prb, config.data_symbols_per_slot
    )
    return per_slot_bits / (tdd.ul_period_us / US_PER_SEC) / 1_000


@dataclass
class CapacityWindow:
    """Granted vs used uplink bits in one accounting window."""

    start_us: TimeUs
    granted_bits: int = 0
    used_bits: int = 0

    def granted_kbps(self, window_us: TimeUs) -> float:
        """Granted capacity of this window in kbps."""
        return self.granted_bits / (window_us / US_PER_SEC) / 1_000

    def used_kbps(self, window_us: TimeUs) -> float:
        """Capacity actually filled with data in this window, kbps."""
        return self.used_bits / (window_us / US_PER_SEC) / 1_000


class RanSimulator:
    """A single 5G standalone cell with TDD uplink scheduling and HARQ."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[RanConfig] = None,
        rngs: Optional[RngStreams] = None,
        record_tb_window: Optional[Tuple[TimeUs, TimeUs]] = None,
        record_grants: bool = False,
        sink: Optional[TraceSink] = None,
    ) -> None:
        self.sim = sim
        self.config = config or RanConfig()
        self._rngs = rngs or RngStreams(0)
        self.tdd = TddFrame(
            self.config.tdd_pattern, self.config.slot_us, fdd=self.config.fdd
        )
        self.sink = sink if sink is not None else InMemorySink()
        self.scheduler = GnbScheduler(self.config, self.tdd, sink=self.sink)
        self.scheduler.record_grants = record_grants
        self._ues: Dict[int, UePhy] = {}
        # The same UEs in attach order, rebuilt by add_ue: the slot loop
        # hands this list to the scheduler instead of re-listing the dict.
        self._ue_list: List[UePhy] = []
        self._record_tb_window = record_tb_window
        # Capacity windows: keyed by window index, kept in insertion order.
        # Accounting times are monotonic, so insertion order IS time order;
        # a dirty flag covers the defensive out-of-order case so
        # capacity_series() never has to re-sort on the common path.
        self._capacity_windows: Dict[int, CapacityWindow] = {}
        self._ordered_windows: List[CapacityWindow] = []
        self._windows_sorted = True
        self._last_window_key = -1
        self._slot_loop_started = False
        # Idle-elision state: all uplink slots with start < _idle_cursor have
        # been processed or accounted; _slot_handle/_next_slot_us track the
        # single scheduled slot event (None/dormant when no work is queued).
        self._idle_cursor: TimeUs = 0
        self._slot_handle: Optional[EventHandle] = None
        self._next_slot_us: TimeUs = 0
        self._in_slot = False
        # Elision requires every channel to expose an RNG-free nominal_mcs;
        # time-varying nominal MCS (phased channels) forces per-slot idle
        # accounting instead of the O(1) arithmetic fast-forward.
        self._nominal_mcs_ok = True
        self._nominal_mcs_varies = False
        # Cached "the loop elides" predicate (hot in _demand_wake).
        self._eliding = False
        self.scheduler.wake_hook = self._demand_wake

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_ue(
        self,
        ue_id: int,
        channel: Optional[object] = None,
        proactive: Optional[bool] = None,
        record_tbs: bool = False,
    ) -> UePhy:
        """Attach a mobile to the cell."""
        if ue_id in self._ues:
            raise ValueError(f"UE {ue_id} already attached")
        # Settle idle accounting with the current UE set before it changes:
        # slots already passed must not see the new UE's proactive grant.
        self._catch_up_idle()
        ue = UePhy(
            ue_id=ue_id,
            sim=self.sim,
            config=self.config,
            tdd=self.tdd,
            rng=self._rngs.stream(f"phy.ue{ue_id}"),
            channel=channel,
            proactive=proactive,
            record_tbs=record_tbs,
            trace_sink=self.sink,
        )
        self._ues[ue_id] = ue
        self._ue_list = list(self._ues.values())
        if not hasattr(ue.channel, "nominal_mcs"):
            self._nominal_mcs_ok = False  # unknown channel: never elide
        elif getattr(ue.channel, "nominal_mcs_varies", True):
            self._nominal_mcs_varies = True
        self._ensure_slot_loop()
        self._eliding = self.config.elide_idle_slots and self._nominal_mcs_ok
        return ue

    def ue(self, ue_id: int) -> UePhy:
        """Look up an attached UE."""
        return self._ues[ue_id]

    def set_uplink_sink(self, ue_id: int, sink: PacketSink) -> None:
        """Set the callback invoked when a UE's packet reaches the mobile core.

        The sink fires one gNB-to-core backhaul delay after the final
        transport block of the packet decodes.
        """
        backhaul = self.config.gnb_to_core_us

        def deliver(packet: PacketRecord, decode_us: TimeUs) -> None:
            arrival = decode_us + backhaul
            self.sim.post(arrival, lambda: sink(packet, arrival))

        self._ues[ue_id].sink = deliver

    def set_grant_advisor(self, advisor: Optional[GrantAdvisor]) -> None:
        """Install an application-aware scheduling strategy (§5.2)."""
        # Settle the elided slots under the old advisor: idle accounting
        # and the round-robin rotation both depend on which one is set.
        self._catch_up_idle()
        self.scheduler.advisor = advisor
        if advisor is not None:
            self.advisor_changed()

    def advisor_changed(self) -> None:
        """The advisor's schedule moved: its next grant may now be sooner.

        Schedule refreshes outside the slot loop must call this, or an
        eliding loop could sleep through a grant the refresh pulled in.
        """
        self._demand_wake(self.sim.now + 1)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def send_uplink(self, ue_id: int, packet: PacketRecord) -> None:
        """Hand a packet to a UE's transmission buffer."""
        ue = self._ues[ue_id]

        def enqueue() -> None:
            was_empty = ue.enqueue(packet)
            needs_sr = was_empty and (
                not ue.proactive or not self.config.proactive_grants
            )
            if needs_sr and self.scheduler.pending_grants_for(ue_id) == 0:
                sr_slot = self.tdd.next_ul_slot_start(self.sim.now)
                self.sim.post(
                    sr_slot,
                    lambda: self.scheduler.on_sr(ue_id, sr_slot, self.sim.now),
                )
            # Buffered data makes the next uplink slot busy.
            self._demand_wake(self.sim.now + 1)

        if self.config.ue_to_gnb_proc_us > 0:
            self.sim.post(self.sim.now + self.config.ue_to_gnb_proc_us, enqueue)
        else:
            enqueue()

    def send_downlink(
        self, ue_id: int, packet: PacketRecord, sink: PacketSink
    ) -> None:
        """Carry a packet from the core to a UE over the downlink.

        Downlink slots are four times as frequent as uplink slots, so this
        path adds little and stable delay — matching the paper's takeaway
        (c) from Fig 3.  Modeled as backhaul + wait-for-DL-slot + one slot.
        """
        if ue_id not in self._ues:
            raise KeyError(f"UE {ue_id} not attached")
        arrival = self.sim.now + self.config.gnb_to_core_us
        deliver_at = self.tdd.next_dl_slot_start(arrival) + self.config.slot_us
        self.sim.post(deliver_at, lambda: sink(packet, deliver_at))

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    def capacity_series(self) -> List[CapacityWindow]:
        """Granted/used capacity per accounting window, time-ordered.

        Accounting happens in time order, so the insertion-ordered window
        list is returned as-is; a sort only happens in the (defensive)
        out-of-order case.  A dormant slot loop never accounts the idle
        tail, so the series first catches idle accounting up to now.
        """
        self._catch_up_idle()
        if not self._windows_sorted:
            self._ordered_windows.sort(key=lambda w: w.start_us)
            self._windows_sorted = True
        return list(self._ordered_windows)

    def mean_granted_kbps(self) -> float:
        """Average granted uplink capacity over the run."""
        windows = self.capacity_series()
        if not windows:
            return 0.0
        total_bits = sum(w.granted_bits for w in windows)
        span_us = len(windows) * self.config.capacity_window_us
        return total_bits / (span_us / US_PER_SEC) / 1_000

    def nominal_ul_capacity_kbps(self) -> float:
        """Theoretical uplink capacity at the default MCS with full allocation."""
        return nominal_ul_capacity_kbps(self.config)

    # ------------------------------------------------------------------
    # Slot loop
    # ------------------------------------------------------------------
    def _ensure_slot_loop(self) -> None:
        if self._slot_loop_started:
            return
        self._slot_loop_started = True
        self._idle_cursor = self.sim.now
        self._schedule_slot_at(self.tdd.next_ul_slot_start(self.sim.now))

    def _schedule_slot_at(self, slot_us: TimeUs) -> None:
        self._next_slot_us = slot_us
        self._slot_handle = self.sim.at(
            slot_us, self._slot_event, priority=SLOT_PRIORITY
        )

    def _slot_event(self) -> None:
        """Handle the uplink slot starting now; schedule (or elide) the next.

        Both loop paths share this handler.  The reference path
        (``elide_idle_slots=False``) unconditionally reschedules one slot
        ahead; the eliding path asks the scheduler for the next busy slot
        and goes dormant when there is none, relying on demand wake-ups.
        """
        sim_now = self.sim.now
        slot_us = sim_now
        self._slot_handle = None
        scheduler = self.scheduler
        ues = self._ue_list
        busy = not self._nominal_mcs_ok or scheduler.is_busy_slot(slot_us, ues)
        if self._idle_cursor < slot_us:
            self._account_idle_range(slot_us)  # lazily account elided slots
        self._idle_cursor = slot_us + 1
        if busy:
            self._in_slot = True
            try:
                self._process_slot(slot_us)
            finally:
                self._in_slot = False
        else:
            self._account_idle_slot(slot_us)
            if scheduler.advisor is not None:
                scheduler.skip_slots(1)
        if not self._eliding:
            self._schedule_slot_at(
                self.tdd.next_ul_slot_start(slot_us + self.config.slot_us)
            )
            return
        next_busy = scheduler.next_busy_slot_after(slot_us, ues)
        if next_busy is not None:
            self._schedule_slot_at(next_busy)
        # else: dormant until a demand wake revives the loop.

    def _demand_wake(self, needed_us: TimeUs) -> None:
        """Demand appeared (enqueue/grant/reservation): wake the slot loop.

        Targets the first uplink slot *strictly after* now — at a slot-start
        timestamp the slot event (negative priority) has already fired
        before whatever callback raised the demand, so the reference loop
        could not have served it this slot either.  Spurious wake-ups are
        harmless: the slot event treats a workless slot as idle.
        """
        if self._in_slot or not self._eliding:
            return
        handle = self._slot_handle
        if handle is not None:
            # The wake target is >= max(needed_us, now + 1); if the pending
            # slot event is already at or before that, it cannot move.
            next_slot_us = self._next_slot_us
            if next_slot_us <= needed_us or next_slot_us <= self.sim.now + 1:
                return
        slot = self.tdd.next_ul_slot_start(max(needed_us, self.sim.now + 1))
        if handle is not None:
            if self._next_slot_us <= slot:
                return
            handle.cancel()
        self._schedule_slot_at(slot)

    def _catch_up_idle(self) -> None:
        """Account idle slots the dormant loop has passed without firing."""
        if not self._slot_loop_started:
            return
        limit = self.sim.now + 1
        if self._slot_handle is not None and self._next_slot_us < limit:
            # The pending slot event has not fired yet (setup phase): only
            # slots strictly before it are settled.
            limit = self._next_slot_us
        self._account_idle_range(limit)

    def _account_idle_range(self, limit_us: TimeUs) -> None:
        """Account all idle uplink slots in ``[idle_cursor, limit_us)``.

        Constant nominal MCS (the common case) is fast-forwarded per
        capacity window via :meth:`TddFrame.ul_slot_count`; time-varying
        nominal MCS (phased channels) falls back to a per-slot walk.
        """
        cursor = self._idle_cursor
        if limit_us <= cursor:
            return
        self._idle_cursor = limit_us
        if not self._ues:
            return
        first = self.tdd.next_ul_slot_start(cursor)
        if first >= limit_us:
            return
        if self.scheduler.advisor is not None:
            self.scheduler.skip_slots(self.tdd.ul_slot_count(first, limit_us))
        if self._nominal_mcs_varies:
            for slot_us in self.tdd.ul_slots_between(first, limit_us):
                self._account_idle_slot(slot_us)
            return
        granted = self.scheduler.idle_slot_granted_bits(first, self._ue_list)
        if granted == 0:
            return
        window_us = self.config.capacity_window_us
        key = first // window_us
        last_key = (limit_us - 1) // window_us
        while key <= last_key:
            lo = key * window_us
            n_slots = self.tdd.ul_slot_count(
                max(first, lo), min(limit_us, lo + window_us)
            )
            if n_slots:
                self._window(key).granted_bits += n_slots * granted
            key += 1

    def _account_idle_slot(self, slot_us: TimeUs) -> None:
        """Account one idle slot's zero-fill proactive grants (no TBs)."""
        granted = self.scheduler.idle_slot_granted_bits(slot_us, self._ue_list)
        if granted:
            key = slot_us // self.config.capacity_window_us
            self._window(key).granted_bits += granted

    def _process_slot(self, slot_us: TimeUs) -> None:
        scheduler = self.scheduler
        allocations = scheduler.schedule_slot(slot_us, self._ue_list)
        allocated_ids = {alloc.ue.ue_id for alloc in allocations}
        # Scheduling-request safety net: a UE with buffered data, no TB this
        # slot, and no grant in flight raises an SR on the control channel
        # (otherwise a starved UE could deadlock when proactive grants are
        # crowded out under load).
        for ue in self._ue_list:
            if (
                ue.ue_id not in allocated_ids
                and not ue.buffer.empty
                and scheduler.pending_grants_for(ue.ue_id) == 0
            ):
                scheduler.on_sr(ue.ue_id, slot_us, self.sim.now)
        for alloc in allocations:
            state = alloc.ue.channel_state(slot_us)
            result = alloc.ue.build_tb(
                slot_us=slot_us,
                grant_bits=alloc.bits,
                prbs=alloc.prbs,
                kind=alloc.kind,
                state=state,
            )
            for failed_slot in result.tb.failed_slot_us:
                scheduler.reserve_retx(failed_slot, result.prbs_used)
            if result.bsr_delivered_us is not None and result.bsr_bytes:
                sent_slot = slot_us
                self.sim.post(
                    result.bsr_delivered_us,
                    lambda ue_id=alloc.ue.ue_id, b=result.bsr_bytes, s=sent_slot, d=result.bsr_delivered_us: self.scheduler.on_bsr(
                        ue_id, s, b, d, self.sim.now
                    ),
                )
            self._account_capacity(slot_us, result.tb)
            if alloc.ue.record_tbs and self._in_record_window(slot_us):
                self.sink.emit(result.tb)

    def _in_record_window(self, slot_us: TimeUs) -> bool:
        if self._record_tb_window is None:
            return True
        start, end = self._record_tb_window
        return start <= slot_us < end

    def _account_capacity(self, slot_us: TimeUs, tb: TransportBlockRecord) -> None:
        window = self._window(slot_us // self.config.capacity_window_us)
        window.granted_bits += tb.size_bits
        window.used_bits += tb.used_bits

    def _window(self, key: int) -> CapacityWindow:
        window = self._capacity_windows.get(key)
        if window is None:
            window = CapacityWindow(start_us=key * self.config.capacity_window_us)
            self._capacity_windows[key] = window
            self._ordered_windows.append(window)
            if key < self._last_window_key:
                self._windows_sorted = False
            else:
                self._last_window_key = key
        return window
