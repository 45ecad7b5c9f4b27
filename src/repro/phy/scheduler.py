"""The base-station uplink scheduler (§3.1).

Every uplink slot the gNB divides the cell's PRBs among:

1. **HARQ retransmissions** — failed TBs get priority capacity in the slot
   one HARQ RTT after each failed attempt;
2. **requested grants** — sized from Buffer Status Reports, usable no
   earlier than ``bsr_sched_delay`` after the BSR (the ~10 ms loop the
   paper measures), served FIFO and split across slots when the cell is
   busy;
3. **proactive grants** — small fixed-size allocations handed to enabled
   UEs every uplink slot without waiting for a BSR, which is what trickles
   a video frame's packets out in 2.5 ms steps.

The scheduler over-grants by construction: a requested grant reflects the
buffer at BSR time, but proactive TBs drain part of that buffer during the
scheduling delay, so requested TBs often arrive to an empty buffer (the
unfilled green bars of Fig 9a).  An optional :class:`GrantAdvisor` hook lets
the §5.2 application-aware scheduler inject grants and suppress proactive
allocations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Protocol, Sequence

from ..sim.units import TimeUs
from ..trace.bus import InMemorySink, TraceSink
from ..trace.schema import GrantRecord, TbKind
from .bsr import quantize_buffer_bytes
from .grants import PendingGrant
from .mcs import bits_per_prb, prbs_for_bits
from .params import RanConfig
from .tdd import TddFrame
from .ue import UePhy


@dataclass
class SlotAllocation:
    """One UE's allocation in one uplink slot."""

    ue: UePhy
    bits: int
    prbs: int
    kind: TbKind
    grant: Optional[PendingGrant] = None


class GrantAdvisor(Protocol):
    """Hook for application-aware scheduling strategies (§5.2).

    The idle-eliding slot loop only fires the slots in which an advisor
    grants (:meth:`next_grant_slot`), so an advisor whose schedule changes
    outside :meth:`grants_for_slot` must be followed by
    :meth:`~repro.phy.ran.RanSimulator.advisor_changed`.  Proactive
    suppression is read per slot but must likewise only change with it.
    """

    def grants_for_slot(self, slot_us: TimeUs) -> List[PendingGrant]:
        """Extra grants to serve in this slot (treated as requested)."""

    def suppress_proactive(self, ue_id: int, slot_us: TimeUs) -> bool:
        """Return True to skip the proactive grant for this UE this slot."""

    def next_grant_slot(self, from_us: TimeUs) -> TimeUs:
        """Earliest uplink slot >= ``from_us`` in which
        :meth:`grants_for_slot` would grant under the current schedule."""


class GnbScheduler:
    """Per-slot PRB allocator with BSR/SR grant loops."""

    def __init__(
        self,
        config: RanConfig,
        tdd: TddFrame,
        sink: Optional[TraceSink] = None,
    ) -> None:
        self._config = config
        self._tdd = tdd
        # Per-UE grant queues, served round-robin so one backlogged UE
        # cannot starve the others.
        self._pending: Dict[int, Deque[PendingGrant]] = {}
        # Unserved bits per UE: the sum of remaining_bits over its queue,
        # kept as a running total (the SR check reads it every busy slot).
        self._owed_bits: Dict[int, int] = {}
        self._reserved_prbs: Dict[TimeUs, int] = {}
        self._rr_offset = 0  # round-robin start for fairness
        self.advisor: Optional[GrantAdvisor] = None
        self.sink = sink if sink is not None else InMemorySink()
        #: Invoked with the slot a new grant/reservation needs service at;
        #: the RAN's idle-eliding slot loop uses it to wake up early.
        self.wake_hook: Optional[Callable[[TimeUs], None]] = None
        self.record_grants = False

    # ------------------------------------------------------------------
    # Control-plane inputs
    # ------------------------------------------------------------------
    def on_bsr(
        self,
        ue_id: int,
        bsr_sent_slot_us: TimeUs,
        buffer_bytes: int,
        delivered_us: TimeUs,
        now_us: TimeUs,
    ) -> None:
        """React to a decoded Buffer Status Report.

        The grant is sized for the *quantized* BSR level minus grants this
        UE is already owed, and becomes usable one scheduling delay after
        the BSR was sent (later if HARQ delayed the BSR's own TB).
        """
        owed_bits = self.pending_grants_for(ue_id)
        grant_bits = quantize_buffer_bytes(buffer_bytes) * 8 - owed_bits
        if grant_bits <= 0:
            return
        usable = self._tdd.next_ul_slot_start(
            max(delivered_us, bsr_sent_slot_us + self._config.bsr_sched_delay_us)
        )
        grant = PendingGrant(
            ue_id=ue_id,
            kind=TbKind.REQUESTED,
            size_bits=grant_bits,
            usable_slot_us=usable,
            issued_us=now_us,
            bsr_us=bsr_sent_slot_us,
            bsr_bytes=buffer_bytes,
        )
        self._enqueue_grant(grant)

    def on_sr(self, ue_id: int, sr_slot_us: TimeUs, now_us: TimeUs) -> None:
        """React to a Scheduling Request with a small initial grant."""
        if self._pending.get(ue_id):
            return
        usable = self._tdd.next_ul_slot_start(
            sr_slot_us + self._config.sr_sched_delay_us
        )
        grant = PendingGrant(
            ue_id=ue_id,
            kind=TbKind.REQUESTED,
            size_bits=self._config.sr_grant_bits,
            usable_slot_us=usable,
            issued_us=now_us,
        )
        self._enqueue_grant(grant)

    def _enqueue_grant(self, grant: PendingGrant) -> None:
        ue_id = grant.ue_id
        self._pending.setdefault(ue_id, deque()).append(grant)
        self._owed_bits[ue_id] = self._owed_bits.get(ue_id, 0) + grant.remaining_bits
        self._log_grant(grant)
        if self.wake_hook is not None:
            self.wake_hook(grant.usable_slot_us)

    def reserve_retx(self, failed_slot_us: TimeUs, prbs: int) -> None:
        """Reserve capacity for a HARQ retransmission one RTT after a failure."""
        retx_slot = self._tdd.next_ul_slot_start(
            failed_slot_us + self._config.harq_rtt_us
        )
        self._reserved_prbs[retx_slot] = self._reserved_prbs.get(retx_slot, 0) + prbs
        if self.wake_hook is not None:
            self.wake_hook(retx_slot)

    def pending_grants_for(self, ue_id: int) -> int:
        """Bits of unserved requested grants owed to a UE.

        Sizes BSR grants and gates scheduling requests; O(1), read from the
        running total.
        """
        return self._owed_bits.get(ue_id, 0)

    # ------------------------------------------------------------------
    # Idle-slot elision queries
    # ------------------------------------------------------------------
    def is_busy_slot(self, slot_us: TimeUs, ues: Iterable[UePhy]) -> bool:
        """True if the cell has real work in this uplink slot.

        A slot is *busy* when any UE has buffered data, any pending grant is
        due (``usable_slot_us <= slot``), a HARQ retransmission reserved
        capacity in it, or an installed grant advisor has work in it (see
        :meth:`_advised_work`).  On a non-busy slot the only scheduler
        output would be zero-fill proactive grants, which the slot loop
        accounts arithmetically instead of simulating.
        """
        # Any reservation entry counts (even 0 PRBs): schedule_slot must run
        # so the entry is popped identically on both loop paths.
        if slot_us in self._reserved_prbs:
            return True
        for ue in ues:
            if not ue.buffer.empty:
                return True
        if self.advisor is not None:
            return self._advised_work(slot_us, ues) or (
                self.advisor.next_grant_slot(slot_us) <= slot_us
            )
        for queue in self._pending.values():
            for grant in queue:
                if grant.usable_slot_us <= slot_us:
                    return True
        return False

    def next_busy_slot_after(
        self, slot_us: TimeUs, ues: Iterable[UePhy]
    ) -> Optional[TimeUs]:
        """Earliest uplink slot after ``slot_us`` with real work, or None.

        Sources considered: buffered data on any UE, pending (even not yet
        due) grants, HARQ retransmission reservations, and an installed
        advisor's next grant or advised work.  Demand that *arrives later*
        (a packet enqueue, a decoded BSR, a scheduling request, an advisor
        schedule refresh) flows through :attr:`wake_hook` instead — together
        they make the slot loop exactly as reactive as the every-slot
        reference loop.
        """
        tdd = self._tdd
        for ue in ues:
            if not ue.buffer.empty:
                return tdd.next_ul_slot_start(slot_us + 1)
        candidate: Optional[TimeUs] = None
        advisor = self.advisor
        if advisor is not None:
            next_slot = tdd.next_ul_slot_start(slot_us + 1)
            if self._advised_work(next_slot, ues):
                return next_slot
            candidate = advisor.next_grant_slot(next_slot)
        else:
            for queue in self._pending.values():
                for grant in queue:
                    if candidate is None or grant.usable_slot_us < candidate:
                        candidate = grant.usable_slot_us
            if candidate is not None:
                candidate = tdd.next_ul_slot_start(max(candidate, slot_us + 1))
        for retx_slot in self._reserved_prbs:
            if retx_slot > slot_us and (candidate is None or retx_slot < candidate):
                candidate = retx_slot
        return candidate

    def _advised_work(self, slot_us: TimeUs, ues: Iterable[UePhy]) -> bool:
        """Work an advised slot has besides the advisor's own grants.

        With an advisor installed, :meth:`schedule_slot` samples the channel
        of every UE with a pending grant, due or not, and a proactive UE
        the advisor does not suppress gets a real (zero-fill) TB; either
        makes every slot busy while it lasts.
        """
        if self._pending:
            return True
        if not self._config.proactive_grants:
            return False
        advisor = self.advisor
        assert advisor is not None
        for ue in ues:
            if ue.proactive and not advisor.suppress_proactive(ue.ue_id, slot_us):
                return True
        return False

    def skip_slots(self, n: int) -> None:
        """Account ``n`` advised uplink slots that were not scheduled.

        With an advisor installed the round-robin start rotates on every
        uplink slot: :meth:`schedule_slot` rotates it on the slots it runs,
        and the slot loop calls this for the advised slots it skips.
        """
        self._rr_offset += n

    def idle_slot_granted_bits(
        self, slot_us: TimeUs, ues: Iterable[UePhy]
    ) -> int:
        """Granted bits a zero-demand uplink slot would produce.

        Mirrors the proactive-grant stage of :meth:`schedule_slot` for a
        slot with no requested grants or reservations — skipping UEs the
        advisor suppresses and sizing PRBs from each channel's RNG-free
        ``nominal_mcs`` — WITHOUT
        advancing the round-robin offset or any channel state.  The slot
        loop multiplies this by the number of elided slots to fast-forward
        capacity accounting arithmetically.
        """
        cfg = self._config
        if not cfg.proactive_grants:
            return 0
        ue_list = list(ues)
        n = len(ue_list)
        if n == 0:
            return 0
        available = cfg.n_ul_prbs
        granted = 0
        offset = self._rr_offset
        advisor = self.advisor
        for i in range(n):
            ue = ue_list[(offset + i) % n]
            if not ue.proactive:
                continue
            if advisor is not None and advisor.suppress_proactive(ue.ue_id, slot_us):
                continue
            prbs = prbs_for_bits(
                cfg.proactive_tb_bits,
                ue.channel.nominal_mcs(slot_us),
                cfg.subcarriers_per_prb,
                cfg.data_symbols_per_slot,
            )
            if prbs > available:
                continue
            available -= prbs
            granted += cfg.proactive_tb_bits
        return granted

    # ------------------------------------------------------------------
    # Per-slot allocation
    # ------------------------------------------------------------------
    def schedule_slot(
        self, slot_us: TimeUs, ue_list: Sequence[UePhy]
    ) -> List[SlotAllocation]:
        """Allocate this uplink slot's PRBs; returns at most one TB per UE.

        ``ue_list`` is the cell's attached UEs in attach order; a UE left
        out of it counts as detached and its grants are dropped.
        """
        cfg = self._config
        available = cfg.n_ul_prbs - self._reserved_prbs.pop(slot_us, 0)
        available = max(0, available)
        allocations: Dict[int, SlotAllocation] = {}

        if self.advisor is not None:
            for grant in self.advisor.grants_for_slot(slot_us):
                self._enqueue_grant(grant)

        # 1. Requested grants: under "round_robin" UEs share the slot (so a
        #    backlogged UE cannot starve the cell); under "fifo" the oldest
        #    outstanding grant goes first, cell-wide.  Each UE's own grants
        #    are always FIFO, split across slots when capacity-bound.
        ue_by_id = {ue.ue_id: ue for ue in ue_list} if self._pending else {}
        for ue_id in list(self._pending):
            if ue_id not in ue_by_id:
                del self._pending[ue_id]  # UE detached; drop its grants
                del self._owed_bits[ue_id]
        if cfg.scheduler_policy == "fifo":
            rr_ids = sorted(
                self._pending,
                key=lambda uid: self._pending[uid][0].issued_us,
            )
            offset = 0
        else:
            rr_ids = sorted(self._pending)
            offset = self._rr_offset
        n_req = len(rr_ids)
        for i in range(n_req):
            if available <= 0:
                break
            ue_id = rr_ids[(offset + i) % n_req]
            queue = self._pending.get(ue_id)
            if not queue or ue_id in allocations:
                continue
            ue = ue_by_id[ue_id]
            state = ue.channel_state(slot_us)
            per_prb = bits_per_prb(
                state.mcs, cfg.subcarriers_per_prb, cfg.data_symbols_per_slot
            )
            # Serve this UE's due grants (front of its queue) into one TB.
            tb_bits = 0
            tb_prbs = 0
            served_grant: Optional[PendingGrant] = None
            while queue and available > 0:
                grant = queue[0]
                if grant.usable_slot_us > slot_us:
                    break
                want_prbs = prbs_for_bits(
                    grant.remaining_bits,
                    state.mcs,
                    cfg.subcarriers_per_prb,
                    cfg.data_symbols_per_slot,
                )
                prbs = min(want_prbs, available)
                if prbs == 0:
                    break
                bits = min(prbs * per_prb, grant.remaining_bits)
                grant.serve(bits)
                self._owed_bits[ue_id] -= bits
                tb_bits += bits
                tb_prbs += prbs
                available -= prbs
                served_grant = grant
                if grant.done:
                    queue.popleft()
                else:
                    break  # capacity-bound: resume this grant next slot
            if tb_bits > 0:
                allocations[ue_id] = SlotAllocation(
                    ue=ue,
                    bits=tb_bits,
                    prbs=tb_prbs,
                    kind=TbKind.REQUESTED,
                    grant=served_grant,
                )
            if not queue:
                del self._pending[ue_id]
                del self._owed_bits[ue_id]

        # 2. Proactive grants for remaining capacity, round-robin.
        if cfg.proactive_grants and ue_list:
            n = len(ue_list)
            for i in range(n):
                ue = ue_list[(self._rr_offset + i) % n]
                if not ue.proactive or ue.ue_id in allocations:
                    continue
                if self.advisor is not None and self.advisor.suppress_proactive(
                    ue.ue_id, slot_us
                ):
                    continue
                state = ue.channel_state(slot_us)
                prbs = prbs_for_bits(
                    cfg.proactive_tb_bits,
                    state.mcs,
                    cfg.subcarriers_per_prb,
                    cfg.data_symbols_per_slot,
                )
                if prbs > available:
                    continue
                available -= prbs
                allocations[ue.ue_id] = SlotAllocation(
                    ue=ue, bits=cfg.proactive_tb_bits, prbs=prbs, kind=TbKind.PROACTIVE
                )

        self._rr_offset += 1  # rotate fairness start every slot
        return list(allocations.values())

    # ------------------------------------------------------------------
    def _log_grant(self, grant: PendingGrant) -> None:
        if not self.record_grants:
            return
        record = GrantRecord(
            grant_id=grant.grant_id,
            ue_id=grant.ue_id,
            kind=grant.kind,
            issued_us=grant.issued_us,
            usable_slot_us=grant.usable_slot_us,
            size_bits=grant.size_bits,
            bsr_us=grant.bsr_us,
            bsr_bytes=grant.bsr_bytes,
        )
        self.sink.emit(record)
