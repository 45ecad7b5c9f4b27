"""Unit tests of the gNB scheduler's grant machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import FixedChannel, PendingGrant, RanConfig, RanSimulator
from repro.phy.scheduler import GnbScheduler
from repro.phy.tdd import TddFrame
from repro.sim import RngStreams, Simulator, ms
from repro.trace import MediaKind, PacketRecord, TbKind
from repro.trace.schema import new_packet_id
import pytest


def _scheduler(**overrides):
    config = RanConfig(**overrides)
    tdd = TddFrame(config.tdd_pattern, config.slot_us, fdd=config.fdd)
    return GnbScheduler(config, tdd), config, tdd


def _ue(ran, ue_id=1, bler=0.0, proactive=True):
    return ran.add_ue(ue_id, channel=FixedChannel(20, bler), proactive=proactive)


def _fill(ue, nbytes):
    p = PacketRecord(packet_id=new_packet_id(), flow_id="x",
                     kind=MediaKind.VIDEO, size_bytes=nbytes)
    ue.enqueue(p)
    return p


class TestBsrGrantLoop:
    def test_bsr_creates_grant_after_sched_delay(self):
        sched, config, tdd = _scheduler()
        sched.on_bsr(ue_id=1, bsr_sent_slot_us=2_000, buffer_bytes=4_000,
                     delivered_us=2_500, now_us=2_500)
        assert sched.pending_grants_for(1) > 0
        # usable at first UL slot at/after 12 ms.
        sim = Simulator()
        ran = RanSimulator(sim, config, RngStreams(0))
        del ran
        # grant sized to quantized BSR
        grants = sched._pending[1]
        assert grants[0].usable_slot_us >= 2_000 + config.bsr_sched_delay_us
        assert grants[0].size_bits >= 4_000 * 8

    def test_owed_bits_suppress_duplicate_grants(self):
        sched, config, tdd = _scheduler()
        sched.on_bsr(1, 2_000, 4_000, 2_500, 2_500)
        before = sched.pending_grants_for(1)
        # Second BSR reports a smaller remaining buffer: already covered.
        sched.on_bsr(1, 4_500, 2_000, 5_000, 5_000)
        assert sched.pending_grants_for(1) == before

    def test_bigger_bsr_tops_up(self):
        sched, config, tdd = _scheduler()
        sched.on_bsr(1, 2_000, 4_000, 2_500, 2_500)
        before = sched.pending_grants_for(1)
        sched.on_bsr(1, 4_500, 20_000, 5_000, 5_000)
        assert sched.pending_grants_for(1) > before

    def test_zero_bsr_creates_nothing(self):
        sched, config, tdd = _scheduler()
        sched.on_bsr(1, 2_000, 0, 2_500, 2_500)
        assert sched.pending_grants_for(1) == 0


class TestSr:
    def test_sr_creates_small_grant(self):
        sched, config, tdd = _scheduler()
        sched.on_sr(1, 2_000, 2_000)
        assert sched.pending_grants_for(1) == config.sr_grant_bits

    def test_sr_ignored_when_grant_pending(self):
        sched, config, tdd = _scheduler()
        sched.on_sr(1, 2_000, 2_000)
        sched.on_sr(1, 4_500, 4_500)
        assert sched.pending_grants_for(1) == config.sr_grant_bits


class TestSlotAllocation:
    def test_one_tb_per_ue_per_slot(self):
        sim = Simulator()
        config = RanConfig(base_bler=0.0)
        ran = RanSimulator(sim, config, RngStreams(0))
        ue = _ue(ran)
        _fill(ue, 50_000)
        ran.scheduler.on_bsr(1, 0, 50_000, 500, 500)
        allocations = ran.scheduler.schedule_slot(ms(12.0), [ue])
        assert len(allocations) == 1

    def test_requested_replaces_proactive(self):
        sim = Simulator()
        config = RanConfig(base_bler=0.0)
        ran = RanSimulator(sim, config, RngStreams(0))
        ue = _ue(ran)
        ran.scheduler.on_bsr(1, 0, 5_000, 500, 500)
        allocations = ran.scheduler.schedule_slot(ms(12.0), [ue])
        assert allocations[0].kind == TbKind.REQUESTED

    def test_grant_not_yet_usable_gives_proactive(self):
        sim = Simulator()
        config = RanConfig(base_bler=0.0)
        ran = RanSimulator(sim, config, RngStreams(0))
        ue = _ue(ran)
        ran.scheduler.on_bsr(1, ms(10.0), 5_000, ms(10.5), ms(10.5))
        allocations = ran.scheduler.schedule_slot(ms(12.0), [ue])
        assert allocations[0].kind == TbKind.PROACTIVE

    def test_round_robin_fairness_under_saturation(self):
        sim = Simulator()
        config = RanConfig(base_bler=0.0, proactive_grants=False)
        ran = RanSimulator(sim, config, RngStreams(0))
        ues = [_ue(ran, i, proactive=False) for i in range(1, 5)]
        # Every UE owes a huge grant; capacity forces sharing.
        for i in range(1, 5):
            ran.scheduler.on_bsr(i, 0, 10_000_000, 500, 500)
        served = {i: 0 for i in range(1, 5)}
        slot = ms(12.0)
        for k in range(40):
            for alloc in ran.scheduler.schedule_slot(slot, ues):
                served[alloc.ue.ue_id] += alloc.bits
            slot += ms(2.5)
        total = sum(served.values())
        for ue_id, bits in served.items():
            assert bits > 0.15 * total / 4  # nobody starves

    def test_retx_reservation_shrinks_capacity(self):
        sched, config, tdd = _scheduler()
        sim = Simulator()
        ran = RanSimulator(sim, config, RngStreams(0))
        ue = _ue(ran)
        ran.scheduler.reserve_retx(ms(2.0), config.n_ul_prbs)  # full slot
        # reservation lands at next UL slot >= 2ms + 10ms = 12ms
        allocations = ran.scheduler.schedule_slot(ms(12.0), [ue])
        assert allocations == []  # no PRBs left for proactive

    def test_detached_ue_grants_dropped(self):
        sim = Simulator()
        config = RanConfig()
        ran = RanSimulator(sim, config, RngStreams(0))
        ue = _ue(ran)
        ran.scheduler.on_bsr(99, 0, 5_000, 500, 500)  # never attached
        ran.scheduler.schedule_slot(ms(12.0), [ue])
        assert ran.scheduler.pending_grants_for(99) == 0


class TestAdvisorHook:
    def test_advisor_grants_are_served(self):
        sim = Simulator()
        config = RanConfig(base_bler=0.0)
        ran = RanSimulator(sim, config, RngStreams(0))
        ue = _ue(ran)

        class OneShotAdvisor:
            def __init__(self):
                self.fired = False

            def grants_for_slot(self, slot_us):
                if not self.fired:
                    self.fired = True
                    return [PendingGrant(ue_id=1, kind=TbKind.REQUESTED,
                                         size_bits=30_000, usable_slot_us=slot_us,
                                         issued_us=slot_us)]
                return []

            def suppress_proactive(self, ue_id, slot_us):
                return True

        ran.scheduler.advisor = OneShotAdvisor()
        allocations = ran.scheduler.schedule_slot(ms(2.0), [ue])
        assert len(allocations) == 1
        assert allocations[0].kind == TbKind.REQUESTED
        assert allocations[0].bits == 30_000
        # proactive suppressed on the next slot
        allocations = ran.scheduler.schedule_slot(ms(4.5), [ue])
        assert allocations == []


class TestGrantObject:
    def test_partial_service(self):
        grant = PendingGrant(ue_id=1, kind=TbKind.REQUESTED, size_bits=10_000,
                             usable_slot_us=0, issued_us=0)
        grant.serve(4_000)
        assert grant.remaining_bits == 6_000 and not grant.done
        grant.serve(6_000)
        assert grant.done

    def test_over_service_rejected(self):
        grant = PendingGrant(ue_id=1, kind=TbKind.REQUESTED, size_bits=1_000,
                             usable_slot_us=0, issued_us=0)
        with pytest.raises(ValueError):
            grant.serve(2_000)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PendingGrant(ue_id=1, kind=TbKind.REQUESTED, size_bits=0,
                         usable_slot_us=0, issued_us=0)


class TestOwedBits:
    """``pending_grants_for`` is a running total; it must equal the queue sum."""

    _UE_IDS = (1, 2, 3)

    _ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("bsr"),
                st.sampled_from(_UE_IDS),
                st.integers(0, 60_000),  # buffer bytes
            ),
            st.tuples(st.just("sr"), st.sampled_from(_UE_IDS), st.just(0)),
            st.tuples(
                st.just("advise"),
                st.sampled_from(_UE_IDS + (9,)),  # 9 is never attached
                st.integers(1, 40_000),  # grant bits
            ),
            st.tuples(
                st.just("slot"),
                st.just(0),
                st.integers(0, 7),  # bit k set: UE k+1 left out (detached)
            ),
        ),
        max_size=40,
    )

    @settings(max_examples=60, deadline=None)
    @given(ops=_ops, n_prbs=st.integers(1, 12), proactive=st.booleans())
    def test_running_total_matches_queue_sum(self, ops, n_prbs, proactive):
        sim = Simulator()
        config = RanConfig(
            base_bler=0.0, n_ul_prbs=n_prbs, proactive_grants=proactive
        )
        ran = RanSimulator(sim, config, RngStreams(0))
        ues = [_ue(ran, ue_id, proactive=proactive) for ue_id in self._UE_IDS]
        sched = GnbScheduler(config, ran.tdd)
        advised = []

        class Advisor:
            def grants_for_slot(self, slot_us):
                grants = list(advised)
                advised.clear()
                return grants

            def suppress_proactive(self, ue_id, slot_us):
                return False

        sched.advisor = Advisor()
        now = 0
        slot = ran.tdd.next_ul_slot_start(0)
        for kind, ue_id, value in ops:
            if kind == "bsr":
                sched.on_bsr(ue_id, slot, value, now, now)
            elif kind == "sr":
                sched.on_sr(ue_id, slot, now)
            elif kind == "advise":
                advised.append(
                    PendingGrant(
                        ue_id=ue_id,
                        kind=TbKind.REQUESTED,
                        size_bits=value,
                        usable_slot_us=slot,
                        issued_us=now,
                    )
                )
            else:
                attached = [
                    ue for k, ue in enumerate(ues) if not value >> k & 1
                ]
                sched.schedule_slot(slot, attached)
                now = slot
                slot = ran.tdd.next_ul_slot_start(slot + 1)
            for owed_id in self._UE_IDS + (9,):
                queue = sched._pending.get(owed_id, ())
                assert sched.pending_grants_for(owed_id) == sum(
                    g.remaining_bits for g in queue
                )
            assert set(sched._owed_bits) == set(sched._pending)

    def test_split_grant_is_owed_until_served(self):
        sim = Simulator()
        config = RanConfig(base_bler=0.0, n_ul_prbs=2, proactive_grants=False)
        ran = RanSimulator(sim, config, RngStreams(0))
        ue = _ue(ran, proactive=False)
        sched = GnbScheduler(config, ran.tdd)
        sched.on_bsr(1, 0, 20_000, 500, 500)
        owed = sched.pending_grants_for(1)
        slot = sched._pending[1][0].usable_slot_us
        (alloc,) = sched.schedule_slot(slot, [ue])
        assert 0 < alloc.bits < owed  # capacity-bound: the grant is split
        assert sched.pending_grants_for(1) == owed - alloc.bits
