"""Idle-slot elision is a pure performance transform (DESIGN.md §3.2).

The optimized slot loop (``RanConfig.elide_idle_slots=True``, the default)
must be observably identical to the per-slot reference loop — from RAN-level
capacity accounting and TB logs all the way up to the byte-identical JSONL
trace of a full session.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.mitigation.aware_ran import AppAwareAdvisor, MediaSchedule
from repro.phy import (
    FixedChannel,
    GaussMarkovChannel,
    PhasedChannel,
    RanConfig,
    RanSimulator,
)
from repro.phy.params import CrossTrafficConfig, CrossTrafficPhase
from repro.run.builder import SessionBuilder, run_session
from repro.run.scenario import CallSpec, ScenarioConfig
from repro.sim import RngStreams, Simulator, ms
from repro.trace import MediaKind, PacketRecord
from repro.trace.ids import IdSpace, new_packet_id, use_id_space
from repro.trace.io import save_trace

from .test_multicall import GOLDEN_CONTENDED, contended_config, trace_hash


def _packet(size=1_100):
    return PacketRecord(
        packet_id=new_packet_id(), flow_id="v", kind=MediaKind.VIDEO,
        size_bytes=size,
    )


def _ran_observables(elide, channel_factory, traffic_times_us, duration_us,
                     config_kwargs=None, setup=None):
    """Run a RAN-only scenario and return everything externally visible.

    A fresh id space makes packet ids comparable across the two runs.
    ``setup(sim, ran)``, if given, runs once the UE is attached.
    """
    with use_id_space(IdSpace()):
        sim = Simulator()
        config = RanConfig(elide_idle_slots=elide, **(config_kwargs or {}))
        ran = RanSimulator(sim, config, RngStreams(1))
        ran.add_ue(1, channel=channel_factory(ran), record_tbs=True)
        delivered = []
        ran.set_uplink_sink(1, lambda p, t: delivered.append(t))
        if setup is not None:
            setup(sim, ran)
        for t_us in traffic_times_us:
            sim.at(t_us, lambda: ran.send_uplink(1, _packet()))
        sim.run_until(duration_us)
    return {
        "delivery_times": delivered,
        "tbs": [
            (tb.slot_us, tb.ue_id, tb.kind, tb.size_bits, tb.used_bits,
             tb.harq_rounds, tuple(tb.packet_ids))
            for tb in ran.sink.trace.transport_blocks
        ],
        "capacity": [
            (w.start_us, w.granted_bits, w.used_bits)
            for w in ran.capacity_series()
        ],
        "mean_granted_kbps": ran.mean_granted_kbps(),
    }


def _assert_equivalent(channel_factory, traffic_times_us, duration_us,
                       config_kwargs=None, setup=None):
    on = _ran_observables(True, channel_factory, traffic_times_us,
                          duration_us, config_kwargs, setup)
    off = _ran_observables(False, channel_factory, traffic_times_us,
                           duration_us, config_kwargs, setup)
    assert on == off


class TestRanEquivalence:
    def test_fully_idle_cell(self):
        _assert_equivalent(lambda ran: FixedChannel(20, 0.0), [], ms(500.0))

    def test_fixed_channel_with_bursts(self):
        times = [ms(5.0) + k * ms(35.0) for k in range(6)]
        _assert_equivalent(
            lambda ran: FixedChannel(20, 0.3), times, ms(400.0)
        )

    def test_gauss_markov_channel_with_bursts(self):
        times = [ms(5.0) + k * ms(35.0) for k in range(6)]
        _assert_equivalent(
            lambda ran: GaussMarkovChannel(ran._rngs.stream("channel")),
            times,
            ms(400.0),
        )

    def test_phased_channel_forces_per_slot_accounting(self):
        # nominal_mcs varies, so idle stretches are accounted slot by slot
        # (not fast-forwarded) — results must still match exactly.
        phases = [(0, 20, 0.0), (ms(100.0), 5, 0.2), (ms(250.0), 15, 0.0)]
        times = [ms(5.0), ms(120.0), ms(260.0)]
        _assert_equivalent(
            lambda ran: PhasedChannel(phases), times, ms(400.0)
        )

    def test_fdd_cell(self):
        times = [ms(3.0) + k * ms(20.0) for k in range(4)]
        _assert_equivalent(
            lambda ran: FixedChannel(20, 0.1), times, ms(200.0),
            config_kwargs={"fdd": True},
        )

    def test_unknown_channel_disables_elision_gracefully(self):
        class BareChannel:
            """No nominal_mcs: the loop must fall back to firing every slot."""

            def sample(self, time_us):
                return FixedChannel(20, 0.0).sample(time_us)

        times = [ms(5.0), ms(40.0)]
        _assert_equivalent(lambda ran: BareChannel(), times, ms(200.0))

    def test_advisor_refresh_pulling_the_next_frame_in_wakes_the_loop(self):
        # The eliding loop sleeps until the advisor's next grant (the
        # 200 ms frame, or the 20 ms audio keep-alive); a refresh that
        # moves the frame to 53 ms must wake it through advisor_changed().
        def setup(sim, ran):
            schedule = MediaSchedule(
                next_frame_us=ms(200.0),
                frame_period_us=ms(33.0),
                frame_size_bytes=3000,
            )
            ran.set_grant_advisor(AppAwareAdvisor(
                ran.config, ran.tdd, 1, schedule,
                suppress_proactive_grants=True,
            ))

            def refresh():
                schedule.next_frame_us = sim.now + ms(3.0)
                ran.advisor_changed()

            sim.at(ms(50.0) + 1, refresh)

        _assert_equivalent(
            lambda ran: FixedChannel(20, 0.0), [], ms(300.0), setup=setup
        )

    def test_late_ue_attach_accounts_past_with_old_ue_set(self):
        def run(elide):
            sim = Simulator()
            ran = RanSimulator(
                sim, RanConfig(elide_idle_slots=elide), RngStreams(1)
            )
            ran.add_ue(1, channel=FixedChannel(20, 0.0), record_tbs=True)
            ran.set_uplink_sink(1, lambda p, t: None)
            sim.at(ms(50.0), lambda: ran.add_ue(
                2, channel=FixedChannel(10, 0.0)
            ))
            sim.run_until(ms(300.0))
            return [
                (w.start_us, w.granted_bits, w.used_bits)
                for w in ran.capacity_series()
            ]

        assert run(True) == run(False)


class TestCapacitySeries:
    def test_repeated_calls_are_stable_and_sorted(self):
        sim = Simulator()
        ran = RanSimulator(sim, RanConfig(), RngStreams(1))
        ran.add_ue(1, channel=FixedChannel(20, 0.0), record_tbs=True)
        ran.set_uplink_sink(1, lambda p, t: None)
        sim.at(ms(5.0), lambda: ran.send_uplink(1, _packet()))
        sim.run_until(ms(950.0))
        first = ran.capacity_series()
        second = ran.capacity_series()
        assert first == second
        starts = [w.start_us for w in first]
        assert starts == sorted(starts)
        # Windows tile the run at the configured granularity.
        assert starts == list(
            range(0, starts[-1] + 1, ran.config.capacity_window_us)
        )

    def test_mean_granted_kbps_matches_hand_computation(self):
        sim = Simulator()
        ran = RanSimulator(sim, RanConfig(), RngStreams(1))
        ran.add_ue(1, channel=FixedChannel(20, 0.0), record_tbs=True)
        ran.set_uplink_sink(1, lambda p, t: None)
        sim.run_until(ms(500.0))
        windows = ran.capacity_series()
        total_bits = sum(w.granted_bits for w in windows)
        span_s = len(windows) * ran.config.capacity_window_us / 1e6
        expected_kbps = total_bits / span_s / 1_000
        assert ran.mean_granted_kbps() == pytest.approx(expected_kbps)
        # And the value itself: every UL slot grants one proactive TB.
        slots = 500_000 // 2_500
        assert total_bits == slots * ran.config.proactive_tb_bits

    def test_dormant_loop_accounts_idle_tail_on_read(self):
        # With elision the loop goes dormant in an idle cell; reading the
        # series must still cover capacity up to "now".
        sim = Simulator()
        ran = RanSimulator(
            sim, RanConfig(elide_idle_slots=True), RngStreams(1)
        )
        ran.add_ue(1, channel=FixedChannel(20, 0.0))
        sim.run_until(ms(450.0))
        windows = ran.capacity_series()
        assert [w.start_us for w in windows] == [0, 100_000, 200_000, 300_000, 400_000]
        assert all(w.granted_bits > 0 for w in windows)


def _config_bytes(tmp_path, config, name):
    result = SessionBuilder(config).run()
    path = tmp_path / f"{name}.jsonl"
    save_trace(result.trace, path)
    return path.read_bytes()


def _trace_bytes(tmp_path, seed, access, elide):
    config = ScenarioConfig(
        seed=seed,
        access=access,
        duration_s=1.0,
        ran=RanConfig(elide_idle_slots=elide),
    )
    return _config_bytes(tmp_path, config, f"{access}-{seed}-{int(elide)}")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("access", ["5g", "emulated"])
def test_trace_identity_optimized_vs_reference(tmp_path, seed, access):
    """Tentpole acceptance: byte-identical JSONL for elide on vs off."""
    optimized = _trace_bytes(tmp_path, seed, access, elide=True)
    reference = _trace_bytes(tmp_path, seed, access, elide=False)
    assert optimized == reference


@pytest.mark.parametrize("seed", sorted(GOLDEN_CONTENDED))
def test_trace_identity_contended_cell(tmp_path, seed):
    """A saturated cell with cross traffic: elide on vs off stay identical."""
    optimized = _config_bytes(
        tmp_path, contended_config(seed, elide_idle_slots=True), f"c{seed}-1"
    )
    reference = _config_bytes(
        tmp_path, contended_config(seed, elide_idle_slots=False), f"c{seed}-0"
    )
    assert optimized == reference


_METADATA = ScenarioConfig(duration_s=1.0, seed=11, aware_ran=True)

#: Sessions with a §5.2 grant advisor installed, and the sha256 of their
#: traces (tests.test_multicall.trace_hash) from the loop that fired every
#: advised slot.  Between them they cover the learned and metadata paths,
#: live analysis, proactive grants left on, HARQ retransmissions, and
#: multi-call cells with and without unadvised calls and cross traffic.
#: ``gauss_markov_loaded`` keeps grants pending across slots on a channel
#: whose every sample draws from its RNG, so skipping a slot in which a
#: not-yet-due grant is pending would move it.
ADVISED_CONFIGS = {
    "learned_live": ScenarioConfig(
        duration_s=2.0, seed=7, live_analysis=True, mask_ran_delay=True,
        aware_ran_learned=True,
    ),
    "learned": ScenarioConfig(duration_s=2.0, seed=7, aware_ran_learned=True),
    "metadata": _METADATA,
    "metadata_proactive": replace(
        _METADATA, aware_ran_suppress_proactive=False
    ),
    "metadata_harq": replace(_METADATA, ran=RanConfig(base_bler=0.2)),
    "multicall_all_advised": ScenarioConfig(
        duration_s=1.0, seed=11, aware_ran=True,
        calls=[CallSpec(call_id=0), CallSpec(call_id=1)],
        record_grants=True,
    ),
    "gauss_markov_loaded": replace(
        _METADATA, channel="gauss_markov",
        ran=RanConfig(base_bler=0.3, n_ul_prbs=20),
    ),
    "multicall": ScenarioConfig(
        duration_s=1.0, seed=11,
        ran=RanConfig(n_ul_prbs=12),
        cross_traffic=CrossTrafficConfig(
            n_ues=2, phases=[CrossTrafficPhase(0, 3_000.0)]
        ),
        calls=[
            CallSpec(call_id=0, aware_ran=True),
            CallSpec(call_id=1, aware_ran_learned=True),
            CallSpec(call_id=2),
        ],
        record_grants=True,
    ),
}

GOLDEN_ADVISED = {
    "learned_live": "085e5adb6e197192aa14a3b31056d01505d040a18715dc239a447062b58776fc",
    "learned": "07b299e52aac9295e857cf59f30f333331db100212a78dd26d00a411e81f3b7e",
    "metadata": "484646ee3edc45c075a8aab9312122501b97d4215540ea2310def946981d52af",
    "metadata_proactive": "6be54a0d209bab38374cf39188247c06f2c5542f3565aeba5e354b33fb61f318",
    "metadata_harq": "3ace77602f96b3e60f790471451bfa672225f6dd6bb2eb776d5f0178ea93d606",
    "multicall_all_advised": "496383f8e36667391098783749698a5f8fec8e5c9eb5143fb8641c41d7f3b7bd",
    "multicall": "fc4ce49ca0cdb0ce48c253141aa01addfc84f423402c208cdfc77ac62787c100",
    "gauss_markov_loaded": "7d6a0a284e7e6fab45a79672fa069754704de58d5837c2f808b6e6cc35c83577",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ADVISED))
@pytest.mark.parametrize("elide", [True, False], ids=["elided", "reference"])
def test_advised_session_matches_golden(name, elide):
    """Advised slots are elided without moving a byte, on either loop."""
    config = ADVISED_CONFIGS[name]
    config = replace(config, ran=replace(config.ran, elide_idle_slots=elide))
    assert trace_hash(run_session(config).trace) == GOLDEN_ADVISED[name]


def test_advised_session_fires_only_busy_slots(monkeypatch):
    """An installed advisor no longer makes every uplink slot busy.

    The 2 s learned-grant session has 800 uplink slots; the loop that
    treated every advised slot as busy fired all of them.
    """
    fired = []
    slot_event = RanSimulator._slot_event

    def counting_slot_event(self):
        fired.append(self.sim.now)
        slot_event(self)

    monkeypatch.setattr(RanSimulator, "_slot_event", counting_slot_event)
    run_session(ADVISED_CONFIGS["learned_live"])
    assert 0 < len(fired) <= 320
