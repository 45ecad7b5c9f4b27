"""Idle-slot elision is a pure performance transform (DESIGN.md §3.2).

The optimized slot loop (``RanConfig.elide_idle_slots=True``, the default)
must be observably identical to the per-slot reference loop — from RAN-level
capacity accounting and TB logs all the way up to the byte-identical JSONL
trace of a full session.
"""

from __future__ import annotations

import pytest

from repro.phy import (
    FixedChannel,
    GaussMarkovChannel,
    PhasedChannel,
    RanConfig,
    RanSimulator,
)
from repro.run.builder import SessionBuilder
from repro.run.scenario import ScenarioConfig
from repro.sim import RngStreams, Simulator, ms, seconds
from repro.trace import MediaKind, PacketRecord
from repro.trace.ids import IdSpace, new_packet_id, use_id_space
from repro.trace.io import save_trace

from .test_multicall import GOLDEN_CONTENDED, contended_config


def _packet(size=1_100):
    return PacketRecord(
        packet_id=new_packet_id(), flow_id="v", kind=MediaKind.VIDEO,
        size_bytes=size,
    )


def _ran_observables(elide, channel_factory, traffic_times_us, duration_us,
                     config_kwargs=None):
    """Run a RAN-only scenario and return everything externally visible.

    A fresh id space makes packet ids comparable across the two runs.
    """
    with use_id_space(IdSpace()):
        sim = Simulator()
        config = RanConfig(elide_idle_slots=elide, **(config_kwargs or {}))
        ran = RanSimulator(sim, config, RngStreams(1))
        ran.add_ue(1, channel=channel_factory(ran), record_tbs=True)
        delivered = []
        ran.set_uplink_sink(1, lambda p, t: delivered.append(t))
        for t_us in traffic_times_us:
            sim.at(t_us, lambda: ran.send_uplink(1, _packet()))
        sim.run_until(duration_us)
    return {
        "delivery_times": delivered,
        "tbs": [
            (tb.slot_us, tb.ue_id, tb.kind, tb.size_bits, tb.used_bits,
             tb.harq_rounds, tuple(tb.packet_ids))
            for tb in ran.tb_log
        ],
        "capacity": [
            (w.start_us, w.granted_bits, w.used_bits)
            for w in ran.capacity_series()
        ],
        "mean_granted_kbps": ran.mean_granted_kbps(),
    }


def _assert_equivalent(channel_factory, traffic_times_us, duration_us,
                       config_kwargs=None):
    on = _ran_observables(True, channel_factory, traffic_times_us,
                          duration_us, config_kwargs)
    off = _ran_observables(False, channel_factory, traffic_times_us,
                           duration_us, config_kwargs)
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
