"""Tests for session assembly, the sender/receiver loop, and determinism."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.app import ScenarioConfig, run_session
from repro.media import FpsMode
from repro.net.topology import PathConfig
from repro.phy.params import CrossTrafficConfig, CrossTrafficPhase, RanConfig
from repro.run.batch import RunSpec, run_batch
from repro.run.cache import scenario_key
from repro.run.scenario import CallSpec
from repro.trace import CapturePoint, MediaKind


class TestConfigValidation:
    def test_bad_access_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(access="wifi")

    def test_both_aware_modes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(aware_ran=True, aware_ran_learned=True)

    @pytest.mark.parametrize("duration_s", [0.0, -1.0])
    def test_nonpositive_duration_rejected(self, duration_s):
        with pytest.raises(ValueError, match="duration_s"):
            ScenarioConfig(duration_s=duration_s)

    def test_cell_without_uplink_prbs_rejected(self):
        with pytest.raises(ValueError, match="n_ul_prbs"):
            RanConfig(n_ul_prbs=0)

    def test_negative_jitter_buffer_beta_rejected(self):
        with pytest.raises(ValueError, match="jitter_buffer_beta"):
            ScenarioConfig(jitter_buffer_beta=-1.0)

    def test_negative_per_call_jitter_buffer_beta_rejected(self):
        calls = [CallSpec(call_id=0), CallSpec(call_id=1, jitter_buffer_beta=-1.0)]
        with pytest.raises(ValueError, match="call 1: jitter_buffer_beta"):
            ScenarioConfig(calls=calls)

    @pytest.mark.parametrize("offsets", [
        {"snder": 6_000},
        {1: 6_000},
        {CapturePoint.SENDER: 6_000},
        {"sender": 6_000.0},
        {"sender": True},
        {"sender": "6000"},
    ], ids=["typo-key", "int-key", "enum-key", "float", "bool", "str"])
    def test_bad_clock_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="clock_offsets_us"):
            PathConfig(clock_offsets_us=offsets)

    def test_clock_offsets_for_every_host_accepted(self):
        offsets = {point.value: -1_500 for point in CapturePoint}
        assert PathConfig(clock_offsets_us=offsets).clock_offsets_us == offsets


def _collect_config(result):
    return result.config


class TestFrozenConfig:
    """A config cannot change after the scenario cache fingerprinted it."""

    def test_attribute_writes_raise(self):
        config = ScenarioConfig(calls=[CallSpec(call_id=0)])
        with pytest.raises(FrozenInstanceError):
            config.seed = 8
        assert config.seed == ScenarioConfig().seed

    def test_writes_in_a_seed_loop_raise(self):
        config = ScenarioConfig()
        for seed in (1, 2):
            with pytest.raises(FrozenInstanceError):
                config.seed = seed
        assert config.seed == ScenarioConfig().seed

    def test_nested_field_writes_raise(self):
        config = ScenarioConfig(calls=[CallSpec(call_id=0)])
        with pytest.raises(FrozenInstanceError):
            config.calls[0].start_media = False
        with pytest.raises(FrozenInstanceError):
            config.ran.base_bler = 0.0
        assert config.calls[0].start_media == CallSpec(call_id=0).start_media

    def test_sequence_fields_cannot_grow(self):
        config = ScenarioConfig(
            calls=[CallSpec(call_id=0)],
            cross_traffic=CrossTrafficConfig(
                phases=[CrossTrafficPhase(0, 1_000.0)]
            ),
        )
        with pytest.raises(AttributeError):
            config.calls.append(CallSpec(call_id=1))
        with pytest.raises(AttributeError):
            config.cross_traffic.phases.append(CrossTrafficPhase(10, 0.0))

    def test_list_fields_stored_as_tuples_with_the_same_key(self):
        listed = ScenarioConfig(
            calls=[CallSpec(call_id=0), CallSpec(call_id=1)],
            channel_phases=[(0, 20, 0.0)],
            emulated_capacity_series=[(0, 5_000.0)],
        )
        tupled = ScenarioConfig(
            calls=(CallSpec(call_id=0), CallSpec(call_id=1)),
            channel_phases=((0, 20, 0.0),),
            emulated_capacity_series=((0, 5_000.0),),
        )
        assert isinstance(listed.calls, tuple)
        assert isinstance(listed.channel_phases, tuple)
        assert isinstance(listed.emulated_capacity_series, tuple)
        assert listed == tupled
        assert scenario_key(listed) == scenario_key(tupled)

    def test_replace_matches_direct_construction(self):
        config = ScenarioConfig(seed=3)
        variant = replace(config, ran=replace(config.ran, base_bler=0.0))
        direct = ScenarioConfig(seed=3, ran=RanConfig(base_bler=0.0))
        assert scenario_key(variant) == scenario_key(direct)
        assert config.ran.base_bler == RanConfig().base_bler

    def test_frozen_config_survives_the_batch_pool(self):
        configs = [
            ScenarioConfig(
                duration_s=0.3,
                seed=seed,
                calls=[CallSpec(call_id=0), CallSpec(call_id=1)],
                cross_traffic=CrossTrafficConfig(
                    phases=[CrossTrafficPhase(0, 1_000.0)]
                ),
                path=PathConfig(clock_offsets_us={"sender": 120}),
            )
            for seed in (1, 2)
        ]
        specs = [RunSpec(f"seed{c.seed}", c) for c in configs]
        runs = run_batch(specs, collect=_collect_config, jobs=2)
        # Pickled to a worker and back: equal, but not the same objects.
        assert [run.value for run in runs] == configs
        assert all(run.value is not c for run, c in zip(runs, configs))
        assert [scenario_key(run.value) for run in runs] == [
            scenario_key(c) for c in configs
        ]


class TestBasicSession:
    @pytest.fixture(scope="class")
    def result(self):
        return run_session(ScenarioConfig(duration_s=8.0, seed=4))

    def test_media_flows_end_to_end(self, result):
        assert result.receiver.packets_received > 200
        received = [
            p for p in result.trace.packets
            if p.capture_at(CapturePoint.RECEIVER) is not None
        ]
        assert len(received) > 200

    def test_both_streams_present(self, result):
        kinds = {p.kind for p in result.trace.packets}
        assert MediaKind.VIDEO in kinds and MediaKind.AUDIO in kinds

    def test_frames_rendered(self, result):
        rendered = [f for f in result.trace.frames
                    if f.stream == "video" and f.rendered_us is not None]
        assert len(rendered) > 100

    def test_feedback_loop_sets_rates(self, result):
        assert result.sender.rate_series  # CC feedback reached the encoder

    def test_audio_cadence(self, result):
        audio = [f for f in result.trace.frames if f.stream == "audio"]
        captures = sorted(f.capture_us for f in audio)
        gaps = {b - a for a, b in zip(captures, captures[1:])}
        assert gaps == {20_000}

    def test_video_cadence_full_mode(self, result):
        video = sorted(
            f.capture_us for f in result.trace.frames if f.stream == "video"
        )
        gaps = [b - a for a, b in zip(video, video[1:])]
        assert np.median(gaps) == pytest.approx(35_714, abs=2)

    def test_loss_ratio_negligible_on_clean_run(self, result):
        assert result.receiver.loss_ratio() < 0.01


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = run_session(ScenarioConfig(duration_s=4.0, seed=13))
        b = run_session(ScenarioConfig(duration_s=4.0, seed=13))
        owds_a = [p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE)
                  for p in a.trace.packets]
        owds_b = [p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE)
                  for p in b.trace.packets]
        assert owds_a == owds_b

    def test_different_seed_differs(self):
        a = run_session(ScenarioConfig(duration_s=4.0, seed=13))
        b = run_session(ScenarioConfig(duration_s=4.0, seed=14))
        sizes_a = [f.size_bytes for f in a.trace.frames]
        sizes_b = [f.size_bytes for f in b.trace.frames]
        assert sizes_a != sizes_b


class TestEmulatedAccess:
    def test_emulated_has_no_ran(self):
        result = run_session(
            ScenarioConfig(duration_s=4.0, seed=4, access="emulated",
                           emulated_rate_kbps=20_000, record_tbs=False)
        )
        assert result.ran is None
        assert result.trace.transport_blocks == []
        assert result.receiver.packets_received > 100

    def test_emulated_latency_floor(self):
        result = run_session(
            ScenarioConfig(duration_s=4.0, seed=4, access="emulated",
                           emulated_rate_kbps=20_000, record_tbs=False)
        )
        owds = [
            p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE)
            for p in result.trace.packets
            if p.capture_at(CapturePoint.CORE) is not None
        ]
        assert min(owds) >= 15_000  # the tc-style fixed 15 ms

    def test_emulated_default_rate_from_ran_nominal(self):
        result = run_session(
            ScenarioConfig(duration_s=2.0, seed=4, access="emulated",
                           record_tbs=False)
        )
        assert result.receiver.packets_received > 0


class TestFixedModes:
    def test_fixed_mode_pins_frame_rate(self):
        result = run_session(
            ScenarioConfig(duration_s=4.0, seed=4, fixed_mode=FpsMode.LOW,
                           record_tbs=False)
        )
        video = [f for f in result.trace.frames if f.stream == "video"]
        fps = len(video) / 4.0
        assert fps == pytest.approx(14.0, rel=0.1)

    def test_fixed_bitrate_pins_encoder(self):
        result = run_session(
            ScenarioConfig(duration_s=4.0, seed=4,
                           fixed_bitrate_kbps=400.0, record_tbs=False)
        )
        assert result.sender.encoder.target_bitrate_kbps == 400.0
        assert result.sender.rate_series == []


class TestChannelPhases:
    def test_phased_fade_raises_delay(self):
        from repro.sim import seconds

        config = ScenarioConfig(
            duration_s=9.0, seed=4, record_tbs=False,
            channel_phases=[(0, 20, 0.0), (seconds(3.0), 0, 0.6),
                            (seconds(6.0), 20, 0.0)],
        )
        result = run_session(config)
        owds_by_phase = {0: [], 1: [], 2: []}
        for p in result.trace.packets:
            s = p.capture_at(CapturePoint.SENDER)
            d = p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE)
            if s is None or d is None:
                continue
            owds_by_phase[min(2, int(s // seconds(3.0)))].append(d)
        assert np.median(owds_by_phase[1]) > 2 * np.median(owds_by_phase[0])


class TestGaussMarkovChannel:
    def test_session_runs_with_fading_channel(self):
        result = run_session(
            ScenarioConfig(duration_s=6.0, seed=4, channel="gauss_markov",
                           record_tbs=False)
        )
        assert result.receiver.packets_received > 100
        # Fading produces some HARQ activity.
        harq = [p for p in result.trace.packets
                if p.ran is not None and p.ran.harq_rounds > 0]
        assert harq
