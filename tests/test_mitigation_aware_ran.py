"""Tests for application-aware grant scheduling (§5.2)."""

import numpy as np
import pytest

from repro.app import ScenarioConfig, run_session
from repro.core import AthenaSession
from repro.mitigation import AppAwareAdvisor, MediaSchedule
from repro.phy import RanConfig, TddFrame
from repro.sim import ms
from repro.trace import CapturePoint


def _advisor(**kwargs):
    config = RanConfig()
    tdd = TddFrame(config.tdd_pattern, config.slot_us)
    schedule = MediaSchedule(
        next_frame_us=ms(5.0), frame_period_us=35_714, frame_size_bytes=4_000
    )
    return AppAwareAdvisor(config, tdd, ue_id=1, schedule=schedule, **kwargs), schedule


class TestAdvisorUnit:
    def test_no_grant_before_frame_ready(self):
        advisor, _ = _advisor()
        assert advisor.grants_for_slot(ms(2.0)) == []

    def test_grant_issued_at_first_slot_after_ready(self):
        advisor, _ = _advisor()
        # Frame at 5 ms + margin 0.5 ms -> first UL slot is 7 ms.
        assert advisor.grants_for_slot(ms(4.5)) == []
        grants = advisor.grants_for_slot(ms(7.0))
        assert len(grants) == 1
        assert grants[0].usable_slot_us == ms(7.0)

    def test_grant_sized_with_headroom(self):
        advisor, schedule = _advisor(headroom=1.25)
        grants = advisor.grants_for_slot(ms(7.0))
        assert grants[0].size_bits == int(4_000 * 8 * 1.25)

    def test_schedule_advances_one_grant_per_frame(self):
        advisor, schedule = _advisor()
        advisor.grants_for_slot(ms(7.0))
        # Immediately after, the next frame is ~35.7 ms later: no grant yet.
        assert advisor.grants_for_slot(ms(9.5)) == []

    def test_suppress_proactive_only_for_managed_ue(self):
        advisor, _ = _advisor(suppress_proactive_grants=True)
        assert advisor.suppress_proactive(1, 0)
        assert not advisor.suppress_proactive(2, 0)
        advisor2, _ = _advisor(suppress_proactive_grants=False)
        assert not advisor2.suppress_proactive(1, 0)

    def test_audio_grants_when_proactive_suppressed(self):
        advisor, _ = _advisor(suppress_proactive_grants=True)
        grants = advisor.grants_for_slot(ms(2.0))
        assert len(grants) == 1  # audio keep-alive


class TestMediaSchedule:
    def test_advance_to(self):
        schedule = MediaSchedule(next_frame_us=0, frame_period_us=10_000,
                                 frame_size_bytes=100)
        schedule.advance_to(35_000)
        assert schedule.next_frame_us == 40_000

    def test_advance_requires_positive_period(self):
        schedule = MediaSchedule(next_frame_us=0, frame_period_us=0,
                                 frame_size_bytes=100)
        with pytest.raises(ValueError):
            schedule.advance_to(10)


class TestEndToEnd:
    def _frame_delays(self, **scenario_kwargs):
        config = ScenarioConfig(duration_s=10.0, seed=6,
                                fixed_bitrate_kbps=900.0, record_tbs=False,
                                ran=RanConfig(base_bler=0.0, retx_bler=0.0),
                                **scenario_kwargs)
        result = run_session(config)
        index = result.trace.packet_index()
        delays = []
        for frame in result.trace.frames:
            if frame.stream != "video":
                continue
            times = []
            sends = []
            for pid in frame.packet_ids:
                p = index.get(pid)
                if p is None:
                    continue
                c = p.capture_at(CapturePoint.CORE)
                s = p.capture_at(CapturePoint.SENDER)
                if c is not None and s is not None:
                    times.append(c)
                    sends.append(s)
            if times:
                delays.append((max(times) - min(sends)) / 1_000.0)
        return delays, result

    def test_aware_ran_halves_frame_delay(self):
        base, _ = self._frame_delays()
        aware, result = self._frame_delays(aware_ran=True)
        # "the potential to cut the delay inflation experienced by frames
        # in half"
        assert np.median(aware) <= 0.6 * np.median(base)
        assert result.advisor is not None
        assert result.advisor.grants_issued > 100

    def test_aware_ran_removes_spread(self):
        config = ScenarioConfig(duration_s=10.0, seed=6, aware_ran=True,
                                fixed_bitrate_kbps=900.0, record_tbs=False,
                                ran=RanConfig(base_bler=0.0, retx_bler=0.0))
        result = run_session(config)
        athena = AthenaSession(result.trace)
        spreads = athena.delay_spread_cdf(CapturePoint.CORE, stream="video")
        assert np.median(spreads) == 0.0

    def test_learned_variant_matches_metadata(self):
        meta, _ = self._frame_delays(aware_ran=True)
        learned, result = self._frame_delays(
            aware_ran_learned=True, aware_ran_suppress_proactive=False
        )
        assert result.predictor is not None
        assert result.predictor.bursts_observed > 50
        assert np.median(learned) == pytest.approx(np.median(meta), rel=0.3)


class TestAwareRanUnderLoad:
    def test_metadata_scheduler_survives_cross_traffic(self):
        """Advisor grants compete with cross traffic without starving."""
        from repro.experiments.common import cross_traffic_scenario

        config = cross_traffic_scenario(
            duration_s=10.0, seed=6, phase_rates_mbps=(10.0,),
            fixed_bitrate_kbps=900.0, record_tbs=False, aware_ran=True,
            ran=RanConfig(base_bler=0.0, retx_bler=0.0),
        )
        result = run_session(config)
        assert result.advisor is not None
        assert result.advisor.grants_issued > 100
        delivered = [
            p for p in result.trace.packets
            if p.capture_at(CapturePoint.CORE) is not None
        ]
        assert len(delivered) > 0.95 * len(result.trace.packets)
        athena = AthenaSession(result.trace)
        spreads = athena.delay_spread_cdf(CapturePoint.CORE, stream="video")
        assert np.median(spreads) <= 2.5  # spread still mostly collapsed
