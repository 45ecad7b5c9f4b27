"""Tests for QoE metric computation (Fig 7's metrics).

The metrics read a record list (the in-memory trace) or a columnar
:class:`~repro.trace.columnar.ChannelView` (a cache hit, a payload
transport) through one implementation; every metric test runs on both, and
the two must agree exactly, float bits and NaN included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media import (
    cdf,
    frame_level_jitter_ms,
    frame_rate_series,
    percentile,
    qoe_summary,
    ssim_from_bpp,
    ssim_values,
    windowed_receive_bitrate_kbps,
)
from repro.run import CallSpec, ScenarioCache, ScenarioConfig, collect_qoe, run_session
from repro.trace import CapturePoint, FrameRecord, MediaKind, PacketRecord, Trace
from repro.trace.columnar import encode_payload, trace_from_payload


def _packet(pid, size, receiver_us):
    p = PacketRecord(packet_id=pid, flow_id="v", kind=MediaKind.VIDEO,
                     size_bytes=size)
    p.set_capture(CapturePoint.RECEIVER, receiver_us)
    return p


def _frame(fid, capture_us, rendered_us, ssim=0.85, stream="video"):
    return FrameRecord(frame_id=fid, stream=stream, capture_us=capture_us,
                       encode_done_us=capture_us, size_bytes=1_000,
                       rendered_us=rendered_us, ssim=ssim)


def _columnar(packets=(), frames=()):
    return trace_from_payload(
        encode_payload(Trace(packets=list(packets), frames=list(frames)))
    )


def _records(packets=(), frames=()):
    return Trace(packets=list(packets), frames=list(frames))


class _MetricTests:
    """Metric tests build their inputs with ``as_trace``: record lists here,
    columnar views in the ``...Columnar`` subclasses below."""

    as_trace = staticmethod(_records)


def _identical(a, b):
    """Exact equality down to the float bits; NaN equals NaN."""
    if dataclasses.is_dataclass(a):
        a, b = dataclasses.asdict(a), dataclasses.asdict(b)
    return repr(a) == repr(b)


class TestSsimModel:
    def test_monotone_in_bpp(self):
        values = [ssim_from_bpp(b) for b in np.linspace(0.01, 0.5, 20)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_saturates_below_one(self):
        assert ssim_from_bpp(10.0) < 1.0

    def test_floor(self):
        assert ssim_from_bpp(0.0) >= 0.40

    def test_operating_range_matches_fig7d(self):
        # 300-1200 kbps at 360p, 28 fps -> SSIM roughly 0.80-0.89.
        for kbps in (300, 600, 1_200):
            bpp = kbps * 1_000 / 28 / (640 * 360)
            assert 0.78 <= ssim_from_bpp(bpp) <= 0.90

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ssim_from_bpp(-0.1)

    @given(st.floats(min_value=0, max_value=10, allow_nan=False))
    def test_always_in_unit_range(self, bpp):
        assert 0.0 < ssim_from_bpp(bpp) < 1.0


class TestBitrateWindows(_MetricTests):
    def test_constant_stream(self):
        packets = [
            _packet(i, 1_250, i * 100_000) for i in range(30)
        ]  # 1250 B every 100 ms = 100 kbps
        series = windowed_receive_bitrate_kbps(self.as_trace(packets).packets)
        assert np.median(series) == pytest.approx(100.0, rel=0.1)

    def test_empty(self):
        assert windowed_receive_bitrate_kbps(self.as_trace().packets) == []

    def test_non_media_ignored(self):
        p = PacketRecord(packet_id=1, flow_id="x", kind=MediaKind.PROBE,
                         size_bytes=64)
        p.set_capture(CapturePoint.RECEIVER, 0)
        assert windowed_receive_bitrate_kbps(self.as_trace([p]).packets) == []


class TestFrameJitter(_MetricTests):
    def test_smooth_stream_zero_jitter(self):
        frames = [_frame(i, i * 35_714, i * 35_714 + 50_000) for i in range(20)]
        jitter = frame_level_jitter_ms(self.as_trace(frames=frames).frames)
        assert max(jitter) == pytest.approx(0.0, abs=0.01)

    def test_jittery_stream_measured(self):
        frames = [
            _frame(i, i * 35_714, i * 35_714 + 50_000 + (i % 2) * 10_000)
            for i in range(20)
        ]
        jitter = frame_level_jitter_ms(self.as_trace(frames=frames).frames)
        assert np.median(jitter) == pytest.approx(10.0, abs=0.5)

    def test_unrendered_frames_skipped(self):
        frames = [_frame(1, 0, None), _frame(2, 35_714, 90_000)]
        assert frame_level_jitter_ms(self.as_trace(frames=frames).frames) == []

    def test_capture_ties_keep_row_order(self):
        # Two frames captured at once: the stable sort keeps row order, so
        # the rendered deltas (and the jitter) follow emission order.
        frames = [_frame(1, 0, 10_000), _frame(2, 0, 40_000), _frame(3, 0, 20_000)]
        jitter = frame_level_jitter_ms(self.as_trace(frames=frames).frames)
        assert jitter == [30.0, 20.0]


class TestFrameRate(_MetricTests):
    def test_counts_rendered_per_second(self):
        frames = [_frame(i, i * 35_714, i * 35_714 + 50_000) for i in range(56)]
        series = frame_rate_series(self.as_trace(frames=frames).frames)
        assert series[0] == pytest.approx(28.0, rel=0.1)

    def test_audio_not_counted(self):
        frames = [_frame(i, i * 20_000, i * 20_000 + 10_000, stream="audio")
                  for i in range(50)]
        assert frame_rate_series(self.as_trace(frames=frames).frames) == []


class TestSsimValues(_MetricTests):
    def test_rendered_video_frames_only(self):
        frames = [
            _frame(1, 0, 50_000, ssim=0.81),
            _frame(2, 1, None, ssim=0.82),  # never rendered
            _frame(3, 2, 50_002, ssim=None),  # no quality sample
            _frame(4, 3, 50_003, ssim=0.84, stream="audio"),
            _frame(5, 4, 50_004, ssim=0.85),
        ]
        assert ssim_values(self.as_trace(frames=frames).frames) == [0.81, 0.85]


class TestQoeSummary(_MetricTests):
    def test_bundles_all_metrics(self):
        packets = [_packet(i, 1_250, i * 10_000) for i in range(200)]
        frames = [_frame(i, i * 35_714, i * 35_714 + 50_000) for i in range(56)]
        frames[5].stalled = True
        trace = self.as_trace(packets, frames)
        summary = qoe_summary(trace.packets, trace.frames)
        assert summary.stall_count == 1
        assert summary.mean_frame_delay_ms == pytest.approx(50.0, abs=0.1)
        medians = summary.medians()
        assert set(medians) == {"bitrate_kbps", "jitter_ms", "fps", "ssim"}

    def test_stalls_and_delays_count_video_only(self):
        frames = [
            _frame(1, 0, 50_000),
            _frame(2, 0, 90_000, stream="audio"),
            _frame(3, 35_714, None),
        ]
        for frame in frames:
            frame.stalled = True
        trace = self.as_trace(frames=frames)
        summary = qoe_summary(trace.packets, trace.frames)
        assert summary.stall_count == 2
        assert summary.mean_frame_delay_ms == 50.0

    def test_empty_inputs(self):
        trace = self.as_trace()
        summary = qoe_summary(trace.packets, trace.frames)
        assert summary.stall_count == 0
        assert np.isnan(summary.mean_frame_delay_ms)


# The same metric tests, fed columnar views of the same records.
class TestBitrateWindowsColumnar(TestBitrateWindows):
    as_trace = staticmethod(_columnar)


class TestFrameJitterColumnar(TestFrameJitter):
    as_trace = staticmethod(_columnar)


class TestFrameRateColumnar(TestFrameRate):
    as_trace = staticmethod(_columnar)


class TestSsimValuesColumnar(TestSsimValues):
    as_trace = staticmethod(_columnar)


class TestQoeSummaryColumnar(TestQoeSummary):
    as_trace = staticmethod(_columnar)


class TestHelpers:
    def test_cdf(self):
        xs, ps = cdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_empty(self):
        xs, ps = cdf([])
        assert len(xs) == 0 and len(ps) == 0

    def test_percentile(self):
        assert percentile(list(range(101)), 95) == pytest.approx(95.0)
        assert np.isnan(percentile([], 50))


# ---------------------------------------------------------------------------
# Record lists and columnar views give bit-identical QoE
# ---------------------------------------------------------------------------
# Few distinct instants, so captures and arrivals tie often.
_instants = st.integers(min_value=0, max_value=40).map(lambda k: k * 33_333)


@st.composite
def _packets(draw):
    packets = []
    for pid in range(draw(st.integers(min_value=0, max_value=30))):
        packet = PacketRecord(
            packet_id=pid,
            flow_id=draw(st.sampled_from(["video", "audio", "probe"])),
            kind=draw(st.sampled_from(list(MediaKind))),
            size_bytes=draw(st.integers(min_value=0, max_value=1_500)),
        )
        # Any subset of the taps in any order; RECEIVER is often missing.
        for tap in draw(st.lists(st.sampled_from(list(CapturePoint)), unique=True)):
            packet.set_capture(tap, draw(_instants))
        packets.append(packet)
    return packets


@st.composite
def _frames(draw):
    return [
        FrameRecord(
            frame_id=fid,
            stream=draw(st.sampled_from(["video", "audio"])),
            capture_us=draw(_instants),
            encode_done_us=0,
            size_bytes=1_000,
            ssim=draw(st.none() | st.floats(min_value=0.4, max_value=0.99)),
            rendered_us=draw(st.none() | _instants),
            stalled=draw(st.booleans()),
        )
        for fid in range(draw(st.integers(min_value=0, max_value=30)))
    ]


@settings(max_examples=150, deadline=None)
@given(packets=_packets(), frames=_frames())
def test_columnar_qoe_identical_to_records(packets, frames):
    view = _columnar(packets, frames)
    assert _identical(
        qoe_summary(view.packets, view.frames), qoe_summary(packets, frames)
    )
    for metric in (frame_level_jitter_ms, frame_rate_series, ssim_values):
        assert _identical(metric(view.frames), metric(frames)), metric.__name__
    for tap in CapturePoint:
        assert _identical(
            windowed_receive_bitrate_kbps(view.packets, point=tap),
            windowed_receive_bitrate_kbps(packets, point=tap),
        ), tap
    assert view.stores["packet"]._cache == {}
    assert view.stores["frame"]._cache == {}


class TestCacheHitQoe:
    """A cache hit's QoE comes from its columns, equal to a fresh run's."""

    @pytest.mark.parametrize("calls", [None, 2], ids=["single", "cell2"])
    @pytest.mark.parametrize("access", ["5g", "emulated"])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_hit_equals_fresh_run(self, tmp_path, seed, access, calls):
        config = ScenarioConfig(
            duration_s=0.6, seed=seed, access=access, record_tbs=False,
            calls=None if calls is None else [CallSpec(k) for k in range(calls)],
        )
        fresh = run_session(config)
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put_result(config, fresh)
        hit = ScenarioCache(cache_dir=tmp_path / "c").get_result(config)
        assert hit is not None
        assert _identical(hit.qoe(), fresh.qoe())

    def test_collect_qoe_on_a_hit_builds_no_rows(self, tmp_path):
        config = ScenarioConfig(duration_s=0.6, seed=5, record_tbs=False)
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put_result(config, run_session(config))
        hit = ScenarioCache(cache_dir=tmp_path / "c").get_result(config)
        summary = collect_qoe(hit)
        assert summary.frame_rate_fps and summary.receive_bitrate_kbps
        assert len(hit.trace.packets) and len(hit.trace.frames)
        assert hit.trace.stores["packet"]._cache == {}
        assert hit.trace.stores["frame"]._cache == {}
