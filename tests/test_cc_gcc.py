"""Tests for Google Congestion Control: trendline, detector, AIMD."""

import pytest

from repro.cc import (
    AimdRateController,
    BandwidthSignal,
    GccConfig,
    GccEstimator,
    LossBasedController,
    OveruseDetector,
    PacketArrival,
    RateControlState,
    TrendlineFilter,
)


def _arrivals(deltas_ms, gap_ms=20.0, size=1_200):
    """Build an arrival stream where group i is deltas[i] ms later than
    a perfectly paced arrival."""
    arrivals = []
    acc = 0.0
    for i, delta in enumerate(deltas_ms):
        acc += delta
        send = int(i * gap_ms * 1_000)
        arrive = int(send + 30_000 + acc * 1_000)
        arrivals.append(PacketArrival(packet_id=i, send_us=send,
                                      arrival_us=arrive, size_bytes=size))
    return arrivals


class TestTrendline:
    def test_flat_delay_zero_slope(self):
        filt = TrendlineFilter(window=10, alpha=0.9)
        slope = None
        for i in range(30):
            slope = filt.update(0.0, i * 20_000)
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_growing_delay_positive_slope(self):
        filt = TrendlineFilter(window=10, alpha=0.9)
        slope = None
        for i in range(40):
            slope = filt.update(1.0, i * 20_000)  # +1 ms per group
        assert slope is not None and slope > 0.02

    def test_draining_queue_negative_slope(self):
        filt = TrendlineFilter(window=10, alpha=0.9)
        slope = None
        for i in range(40):
            slope = filt.update(-1.0, i * 20_000)
        assert slope is not None and slope < -0.02

    def test_returns_none_until_window_full(self):
        filt = TrendlineFilter(window=5, alpha=0.9)
        results = [filt.update(0.1, i * 20_000) for i in range(5)]
        assert results[:4] == [None] * 4
        assert results[4] is not None

    def test_num_deltas_counts_all_updates(self):
        filt = TrendlineFilter(window=5, alpha=0.9)
        for i in range(80):
            filt.update(0.0, i * 20_000)
        assert filt.num_deltas == 80
        assert filt.num_samples == 5

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            TrendlineFilter(window=1, alpha=0.9)


class TestOveruseDetector:
    def test_sustained_positive_trend_fires_overuse(self):
        config = GccConfig()
        det = OveruseDetector(config)
        signal = None
        for i in range(60):
            signal, _ = det.detect(trend=0.2, num_samples=60,
                                   arrival_us=i * 20_000)
        assert signal == BandwidthSignal.OVERUSE

    def test_short_blip_does_not_fire(self):
        config = GccConfig()
        det = OveruseDetector(config)
        det.detect(0.2, 60, 0)
        signal, _ = det.detect(0.0, 60, 5_000)
        assert signal != BandwidthSignal.OVERUSE

    def test_negative_trend_fires_underuse(self):
        config = GccConfig()
        det = OveruseDetector(config)
        signal, _ = det.detect(trend=-0.5, num_samples=60, arrival_us=0)
        assert signal == BandwidthSignal.UNDERUSE

    def test_threshold_adapts_down_in_quiet_conditions(self):
        config = GccConfig()
        det = OveruseDetector(config)
        start = det.threshold
        for i in range(200):
            det.detect(trend=0.001, num_samples=60, arrival_us=i * 20_000)
        assert det.threshold < start
        assert det.threshold >= config.min_threshold

    def test_threshold_clamped(self):
        config = GccConfig()
        det = OveruseDetector(config)
        for i in range(2_000):
            det.detect(trend=0.001, num_samples=60, arrival_us=i * 20_000)
        assert det.threshold == config.min_threshold


class TestAimd:
    def test_overuse_decreases_rate(self):
        config = GccConfig(initial_rate_kbps=1_000)
        aimd = AimdRateController(config)
        rate = aimd.update(BandwidthSignal.OVERUSE, incoming_rate_kbps=800,
                           now_us=0)
        assert rate == pytest.approx(0.85 * 800)
        assert aimd.state == RateControlState.DECREASE

    def test_underuse_holds(self):
        aimd = AimdRateController(GccConfig(initial_rate_kbps=500))
        rate = aimd.update(BandwidthSignal.UNDERUSE, 500, 0)
        assert aimd.state == RateControlState.HOLD
        assert rate == pytest.approx(500, rel=0.01)

    def test_normal_after_decrease_goes_hold_then_increase(self):
        aimd = AimdRateController(GccConfig())
        aimd.update(BandwidthSignal.OVERUSE, 500, 0)
        aimd.update(BandwidthSignal.NORMAL, 500, 100_000)
        assert aimd.state == RateControlState.HOLD
        aimd.update(BandwidthSignal.NORMAL, 500, 200_000)
        assert aimd.state == RateControlState.INCREASE

    def test_increase_grows_rate_but_bounded_by_incoming(self):
        aimd = AimdRateController(GccConfig(initial_rate_kbps=500))
        aimd.update(BandwidthSignal.NORMAL, 600, 0)
        rate = None
        for t in range(1, 20):
            rate = aimd.update(BandwidthSignal.NORMAL, 600, t * 1_000_000)
        assert rate <= 1.5 * 600 + 10
        assert rate > 500

    def test_rate_clamped_to_config_bounds(self):
        config = GccConfig(initial_rate_kbps=100, min_rate_kbps=50,
                           max_rate_kbps=200)
        aimd = AimdRateController(config)
        rate = aimd.update(BandwidthSignal.OVERUSE, 10, 0)
        assert rate == 50


class TestEstimatorEndToEnd:
    def test_steady_network_no_overuse(self):
        est = GccEstimator()
        for arrival in _arrivals([0.0] * 400):
            est.on_packet(arrival)
        assert est.history.overuse_count() == 0

    def test_congestion_ramp_detected_and_rate_reduced(self):
        est = GccEstimator()
        initial = est.estimated_rate_kbps()
        # Queue grows 2 ms per 20 ms group: strong sustained ramp.
        for arrival in _arrivals([0.0] * 50 + [2.0] * 200):
            est.on_packet(arrival)
        assert est.history.overuse_count() > 0
        assert est.estimated_rate_kbps() < initial

    def test_history_samples_have_thresholds(self):
        est = GccEstimator()
        for arrival in _arrivals([0.0] * 100):
            est.on_packet(arrival)
        assert est.history.samples
        sample = est.history.samples[-1]
        assert sample.threshold > 0
        assert sample.state in RateControlState

    def test_packets_in_same_burst_form_one_group(self):
        est = GccEstimator(GccConfig(burst_time_us=5_000))
        # 3 packets per 5 ms burst, bursts every 30 ms.
        for i in range(60):
            base = i * 30_000
            for j in range(3):
                est.on_packet(PacketArrival(
                    packet_id=i * 3 + j, send_us=base + j * 100,
                    arrival_us=base + 25_000 + j * 100, size_bytes=1_200))
        # Roughly one trendline sample per burst after the window fills.
        assert len(est.history.samples) <= 60

    def test_incoming_rate_measured(self):
        est = GccEstimator()
        for arrival in _arrivals([0.0] * 100, gap_ms=10.0, size=1_250):
            est.on_packet(arrival)
        # 1250 B / 10 ms = 1 Mbps.
        rate = est.incoming_rate_kbps(now_us=100 * 10_000)
        assert rate == pytest.approx(1_000, rel=0.15)


class TestLossBased:
    def test_high_loss_decreases(self):
        ctl = LossBasedController(initial_rate_kbps=1_000)
        rate = ctl.on_loss_report(0.2)
        assert rate == pytest.approx(1_000 * 0.9)

    def test_low_loss_increases(self):
        ctl = LossBasedController(initial_rate_kbps=1_000)
        assert ctl.on_loss_report(0.0) == pytest.approx(1_050)

    def test_mid_loss_holds(self):
        ctl = LossBasedController(initial_rate_kbps=1_000)
        assert ctl.on_loss_report(0.05) == 1_000

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            LossBasedController().on_loss_report(1.5)


class TestTrendlineProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(
        deltas=st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=20,
            max_size=60,
        )
    )
    def test_slope_matches_least_squares(self, deltas):
        """The incremental trendline equals numpy's polyfit on its window."""
        import numpy as np

        window = 20
        filt = TrendlineFilter(window=window, alpha=0.9)
        acc = 0.0
        smooth = 0.0
        xs, ys = [], []
        slope = None
        for i, delta in enumerate(deltas):
            arrival = i * 20_000
            slope = filt.update(delta, arrival)
            acc += delta
            smooth = 0.9 * smooth + 0.1 * acc
            xs.append(arrival / 1_000.0)
            ys.append(smooth)
        expected = np.polyfit(xs[-window:], ys[-window:], 1)[0]
        if abs(expected) < 1e6:  # polyfit can be ill-conditioned; ours is 0-safe
            assert slope == pytest.approx(expected, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
            min_size=20,
            max_size=20,
        )
    )
    def test_slope_is_bit_identical_to_per_point_formula(self, points):
        """The list-based slope equals the generator formula exactly."""
        n = len(points)
        mean_x = sum(p[0] for p in points) / n
        mean_y = sum(p[1] for p in points) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in points)
        den = sum((x - mean_x) ** 2 for x, _ in points)
        expected = 0.0 if den == 0 else num / den

        filt = TrendlineFilter(window=20, alpha=0.9)
        filt._points.extend(points)
        assert filt._slope() == expected

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        deltas=st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=25,
            max_size=40,
        ),
    )
    def test_slope_scales_linearly_with_input(self, scale, deltas):
        a = TrendlineFilter(window=20, alpha=0.9)
        b = TrendlineFilter(window=20, alpha=0.9)
        slope_a = slope_b = None
        for i, delta in enumerate(deltas):
            slope_a = a.update(delta, i * 20_000)
            slope_b = b.update(delta * scale, i * 20_000)
        assert slope_b == pytest.approx(slope_a * scale, abs=1e-9)


class TestReorderingRobustness:
    def test_harq_reordered_arrivals_do_not_crash(self):
        """HARQ delivers packets out of order; the estimator must cope."""
        est = GccEstimator(GccConfig(burst_time_us=0))
        arrivals = []
        for i in range(300):
            send = i * 5_000
            # every 10th packet is delayed 10 ms (arrives after successors)
            delay = 30_000 + (10_000 if i % 10 == 0 else 0)
            arrivals.append(PacketArrival(i, send, send + delay, 1_200))
        for a in sorted(arrivals, key=lambda x: x.arrival_us):
            est.on_packet(a)
        assert est.history.samples
        assert est.estimated_rate_kbps() > 0

    def test_duplicate_send_times_grouped(self):
        est = GccEstimator(GccConfig(burst_time_us=5_000))
        for i in range(100):
            send = (i // 4) * 30_000  # four packets share a send time
            est.on_packet(PacketArrival(i, send, send + 25_000, 1_200))
        # One group per send burst, so ~25 groups -> < 25 samples.
        assert len(est.history.samples) < 25
