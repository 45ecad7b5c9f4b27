"""Google Congestion Control (GCC), per Carlucci et al. (MMSys '16) and the
WebRTC implementation.

The delay-based estimator groups packets by departure time, computes the
inter-group one-way delay gradient

    d_m = (T_i - T_{i-1}) - (t_i - t_{i-1})

(§4 of the paper), filters it with the trendline estimator (a windowed
linear regression over smoothed accumulated delay), and compares the scaled
slope against an *adaptive* threshold to detect over/underuse.  An AIMD
controller converts the signal into a rate.  A separate loss-based term
caps the sender rate; the final estimate is the minimum of the two.

The paper's Fig 10 shows this estimator mis-firing on an idle 5G uplink —
the RAN's 2.5 ms scheduling quantization and 10 ms BSR/HARQ steps look like
queue growth to the gradient filter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..sim.units import TimeUs, us_to_ms
from .base import (
    BandwidthSignal,
    EstimatorHistory,
    EstimatorSample,
    PacketArrival,
    RateControlState,
)


@dataclass
class GccConfig:
    """Tunables of the delay-based estimator (WebRTC defaults)."""

    burst_time_us: TimeUs = 5_000  # packets within 5 ms form one group
    trendline_window: int = 20  # regression window (samples)
    smoothing_alpha: float = 0.9  # EWMA on accumulated delay
    threshold_gain: float = 4.0
    initial_threshold: float = 12.5
    min_threshold: float = 6.0
    max_threshold: float = 600.0
    k_up: float = 0.0087  # threshold adaptation when |trend| above it
    k_down: float = 0.039  # threshold adaptation when below
    max_adapt_step_ms: float = 100.0
    overuse_time_threshold_us: TimeUs = 10_000  # sustained overuse before firing
    beta: float = 0.85  # multiplicative decrease
    initial_rate_kbps: float = 600.0
    min_rate_kbps: float = 50.0
    max_rate_kbps: float = 2_500.0
    eta: float = 1.08  # multiplicative increase per second
    additive_packet_bytes: float = 1_200.0
    rtt_ms: float = 60.0  # response-time assumption for additive increase


class _ArrivalGroup:
    __slots__ = ("first_send_us", "last_send_us", "last_arrival_us", "size_bytes")

    def __init__(self, send_us: TimeUs, arrival_us: TimeUs, size: int) -> None:
        self.first_send_us = send_us
        self.last_send_us = send_us
        self.last_arrival_us = arrival_us
        self.size_bytes = size

    def add(self, send_us: TimeUs, arrival_us: TimeUs, size: int) -> None:
        self.last_send_us = max(self.last_send_us, send_us)
        self.last_arrival_us = max(self.last_arrival_us, arrival_us)
        self.size_bytes += size


class TrendlineFilter:
    """Windowed linear regression over smoothed accumulated delay."""

    def __init__(self, window: int, alpha: float) -> None:
        if window < 2:
            raise ValueError("trendline window must be >= 2")
        self.window = window
        self.alpha = alpha
        self._points: Deque[Tuple[float, float]] = deque(maxlen=window)
        self._accumulated_ms = 0.0
        self._smoothed_ms = 0.0
        self._first_arrival_ms: Optional[float] = None
        self._num_deltas = 0

    def update(self, delta_ms: float, arrival_us: TimeUs) -> Optional[float]:
        """Feed one inter-group delay variation; returns the slope if ready."""
        arrival_ms = us_to_ms(arrival_us)
        if self._first_arrival_ms is None:
            self._first_arrival_ms = arrival_ms
        self._num_deltas += 1
        self._accumulated_ms += delta_ms
        self._smoothed_ms = (
            self.alpha * self._smoothed_ms + (1.0 - self.alpha) * self._accumulated_ms
        )
        self._points.append((arrival_ms - self._first_arrival_ms, self._smoothed_ms))
        if len(self._points) < self.window:
            return None
        return self._slope()

    def _slope(self) -> float:
        n = len(self._points)
        mean_x = sum(p[0] for p in self._points) / n
        mean_y = sum(p[1] for p in self._points) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in self._points)
        den = sum((x - mean_x) ** 2 for x, _ in self._points)
        if den == 0:
            return 0.0
        return num / den

    @property
    def num_samples(self) -> int:
        """Samples currently in the regression window."""
        return len(self._points)

    @property
    def num_deltas(self) -> int:
        """Total delay-variation samples seen (WebRTC's trend scale factor)."""
        return self._num_deltas


class OveruseDetector:
    """Adaptive-threshold comparison of the scaled trendline slope."""

    def __init__(self, config: GccConfig) -> None:
        self._cfg = config
        self.threshold = config.initial_threshold
        self._overusing_since_us: Optional[TimeUs] = None
        self._prev_trend = 0.0
        self._last_update_us: Optional[TimeUs] = None
        self.signal = BandwidthSignal.NORMAL

    def detect(
        self, trend: float, num_samples: int, arrival_us: TimeUs
    ) -> Tuple[BandwidthSignal, float]:
        """Classify one trendline sample; returns (signal, modified_trend)."""
        cfg = self._cfg
        modified = min(num_samples, 60) * trend * cfg.threshold_gain
        if modified > self.threshold:
            if self._overusing_since_us is None:
                self._overusing_since_us = arrival_us
            sustained = (
                arrival_us - self._overusing_since_us
                >= cfg.overuse_time_threshold_us
            )
            if sustained and trend >= self._prev_trend:
                self.signal = BandwidthSignal.OVERUSE
        elif modified < -self.threshold:
            self._overusing_since_us = None
            self.signal = BandwidthSignal.UNDERUSE
        else:
            self._overusing_since_us = None
            self.signal = BandwidthSignal.NORMAL
        self._prev_trend = trend
        self._update_threshold(modified, arrival_us)
        return self.signal, modified

    def _update_threshold(self, modified: float, arrival_us: TimeUs) -> None:
        cfg = self._cfg
        if self._last_update_us is None:
            self._last_update_us = arrival_us
        # WebRTC skips adaptation on far-outlier samples.
        if abs(modified) > self.threshold + 15.0:
            self._last_update_us = arrival_us
            return
        k = cfg.k_up if abs(modified) > self.threshold else cfg.k_down
        dt_ms = min(us_to_ms(arrival_us - self._last_update_us), cfg.max_adapt_step_ms)
        self.threshold += k * (abs(modified) - self.threshold) * dt_ms
        self.threshold = min(cfg.max_threshold, max(cfg.min_threshold, self.threshold))
        self._last_update_us = arrival_us


class AimdRateController:
    """Converts over/underuse signals into a target rate."""

    def __init__(self, config: GccConfig) -> None:
        self._cfg = config
        self.state = RateControlState.INCREASE
        self.rate_kbps = config.initial_rate_kbps
        self._last_update_us: Optional[TimeUs] = None
        self._incoming_rate_kbps = config.initial_rate_kbps

    def update(
        self, signal: BandwidthSignal, incoming_rate_kbps: float, now_us: TimeUs
    ) -> float:
        """Advance the AIMD state machine and return the new rate."""
        cfg = self._cfg
        if incoming_rate_kbps > 0:
            self._incoming_rate_kbps = incoming_rate_kbps
        # State transitions (Carlucci et al., Fig. 5).
        if signal == BandwidthSignal.OVERUSE:
            self.state = RateControlState.DECREASE
        elif signal == BandwidthSignal.UNDERUSE:
            self.state = RateControlState.HOLD
        else:  # NORMAL
            if self.state == RateControlState.DECREASE:
                self.state = RateControlState.HOLD
            elif self.state == RateControlState.HOLD:
                self.state = RateControlState.INCREASE

        if self._last_update_us is None:
            self._last_update_us = now_us
        dt_s = max(0.0, (now_us - self._last_update_us) / 1e6)
        self._last_update_us = now_us

        if self.state == RateControlState.DECREASE:
            self.rate_kbps = cfg.beta * self._incoming_rate_kbps
        elif self.state == RateControlState.INCREASE:
            # Multiplicative increase far from convergence; bounded by the
            # measured incoming rate plus headroom so we don't run away.
            grown = self.rate_kbps * (cfg.eta ** min(dt_s, 1.0))
            cap = 1.5 * self._incoming_rate_kbps + 10.0
            self.rate_kbps = min(grown, cap)
        self.rate_kbps = min(cfg.max_rate_kbps, max(cfg.min_rate_kbps, self.rate_kbps))
        return self.rate_kbps


class GccEstimator:
    """The full receiver-side delay-based estimator with diagnostics."""

    def __init__(self, config: Optional[GccConfig] = None) -> None:
        self.config = config or GccConfig()
        self._trendline = TrendlineFilter(
            self.config.trendline_window, self.config.smoothing_alpha
        )
        self._detector = OveruseDetector(self.config)
        self._aimd = AimdRateController(self.config)
        self._current_group: Optional[_ArrivalGroup] = None
        self._prev_group: Optional[_ArrivalGroup] = None
        self.history = EstimatorHistory()
        self._arrival_bytes: Deque[Tuple[TimeUs, int]] = deque()
        self._arrival_bytes_total = 0  # sum of sizes in _arrival_bytes
        self._sample_index = 0

    # ------------------------------------------------------------------
    def on_packet(self, arrival: PacketArrival) -> None:
        """Feed one delivered packet (in arrival order)."""
        self._track_incoming_rate(arrival)
        group = self._current_group
        if group is None:
            self._current_group = _ArrivalGroup(
                arrival.send_us, arrival.arrival_us, arrival.size_bytes
            )
            return
        if arrival.send_us - group.first_send_us <= self.config.burst_time_us:
            group.add(arrival.send_us, arrival.arrival_us, arrival.size_bytes)
            return
        # Group boundary: compare the finished group with the previous one.
        if self._prev_group is not None:
            self._on_group_pair(self._prev_group, group)
        self._prev_group = group
        self._current_group = _ArrivalGroup(
            arrival.send_us, arrival.arrival_us, arrival.size_bytes
        )

    def estimated_rate_kbps(self) -> float:
        """Current delay-based rate estimate."""
        return self._aimd.rate_kbps

    def incoming_rate_kbps(self, now_us: TimeUs, window_us: TimeUs = 500_000) -> float:
        """Measured incoming media rate over the trailing window."""
        horizon = now_us - window_us
        arrivals = self._arrival_bytes
        while arrivals and arrivals[0][0] < horizon:
            self._arrival_bytes_total -= arrivals.popleft()[1]
        return self._arrival_bytes_total * 8 / (window_us / 1e6) / 1_000

    # ------------------------------------------------------------------
    def _track_incoming_rate(self, arrival: PacketArrival) -> None:
        self._arrival_bytes.append((arrival.arrival_us, arrival.size_bytes))
        self._arrival_bytes_total += arrival.size_bytes

    def _on_group_pair(self, prev: _ArrivalGroup, cur: _ArrivalGroup) -> None:
        d_send_ms = us_to_ms(cur.last_send_us - prev.last_send_us)
        d_arrival_ms = us_to_ms(cur.last_arrival_us - prev.last_arrival_us)
        delta_ms = d_arrival_ms - d_send_ms
        slope = self._trendline.update(delta_ms, cur.last_arrival_us)
        if slope is None:
            return
        signal, modified = self._detector.detect(
            slope, self._trendline.num_deltas, cur.last_arrival_us
        )
        incoming = self.incoming_rate_kbps(cur.last_arrival_us)
        rate_kbps = self._aimd.update(signal, incoming, cur.last_arrival_us)
        self.history.samples.append(
            EstimatorSample(
                index=self._sample_index,
                arrival_us=cur.last_arrival_us,
                delay_gradient_ms=delta_ms,
                filtered_gradient=slope,
                modified_trend=modified,
                threshold=self._detector.threshold,
                signal=signal,
                state=self._aimd.state,
                rate_kbps=rate_kbps,
            )
        )
        self._sample_index += 1


class LossBasedController:
    """GCC's sender-side loss-based rate term."""

    def __init__(self, initial_rate_kbps: float = 600.0,
                 min_rate_kbps: float = 50.0, max_rate_kbps: float = 2_500.0) -> None:
        self.rate_kbps = initial_rate_kbps
        self.min_rate_kbps = min_rate_kbps
        self.max_rate_kbps = max_rate_kbps

    def on_loss_report(self, loss_ratio: float) -> float:
        """Update the loss-based rate from a fraction-lost report."""
        if not 0.0 <= loss_ratio <= 1.0:
            raise ValueError(f"loss ratio out of range: {loss_ratio}")
        if loss_ratio > 0.10:
            self.rate_kbps *= 1.0 - 0.5 * loss_ratio
        elif loss_ratio < 0.02:
            self.rate_kbps *= 1.05
        self.rate_kbps = min(self.max_rate_kbps, max(self.min_rate_kbps, self.rate_kbps))
        return self.rate_kbps
