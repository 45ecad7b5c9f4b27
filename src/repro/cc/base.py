"""Congestion-control data types: arrivals, feedback, and GCC diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..sim.units import TimeUs


class BandwidthSignal(Enum):
    """Network usage as seen by a delay-based detector."""

    NORMAL = "normal"
    OVERUSE = "overuse"
    UNDERUSE = "underuse"


class RateControlState(Enum):
    """AIMD controller state (Carlucci et al., Fig. 4)."""

    INCREASE = "increase"
    HOLD = "hold"
    DECREASE = "decrease"


@dataclass
class PacketArrival:
    """What a congestion controller learns about one delivered packet."""

    packet_id: int
    send_us: TimeUs  # departure timestamp (sender clock / abs-send-time)
    arrival_us: TimeUs  # arrival timestamp (receiver clock)
    size_bytes: int
    ran_induced_us: TimeUs = 0  # PHY-attributed delay, for §5.3 masking


@dataclass
class CcFeedback:
    """Periodic feedback carried over RTCP from receiver to sender."""

    sent_us: TimeUs
    estimated_rate_kbps: float
    loss_ratio: float
    mean_owd_ms: float
    p95_owd_ms: float
    jitter_ms: float


@dataclass
class EstimatorSample:
    """One diagnostic sample of a delay-based estimator (Fig 10 series)."""

    index: int
    arrival_us: TimeUs
    delay_gradient_ms: float  # raw per-group one-way delay gradient d_m
    filtered_gradient: float  # trendline slope (dimensionless)
    modified_trend: float  # slope scaled by sample count and gain
    threshold: float  # adaptive detection threshold (same scale)
    signal: BandwidthSignal
    state: RateControlState
    rate_kbps: float


@dataclass
class EstimatorHistory:
    """Accumulated diagnostic series from a run."""

    samples: List[EstimatorSample] = field(default_factory=list)

    def overuse_count(self) -> int:
        """Number of samples flagged as overuse."""
        return sum(1 for s in self.samples if s.signal == BandwidthSignal.OVERUSE)

    def overuse_fraction(self) -> float:
        """Fraction of samples flagged as overuse."""
        if not self.samples:
            return 0.0
        return self.overuse_count() / len(self.samples)

    def last(self) -> Optional[EstimatorSample]:
        """Most recent sample, if any."""
        return self.samples[-1] if self.samples else None
