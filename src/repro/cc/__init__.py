"""Congestion control: GCC, the delay-gradient estimator the paper studies."""

from .base import (
    BandwidthSignal,
    CcFeedback,
    EstimatorHistory,
    EstimatorSample,
    PacketArrival,
    RateControlState,
)
from .gcc import (
    AimdRateController,
    GccConfig,
    GccEstimator,
    LossBasedController,
    OveruseDetector,
    TrendlineFilter,
)

__all__ = [
    "AimdRateController",
    "BandwidthSignal",
    "CcFeedback",
    "EstimatorHistory",
    "EstimatorSample",
    "GccConfig",
    "GccEstimator",
    "LossBasedController",
    "OveruseDetector",
    "PacketArrival",
    "RateControlState",
    "TrendlineFilter",
]
