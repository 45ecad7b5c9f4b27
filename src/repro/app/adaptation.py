"""Zoom's frame-rate adaptation policy, as reverse-engineered in §2/Fig 8.

The paper observes (and confirmed with Zoom engineers) that Zoom reacts to
network degradation along the SVC temporal dimension:

* very high absolute delay (above ~one second) → switch the SVC layer set
  and "more permanently" reduce the frame rate to 14 fps;
* high jitter → *transiently* skip frames, dropping to rates around 20 fps;
* otherwise run the full 28 fps ladder.

The policy consumes the receiver's periodic feedback (delay percentiles and
jitter) and outputs an :class:`~repro.media.svc.FpsMode`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..media.svc import FpsMode
from ..sim.units import TimeUs, seconds


@dataclass(frozen=True)
class AdaptationConfig:
    """Thresholds of the frame-rate policy."""

    high_delay_ms: float = 1_000.0  # p95 OWD above this -> persistent 14 fps
    extreme_delay_ms: float = 3_000.0  # -> base layer only (7 fps)
    high_jitter_ms: float = 30.0  # -> transient frame skipping (~21 fps)
    skip_hold_us: TimeUs = seconds(4.0)  # how long a skip episode lasts
    low_fps_recovery_us: TimeUs = seconds(120.0)  # good time before leaving 14 fps
    good_delay_ms: float = 300.0  # "good" condition for recovery


class ZoomAdaptationPolicy:
    """Stateful mapping from feedback statistics to an FPS operating mode."""

    def __init__(self, config: AdaptationConfig = AdaptationConfig()) -> None:
        self.config = config
        self.mode = FpsMode.FULL
        self._skip_until_us: TimeUs = -1
        self._low_since_us: TimeUs = -1
        self._good_since_us: TimeUs = -1
        self.mode_changes = 0

    def update(
        self, now_us: TimeUs, p95_owd_ms: float, jitter_ms: float
    ) -> FpsMode:
        """Advance the policy with one feedback report; returns the mode."""
        cfg = self.config
        new_mode = self.mode

        if p95_owd_ms > cfg.extreme_delay_ms:
            new_mode = FpsMode.BASE
            self._low_since_us = now_us
            self._good_since_us = -1
        elif p95_owd_ms > cfg.high_delay_ms:
            new_mode = FpsMode.LOW
            self._low_since_us = now_us
            self._good_since_us = -1
        elif self.mode in (FpsMode.LOW, FpsMode.BASE):
            # Sticky low-FPS state: only recover after a long good period.
            if p95_owd_ms < cfg.good_delay_ms:
                if self._good_since_us < 0:
                    self._good_since_us = now_us
                elif now_us - self._good_since_us >= cfg.low_fps_recovery_us:
                    new_mode = FpsMode.FULL
                    self._good_since_us = -1
            else:
                self._good_since_us = -1
            if new_mode in (FpsMode.LOW, FpsMode.BASE):
                # While sticky, a drop in delay below extreme upgrades BASE->LOW.
                if self.mode == FpsMode.BASE and p95_owd_ms < cfg.extreme_delay_ms:
                    new_mode = FpsMode.LOW
        elif jitter_ms > cfg.high_jitter_ms:
            new_mode = FpsMode.SKIP
            self._skip_until_us = now_us + cfg.skip_hold_us
        elif self.mode == FpsMode.SKIP and now_us >= self._skip_until_us:
            new_mode = FpsMode.FULL

        if new_mode is not self.mode:
            self.mode_changes += 1
            self.mode = new_mode
        return self.mode
