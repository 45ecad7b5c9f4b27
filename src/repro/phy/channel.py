"""Wireless channel model: per-UE SNR evolution and block error rates.

Retransmissions in the paper's trace come from "mobility and dynamic channel
conditions" (§3.2).  We model each UE's SNR as a Gauss-Markov (AR(1))
process sampled per uplink slot; the block error probability follows a
logistic curve around the operating point of the selected MCS, so a fading
dip raises the BLER and produces the bursts of retransmissions seen in
Fig 9(b).  A fixed-BLER mode is also provided for controlled experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.units import TimeUs
from .mcs import mcs_entry, mcs_for_snr


@dataclass
class ChannelState:
    """Channel snapshot used to build one transport block.

    Read-only by convention: a channel may hand the same snapshot to every
    caller (:class:`FixedChannel` does).
    """

    snr_db: float
    mcs: int
    bler: float


class FixedChannel:
    """Degenerate channel: constant MCS and BLER (controlled experiments)."""

    #: nominal_mcs never changes over time (idle accounting can hoist it).
    nominal_mcs_varies = False

    def __init__(self, mcs: int, bler: float) -> None:
        if not 0.0 <= bler < 1.0:
            raise ValueError(f"bler out of range: {bler}")
        # Built once: every sample is this same snapshot.
        self._state = ChannelState(snr_db=float("nan"), mcs=mcs, bler=bler)

    @property
    def mcs(self) -> int:
        """The constant MCS index (read-only: samples share one state)."""
        return self._state.mcs

    @property
    def bler(self) -> float:
        """The constant block error rate (read-only, like :attr:`mcs`)."""
        return self._state.bler

    def sample(self, time_us: TimeUs) -> ChannelState:
        """Channel state at ``time_us`` (time-invariant here)."""
        return self._state

    def nominal_mcs(self, time_us: TimeUs) -> int:
        """The MCS :meth:`sample` would report, without advancing anything."""
        return self._state.mcs


class PhasedChannel:
    """Piecewise-constant channel: (start_us, mcs, bler) phases.

    Used to script mobility episodes — e.g. a deep fade that drops the UE
    to a low MCS with heavy retransmissions, the condition under which a
    VCA's uplink queue grows to seconds (Fig 8's high-delay episode).
    """

    #: nominal_mcs follows the scripted phases, so idle accounting must
    #: evaluate it per slot instead of hoisting one value.
    nominal_mcs_varies = True

    def __init__(self, phases) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = sorted(phases, key=lambda p: p[0])
        for _, mcs, bler in self.phases:
            if not 0.0 <= bler < 1.0:
                raise ValueError(f"bler out of range: {bler}")
            mcs_entry(mcs)  # validates the index

    def sample(self, time_us: TimeUs) -> ChannelState:
        """Channel state for the phase containing ``time_us``."""
        start, mcs, bler = self.phases[0]
        for phase in self.phases:
            if time_us >= phase[0]:
                start, mcs, bler = phase
            else:
                break
        del start
        return ChannelState(snr_db=float("nan"), mcs=mcs, bler=bler)

    def nominal_mcs(self, time_us: TimeUs) -> int:
        """The MCS :meth:`sample` would report for this time (no state)."""
        mcs = self.phases[0][1]
        for phase in self.phases:
            if time_us >= phase[0]:
                mcs = phase[1]
            else:
                break
        return mcs


class GaussMarkovChannel:
    """AR(1) SNR process with logistic BLER around the MCS operating point.

    ``snr[k+1] = mean + rho * (snr[k] - mean) + sigma * sqrt(1-rho^2) * N(0,1)``

    Link adaptation picks the MCS for a *long-term* SNR estimate (slowly
    tracking), so short fades below the operating point raise the BLER.
    """

    #: Link adaptation tracks the long-term mean, so nominal_mcs is constant.
    nominal_mcs_varies = False

    def __init__(
        self,
        rng: np.random.Generator,
        mean_snr_db: float = 22.0,
        sigma_db: float = 3.0,
        correlation: float = 0.98,
        adaptation_margin_db: float = 2.0,
        bler_slope: float = 1.2,
        target_bler: float = 0.08,
    ) -> None:
        if not 0.0 <= correlation < 1.0:
            raise ValueError(f"correlation out of range: {correlation}")
        self._rng = rng
        self.mean_snr_db = mean_snr_db
        self.sigma_db = sigma_db
        self.rho = correlation
        self.margin_db = adaptation_margin_db
        self.bler_slope = bler_slope
        self.target_bler = target_bler
        self._snr_db = mean_snr_db
        self._last_time_us: TimeUs = -1

    def sample(self, time_us: TimeUs) -> ChannelState:
        """Advance the SNR process and return the state for this slot."""
        if time_us > self._last_time_us:
            noise = self._rng.standard_normal()
            self._snr_db = (
                self.mean_snr_db
                + self.rho * (self._snr_db - self.mean_snr_db)
                + self.sigma_db * math.sqrt(1.0 - self.rho**2) * noise
            )
            self._last_time_us = time_us
        mcs = mcs_for_snr(self.mean_snr_db - self.margin_db)
        bler = self._bler_at(self._snr_db, mcs)
        return ChannelState(snr_db=self._snr_db, mcs=mcs, bler=bler)

    def nominal_mcs(self, time_us: TimeUs) -> int:
        """Link adaptation tracks long-term SNR, so the MCS is deterministic.

        Exposed so the idle-slot fast path can size proactive grants without
        advancing the AR(1) process (no RNG draw).
        """
        return mcs_for_snr(self.mean_snr_db - self.margin_db)

    def _bler_at(self, snr_db: float, mcs: int) -> float:
        """Logistic BLER: equals ``target_bler`` at the operating SNR."""
        entry = mcs_entry(mcs)
        # SNR (dB) at which this MCS's efficiency equals Shannon*0.75.
        required_linear = 2.0 ** (entry.efficiency / 0.75) - 1.0
        operating_db = 10.0 * math.log10(max(required_linear, 1e-9))
        # Shift so BLER(operating point + margin) == target_bler.
        offset = math.log(1.0 / self.target_bler - 1.0) / self.bler_slope
        x = snr_db - (operating_db + self.margin_db) + offset
        return 1.0 / (1.0 + math.exp(self.bler_slope * x))
