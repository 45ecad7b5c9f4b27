"""MCS table and transport-block sizing.

A condensed version of 3GPP TS 38.214 Table 5.1.3.1-1 (64-QAM table): each
MCS index maps to a modulation order and a code rate, whose product is the
spectral efficiency in information bits per resource element.  Transport
block size is computed as ``PRBs x subcarriers x data symbols x efficiency``
— close enough to the standardized TBS procedure for scheduling studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List


@dataclass(frozen=True)
class McsEntry:
    """One row of the MCS table."""

    index: int
    modulation_order: int  # bits per symbol: 2 = QPSK, 4 = 16QAM, 6 = 64QAM
    code_rate: float  # effective code rate (0..1)

    @property
    def efficiency(self) -> float:
        """Information bits per resource element."""
        return self.modulation_order * self.code_rate


# TS 38.214 Table 5.1.3.1-1 (PDSCH/PUSCH MCS index table 1), code rate
# expressed as R = (table value)/1024.
_MCS_TABLE: List[McsEntry] = [
    McsEntry(0, 2, 120 / 1024),
    McsEntry(1, 2, 157 / 1024),
    McsEntry(2, 2, 193 / 1024),
    McsEntry(3, 2, 251 / 1024),
    McsEntry(4, 2, 308 / 1024),
    McsEntry(5, 2, 379 / 1024),
    McsEntry(6, 2, 449 / 1024),
    McsEntry(7, 2, 526 / 1024),
    McsEntry(8, 2, 602 / 1024),
    McsEntry(9, 2, 679 / 1024),
    McsEntry(10, 4, 340 / 1024),
    McsEntry(11, 4, 378 / 1024),
    McsEntry(12, 4, 434 / 1024),
    McsEntry(13, 4, 490 / 1024),
    McsEntry(14, 4, 553 / 1024),
    McsEntry(15, 4, 616 / 1024),
    McsEntry(16, 4, 658 / 1024),
    McsEntry(17, 6, 438 / 1024),
    McsEntry(18, 6, 466 / 1024),
    McsEntry(19, 6, 517 / 1024),
    McsEntry(20, 6, 567 / 1024),
    McsEntry(21, 6, 616 / 1024),
    McsEntry(22, 6, 666 / 1024),
    McsEntry(23, 6, 719 / 1024),
    McsEntry(24, 6, 772 / 1024),
    McsEntry(25, 6, 822 / 1024),
    McsEntry(26, 6, 873 / 1024),
    McsEntry(27, 6, 910 / 1024),
    McsEntry(28, 6, 948 / 1024),
]

MAX_MCS_INDEX = len(_MCS_TABLE) - 1


def mcs_entry(index: int) -> McsEntry:
    """Return the table entry for an MCS index (0..28)."""
    if not 0 <= index <= MAX_MCS_INDEX:
        raise ValueError(f"MCS index out of range [0, {MAX_MCS_INDEX}]: {index}")
    return _MCS_TABLE[index]


@lru_cache(maxsize=256)
def bits_per_prb(mcs: int, subcarriers: int = 12, symbols: int = 13) -> int:
    """Information bits one PRB carries in one slot at the given MCS.

    Memoized: the scheduler asks for the same few (MCS, PRB geometry)
    triples every busy slot.  An invalid index raises before anything is
    cached.
    """
    entry = mcs_entry(mcs)
    return int(subcarriers * symbols * entry.efficiency)


def tbs_bits(mcs: int, n_prbs: int, subcarriers: int = 12, symbols: int = 13) -> int:
    """Transport block size (bits) for an allocation of ``n_prbs`` PRBs."""
    if n_prbs < 0:
        raise ValueError(f"PRB count must be >= 0: {n_prbs}")
    return bits_per_prb(mcs, subcarriers, symbols) * n_prbs


def prbs_for_bits(
    bits: int, mcs: int, subcarriers: int = 12, symbols: int = 13
) -> int:
    """Minimum PRBs needed to carry ``bits`` at the given MCS."""
    if bits <= 0:
        return 0
    per_prb = bits_per_prb(mcs, subcarriers, symbols)
    return -(-bits // per_prb)  # ceiling division


def mcs_for_snr(snr_db: float) -> int:
    """Pick the highest MCS whose operating point a given SNR supports.

    Uses a standard link-adaptation approximation: spectral efficiency
    attainable at ``snr_db`` is ``log2(1 + SNR) * 0.75`` (implementation
    margin), then the highest MCS at or below it is chosen.
    """
    import math

    attainable = math.log2(1.0 + 10.0 ** (snr_db / 10.0)) * 0.75
    best = 0
    for entry in _MCS_TABLE:
        if entry.efficiency <= attainable:
            best = entry.index
    return best
