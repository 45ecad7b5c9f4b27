"""Fig 7 — 5G degradation: QoE in 5G vs an equal-capacity wired network.

The baseline emulates the cellular capacity (calculated from the physical
transport-block sizes of the 5G run) behind a fixed 15 ms latency using a
tc-style shaper.  The paper finds 5G consistently worse on receive bitrate
(7a), frame-level jitter (7b), frame rate (7c), and SSIM (7d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..app.session import run_session
from ..core.report import format_table
from ..media.quality import QoeSummary, percentile
from ..phy.ran import nominal_ul_capacity_kbps
from ..run.batch import RunSpec, collect_qoe, run_batch
from .common import cross_traffic_scenario, emulated_scenario, experiment_cache


@dataclass
class Fig7Result:
    """QoE summaries of the two access networks."""

    qoe_5g: QoeSummary
    qoe_emulated: QoeSummary
    emulated_rate_kbps: float

    def comparison(self) -> Dict[str, Dict[str, float]]:
        """Median of each Fig 7 metric for both networks."""
        return {"5g": self.qoe_5g.medians(), "emulated": self.qoe_emulated.medians()}

    def summary(self) -> str:
        """Bench-ready side-by-side table."""
        m5, me = self.qoe_5g.medians(), self.qoe_emulated.medians()
        rows = [
            ["7a receive bitrate (kbps, p50)", m5["bitrate_kbps"], me["bitrate_kbps"]],
            ["7b frame jitter (ms, p50)", m5["jitter_ms"], me["jitter_ms"]],
            ["7b frame jitter (ms, p90)",
             percentile(self.qoe_5g.frame_jitter_ms, 90),
             percentile(self.qoe_emulated.frame_jitter_ms, 90)],
            ["7c frame rate (fps, p50)", m5["fps"], me["fps"]],
            ["7d SSIM (p50)", m5["ssim"], me["ssim"]],
            ["stalls", self.qoe_5g.stall_count, self.qoe_emulated.stall_count],
        ]
        return format_table(["metric", "5G", "emulated"], rows)


def run_fig7(
    duration_s: float = 60.0,
    seed: int = 7,
    replay_capacity: bool = False,
    jobs: Optional[int] = None,
) -> Fig7Result:
    """Regenerate Fig 7's four QoE CDF comparisons.

    With ``replay_capacity`` the emulated link replays the 5G run's
    per-window granted-capacity series instead of its mean — the closest
    software analogue of the paper's tc setup; the series only exists once
    the 5G run finishes, so that mode runs the two sessions serially.
    Otherwise the baseline is sized from the cell's *nominal* TB capacity,
    known from the :class:`~repro.phy.params.RanConfig` alone, and both
    sessions execute concurrently through the batch executor.
    """
    config_5g = cross_traffic_scenario(duration_s=duration_s, seed=seed,
                                       record_tbs=False)
    if replay_capacity:
        result_5g = run_session(config_5g)
        # Size the wired baseline from the 5G run's granted TB capacity, as
        # the paper does ("calculated from the physical transport block
        # sizes").
        assert result_5g.ran is not None
        granted = result_5g.ran.mean_granted_kbps()
        nominal = result_5g.ran.nominal_ul_capacity_kbps()
        rate_kbps = granted if granted > 0 else nominal
        window = result_5g.ran.config.capacity_window_us
        config_emu = emulated_scenario(
            duration_s=duration_s,
            seed=seed,
            rate_kbps=rate_kbps,
            emulated_capacity_series=[
                (w.start_us, max(w.granted_kbps(window), 500.0))
                for w in result_5g.ran.capacity_series()
            ],
        )
        result_emu = run_session(config_emu)
        return Fig7Result(
            qoe_5g=result_5g.qoe(),
            qoe_emulated=result_emu.qoe(),
            emulated_rate_kbps=rate_kbps,
        )

    rate_kbps = nominal_ul_capacity_kbps(config_5g.ran)
    config_emu = emulated_scenario(
        duration_s=duration_s, seed=seed, rate_kbps=rate_kbps
    )
    runs = run_batch(
        [RunSpec("5g", config_5g), RunSpec("emulated", config_emu)],
        collect=collect_qoe,
        jobs=jobs,
        cache=experiment_cache(),
    )
    return Fig7Result(
        qoe_5g=runs[0].value,
        qoe_emulated=runs[1].value,
        emulated_rate_kbps=rate_kbps,
    )
