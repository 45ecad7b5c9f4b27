"""Ablations over the design choices §3 and §5.1 call out.

* proactive grants on/off (the ~10 ms benefit for sporadic packets);
* BSR scheduling-delay sweep (the grant-loop latency);
* HARQ failure-probability sweep (delay inflation vs channel quality);
* duplexing sweep: TDD patterns with different uplink densities and the
  FDD limit (§5.1: "different base stations use different duplexing
  strategies ... resulting in differing impacts on application-layer
  latencies").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..app.session import run_session
from ..core.report import format_table
from ..phy.params import RanConfig
from ..run.batch import RunSpec, run_batch
from ..run.scenario import ScenarioConfig, SessionResult
from ..sim.units import ms, us_to_ms
from ..trace.schema import CapturePoint
from .common import experiment_cache, idle_cell_scenario


@dataclass
class AblationPoint:
    """Uplink delay statistics for one configuration."""

    label: str
    owd_p50_ms: float
    owd_p95_ms: float
    spread_p50_ms: float


@dataclass
class AblationResult:
    """One sweep's points in order."""

    name: str
    points: List[AblationPoint] = field(default_factory=list)

    def summary(self) -> str:
        """Bench-ready sweep table."""
        rows = [
            [p.label, p.owd_p50_ms, p.owd_p95_ms, p.spread_p50_ms]
            for p in self.points
        ]
        return f"{self.name}\n" + format_table(
            ["config", "uplink OWD p50 (ms)", "p95 (ms)", "spread p50 (ms)"],
            rows,
        )


def collect_ablation_point(result: SessionResult) -> AblationPoint:
    """Batch collector: reduce one run to its uplink-delay statistics."""
    from ..core.api import AthenaSession

    athena = AthenaSession(result.trace)
    owds = [
        us_to_ms(d)
        for p in result.trace.packets
        if (d := p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE))
        is not None
    ]
    spreads = athena.delay_spread_cdf(CapturePoint.CORE, stream="video")
    return AblationPoint(
        label="",
        owd_p50_ms=float(np.median(owds)) if owds else float("nan"),
        owd_p95_ms=float(np.percentile(owds, 95)) if owds else float("nan"),
        spread_p50_ms=float(np.median(spreads)) if spreads else float("nan"),
    )


def _measure(config) -> AblationPoint:
    return collect_ablation_point(run_session(config))


def _sweep(
    name: str,
    labeled: Sequence[Tuple[str, ScenarioConfig]],
    jobs: Optional[int] = None,
) -> AblationResult:
    """Execute one sweep's configurations through the batch executor."""
    runs = run_batch(
        [RunSpec(label, config) for label, config in labeled],
        collect=collect_ablation_point,
        jobs=jobs,
        cache=experiment_cache(),
    )
    result = AblationResult(name=name)
    for run in runs:
        run.value.label = run.label
        result.points.append(run.value)
    return result


def sweep_proactive(
    duration_s: float = 20.0, seed: int = 7, jobs: Optional[int] = None
) -> AblationResult:
    """Proactive grants on vs off (SR+BSR only)."""
    labeled = [
        (
            "proactive" if enabled else "BSR/SR only",
            idle_cell_scenario(
                duration_s=duration_s, seed=seed,
                ran=RanConfig(proactive_grants=enabled), record_tbs=False,
            ),
        )
        for enabled in (True, False)
    ]
    return _sweep("proactive grants", labeled, jobs=jobs)


def sweep_bsr_delay(
    duration_s: float = 20.0,
    seed: int = 7,
    delays_ms: Sequence[float] = (5.0, 10.0, 20.0),
    jobs: Optional[int] = None,
) -> AblationResult:
    """BSR scheduling-delay sweep."""
    labeled = []
    for delay in delays_ms:
        # Clean channel and a fixed large bitrate so the BSR loop (not HARQ
        # or rate adaptation) is the only moving part.
        ran = RanConfig(bsr_sched_delay_us=ms(delay), sr_sched_delay_us=ms(delay),
                        base_bler=0.0, retx_bler=0.0)
        labeled.append((
            f"{delay:.0f} ms",
            idle_cell_scenario(duration_s=duration_s, seed=seed, ran=ran,
                               fixed_bitrate_kbps=1_200.0, record_tbs=False),
        ))
    return _sweep("BSR scheduling delay", labeled, jobs=jobs)


def sweep_bler(
    duration_s: float = 20.0,
    seed: int = 7,
    blers: Sequence[float] = (0.0, 0.08, 0.25),
    jobs: Optional[int] = None,
) -> AblationResult:
    """HARQ failure-probability sweep."""
    labeled = [
        (
            f"BLER {bler:.2f}",
            idle_cell_scenario(
                duration_s=duration_s, seed=seed,
                ran=RanConfig(base_bler=bler, retx_bler=bler),
                record_tbs=False,
            ),
        )
        for bler in blers
    ]
    return _sweep("block error rate", labeled, jobs=jobs)


def sweep_duplexing(
    duration_s: float = 20.0, seed: int = 7, jobs: Optional[int] = None
) -> AblationResult:
    """TDD-pattern / FDD sweep (§5.1)."""
    configs: Dict[str, RanConfig] = {
        "TDD DDDSU (UL/2.5ms)": RanConfig(tdd_pattern="DDDSU"),
        "TDD DDSUU (2xUL/2.5ms)": RanConfig(tdd_pattern="DDSUU"),
        "TDD DDDDDDDDSU (UL/5ms)": RanConfig(tdd_pattern="DDDDDDDDSU"),
        "FDD (UL every slot)": RanConfig(fdd=True),
    }
    labeled = [
        (
            label,
            idle_cell_scenario(duration_s=duration_s, seed=seed, ran=ran,
                               record_tbs=False),
        )
        for label, ran in configs.items()
    ]
    return _sweep("duplexing strategy", labeled, jobs=jobs)


def sweep_scheduler_policy(
    duration_s: float = 30.0,
    seed: int = 7,
    overload_mbps: float = 34.0,
    jobs: Optional[int] = None,
) -> AblationResult:
    """Grant-serving policy under overload: round-robin vs cell-wide FIFO.

    With FIFO, backlogged cross-traffic UEs hold the head of the grant
    queue and the light VCA flow starves — one plausible mechanism behind
    the multi-second delays real cells exhibit under load (Fig 8).
    """
    from ..phy.params import CrossTrafficConfig, CrossTrafficPhase
    from ..sim.units import seconds

    labeled = []
    for policy in ("round_robin", "fifo"):
        ran = RanConfig(scheduler_policy=policy)
        config = idle_cell_scenario(duration_s=duration_s, seed=seed, ran=ran,
                                    record_tbs=False)
        third = seconds(duration_s / 3)
        config = replace(config, cross_traffic=CrossTrafficConfig(
            phases=[
                CrossTrafficPhase(0, 8_000.0),
                CrossTrafficPhase(third, overload_mbps * 1_000),
                CrossTrafficPhase(2 * third, 8_000.0),
            ]
        ))
        labeled.append((policy, config))
    return _sweep(
        "requested-grant serving policy (overload)", labeled, jobs=jobs
    )


def sweep_rlc_mode(
    duration_s: float = 20.0,
    seed: int = 7,
    bler: float = 0.45,
    jobs: Optional[int] = None,
) -> AblationResult:
    """RLC UM vs AM on a bad channel: loss vs delay-tail tradeoff.

    UM (the low-latency media bearer) drops packets when HARQ exhausts;
    AM recovers them at the cost of multi-RTT delay inflation.
    """
    labeled = [
        (
            f"RLC {mode.upper()}",
            idle_cell_scenario(
                duration_s=duration_s, seed=seed,
                ran=RanConfig(base_bler=bler, retx_bler=bler,
                              max_harq_rounds=1, rlc_mode=mode,
                              rlc_max_retx=6),
                fixed_bitrate_kbps=600.0, record_tbs=False,
            ),
        )
        for mode in ("um", "am")
    ]
    return _sweep("RLC mode (bad channel)", labeled, jobs=jobs)
