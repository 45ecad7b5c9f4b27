"""The benchmark's workloads: one closed-loop operation each, with its oracle.

Every workload is driven through the package's public entry points only
(``run_session``, ``SessionResult.qoe()``, ``sweep_grid``, ``run_batch``,
``BatchExecutor``, ``ScenarioCache``, ``save_trace`` and
``repro.core.delay``).  Operation ``i`` of a workload with seed ``S`` uses
scenario seed ``S + i``, so the same seed always yields the same inputs.

Each workload offers the same small surface to the runner:

* ``ready()``  — the state a user waits for before the first operation
  (the first session built and started, or the warm pool and open cache);
* ``setup()``  — ``ready()`` plus the untimed preparation of the run
  (a warm-up operation, the populated cache of ``sweep_warm``);
* ``before(i)`` / ``op(i)`` — untimed reset, then the timed operation;
* ``check(i, out, deep)`` — the output fingerprint and oracle verdict,
  computed outside the timed region;
* ``final_check()`` — end-of-run checks, or an empty string when they pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.delay import delay_spread, detect_quantization
from repro.phy.params import CrossTrafficConfig, CrossTrafficPhase, RanConfig
from repro.run import (
    BatchExecutor,
    CallSpec,
    ScenarioCache,
    ScenarioConfig,
    SessionBuilder,
    collect_qoe,
    run_batch,
    run_session,
    sweep_grid,
)
from repro.trace import use_id_space
from repro.trace.bus import CHANNEL_FIELDS
from repro.trace.io import save_trace
from repro.trace.schema import CapturePoint

#: Pool workers of the sweep workloads: one client process, at most two
#: workers, so the load never asks for more than a two-core host has.
JOBS = min(2, os.cpu_count() or 1)

#: Simulated seconds per session (or per sweep point).  Short enough that
#: every workload completes over 100 operations in a 15 s run.
CALL_5G_S = 4.0
CALL_LIVE_S = 3.0
CELL_S = 1.5
SWEEP_S = 2.0

#: ``sweep_warm`` cycles over this many grids, all stored during set-up.
WARM_GRIDS = 4

#: The two access networks of each sweep grid (Fig 7's comparison).
ACCESS_VARIANTS = {"5g": {"access": "5g"}, "emulated": {"access": "emulated"}}


def digest(value: object) -> str:
    """sha256 of a JSON-able value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_counts(trace: Any) -> Dict[str, Any]:
    """Record counts of one trace, per channel and for the PHY/net layers."""
    tbs = trace.transport_blocks
    return {
        "channels": {
            channel: len(getattr(trace, attr))
            for channel, attr in CHANNEL_FIELDS.items()
        },
        "harq_retx": sum(tb.harq_rounds for tb in tbs),
        "tb_used_bits": sum(tb.used_bits for tb in tbs),
        "tb_size_bits": sum(tb.size_bits for tb in tbs),
        "dropped": sum(1 for packet in trace.packets if packet.dropped),
    }


def add_counts(parts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :func:`trace_counts` results."""
    total: Dict[str, Any] = {"channels": dict.fromkeys(CHANNEL_FIELDS, 0)}
    for part in parts:
        for key, value in part.items():
            if key == "channels":
                for channel, n in value.items():
                    total["channels"][channel] += n
            else:
                total[key] = total.get(key, 0) + value
    return total


def spread_quantizes(traces: Iterable[Any]) -> bool:
    """The Fig 5 mechanism: frame delay spread at the core sits on 2.5 ms steps.

    Takes one trace per call: packet ids are unique only within a call.
    A contended cell serves each UE every few uplink slots, so its spreads
    sit on a coarser multiple of 2.5 ms; the candidates stop at 2.5.
    """
    spreads = [
        sample.spread_ms
        for trace in traces
        for sample in delay_spread(trace.frames, trace.packet_index(), CapturePoint.CORE)
        if sample.spread_ms > 0
    ]
    step, score = detect_quantization(spreads, candidates_ms=(0.5, 1.0, 2.0, 2.5))
    return len(spreads) >= 20 and step == 2.5 and score < 0.05


def collect_qoe_and_counts(result: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Collector for cache read-backs: the QoE summary plus record counts."""
    return dataclasses.asdict(result.qoe()), trace_counts(result.trace)


@dataclasses.dataclass
class Checked:
    """Oracle verdict on one operation's output."""

    fingerprint: str
    reason: str = ""  # empty when the output is correct
    counts: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# Session workloads: one run_session + qoe() per operation
# ----------------------------------------------------------------------
def call_5g_config(seed: int) -> ScenarioConfig:
    """The default single call: GCC, fixed channel, memory sink."""
    return ScenarioConfig(duration_s=CALL_5G_S, seed=seed)


def call_live_config(seed: int) -> ScenarioConfig:
    """The default call with live analysis and the §5.2/§5.3 mitigations."""
    return ScenarioConfig(
        duration_s=CALL_LIVE_S,
        seed=seed,
        live_analysis=True,
        mask_ran_delay=True,
        aware_ran_learned=True,
    )


def cell_contended_config(seed: int) -> ScenarioConfig:
    """Four calls on a 12-PRB cell with four 1.5 Mbps cross-traffic UEs."""
    return ScenarioConfig(
        duration_s=CELL_S,
        seed=seed,
        ran=RanConfig(n_ul_prbs=12),
        cross_traffic=CrossTrafficConfig(
            n_ues=4, phases=[CrossTrafficPhase(0, 4 * 1_500.0)]
        ),
        calls=[CallSpec(call_id=k) for k in range(4)],
    )


class SessionWorkload:
    """One session per operation, fingerprinted by QoE and record counts."""

    def __init__(
        self,
        seed: int,
        make_config: Callable[[int], ScenarioConfig],
        check_mechanism: bool,
    ) -> None:
        self.seed = seed
        self.make_config = make_config
        self.check_mechanism = check_mechanism
        self.parallel = False
        sample = make_config(seed)
        self.callsec_per_op = sample.duration_s * len(sample.effective_calls())

    def config(self, i: int) -> ScenarioConfig:
        return self.make_config(self.seed + i)

    def ready(self) -> None:
        builder = SessionBuilder(self.config(0))
        with use_id_space(builder.id_space):
            builder.start(builder.build())

    def setup(self) -> None:
        self.ready()
        self.op(0)  # warm-up: lazy imports and first-call caches

    def before(self, i: int) -> None:
        pass

    def op(self, i: int) -> Any:
        result = run_session(self.config(i))
        return result, result.qoe()

    def check(self, i: int, out: Any, deep: bool) -> Checked:
        result, qoe = out
        counts = trace_counts(result.trace)
        fingerprint = digest(
            {"qoe": dataclasses.asdict(qoe), "channels": counts["channels"]}
        )
        reason = ""
        if i == 0 and self.check_mechanism and not spread_quantizes(
            call.trace for call in result.calls
        ):
            reason = "core delay spread does not quantize to 2.5 ms"
        return Checked(fingerprint, reason, counts)

    def final_check(self) -> str:
        return ""

    def cache_stats(self) -> Dict[str, float]:
        return {"hit_ratio": 0.0, "cache_bytes": 0.0}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Sweep workloads: one cached run_batch pass over a 4-point grid
# ----------------------------------------------------------------------
class SweepWorkload:
    """A 2-seed x {5g, emulated} grid through a ScenarioCache on a warm pool.

    ``warm=False`` stores every point into an emptied cache (the write side);
    ``warm=True`` reads every point from a cache filled during set-up,
    through a fresh ScenarioCache per pass as a new process would.
    """

    def __init__(self, seed: int, workdir: Path, warm: bool) -> None:
        self.seed = seed
        self.warm = warm
        # Only the cold pass simulates, in the pool; warm passes all hit.
        self.parallel = not warm and JOBS > 1
        self.cache_dir = workdir / ("warm" if warm else "cold")
        self.workdir = workdir
        self.executor: Optional[BatchExecutor] = None
        self.points = len(self.specs(0))
        self.callsec_per_op = SWEEP_S * self.points
        # Per grid: the cold pass's QoE rows and record counts.
        self.expected: Dict[int, Tuple[List[Dict[str, Any]], Dict[str, Any]]] = {}
        self.hits = 0
        self.lookups = 0
        self.entry_bytes: List[float] = []  # mean entry size, deep checks only

    def specs(self, i: int) -> list:
        seed = self.seed + (i % WARM_GRIDS if self.warm else i)
        return sweep_grid(
            ScenarioConfig(duration_s=SWEEP_S), [seed, seed + 1], ACCESS_VARIANTS
        )

    def ready(self) -> None:
        self.executor = BatchExecutor(jobs=JOBS)
        # Fork the pool and run one short scenario per worker.
        run_batch(
            sweep_grid(ScenarioConfig(duration_s=0.2), [0, 1]),
            collect_qoe,
            executor=self.executor,
        )
        ScenarioCache(self.cache_dir)

    def setup(self) -> None:
        self.ready()
        if self.warm:
            for grid in range(WARM_GRIDS):
                values = self._read_back(grid)[1]
                self.expected[grid] = (
                    [qoe for qoe, _ in values],
                    add_counts(counts for _, counts in values),
                )
        self.before(0)
        self.op(0)  # warm-up

    def before(self, i: int) -> None:
        if not self.warm:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def op(self, i: int) -> Any:
        cache = ScenarioCache(self.cache_dir)
        runs = run_batch(self.specs(i), collect_qoe, executor=self.executor, cache=cache)
        return cache, runs

    def _read_back(self, i: int) -> Tuple[ScenarioCache, list]:
        cache = ScenarioCache(self.cache_dir)
        runs = run_batch(
            self.specs(i), collect_qoe_and_counts, executor=self.executor, cache=cache
        )
        return cache, [run.value for run in runs]

    def check(self, i: int, out: Any, deep: bool) -> Checked:
        cache, runs = out
        qoes = [dataclasses.asdict(run.value) for run in runs]
        self.hits += cache.hits
        self.lookups += cache.hits + cache.misses
        if deep:
            self.entry_bytes.append(cache.total_bytes / max(1, len(cache)))
        want = (self.points, 0) if self.warm else (0, self.points)
        reason = ""
        if (cache.hits, cache.misses) != want:
            reason = f"hits/misses {(cache.hits, cache.misses)} != {want}"
        counts = None
        if self.warm:
            cold_qoes, counts = self.expected[i % WARM_GRIDS]
            if qoes != cold_qoes:
                reason = reason or "warm QoE differs from the cold pass"
        elif deep:
            readback, values = self._read_back(i)
            counts = add_counts(c for _, c in values)
            if readback.hits != self.points:
                reason = reason or f"read-back hit {readback.hits} of {self.points}"
            elif [qoe for qoe, _ in values] != qoes:
                reason = reason or "warm QoE differs from the cold pass"
        fingerprint = digest(
            {"qoe": qoes, "hits": cache.hits, "misses": cache.misses}
        )
        return Checked(fingerprint, reason, counts)

    def final_check(self) -> str:
        """A cache hit must serialize byte-identically to a fresh run."""
        if not self.warm:
            self.before(0)
            self.op(0)
        config = self.specs(0)[0].config
        hit = ScenarioCache(self.cache_dir).get_result(config)
        if hit is None:
            return "op 0's first point is not in the cache"
        cached_path = self.workdir / "hit.jsonl"
        fresh_path = self.workdir / "fresh.jsonl"
        save_trace(hit.trace, cached_path)
        save_trace(run_session(config).trace, fresh_path)
        if cached_path.read_bytes() != fresh_path.read_bytes():
            return "cache-hit JSONL differs from a fresh run_session"
        return ""

    def cache_stats(self) -> Dict[str, float]:
        return {
            "hit_ratio": self.hits / self.lookups if self.lookups else 0.0,
            "cache_bytes": sum(self.entry_bytes) / max(1, len(self.entry_bytes)),
        }

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


WORKLOADS = ("call_5g", "call_live", "cell_contended", "sweep_cold", "sweep_warm")


def make(name: str, seed: int, workdir: Path) -> Any:
    """The workload called ``name``, with scratch files under ``workdir``."""
    if name == "call_5g":
        return SessionWorkload(seed, call_5g_config, check_mechanism=True)
    if name == "call_live":
        return SessionWorkload(seed, call_live_config, check_mechanism=False)
    if name == "cell_contended":
        return SessionWorkload(seed, cell_contended_config, check_mechanism=True)
    if name in ("sweep_cold", "sweep_warm"):
        return SweepWorkload(seed, workdir, warm=name == "sweep_warm")
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
