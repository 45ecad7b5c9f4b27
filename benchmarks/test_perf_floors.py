"""Speedup floors that guard live fast paths (DESIGN.md §3.2, §3.6).

Each check times a shipped path against its in-tree reference with a
warmup pass and min-of-N repetitions (the minimum is the noise-robust
estimator for short, allocation-bound workloads) and asserts a ratio.
The end-to-end speed of sessions and sweeps is tracked by the repository
benchmark (``perf/``); these floors pin the mechanisms underneath it:

* idle-slot elision on a full VCA session on a 125 us-slot cell (>= 1.2x);
* idle-slot elision on a mostly idle RAN-only session (>= 3.0x);
* a warm scenario-cache sweep against a cold one (>= 5.0x), with cache
  hits serializing byte-identical JSONL to fresh simulations.
"""

from __future__ import annotations

import filecmp
import shutil
from dataclasses import replace
from time import perf_counter
from typing import Callable

from repro.phy import FixedChannel, RanConfig, RanSimulator
from repro.run.batch import collect_qoe, run_batch, sweep_grid
from repro.run.builder import SessionBuilder, run_session
from repro.run.cache import ScenarioCache
from repro.run.scenario import ScenarioConfig
from repro.sim import RngStreams, Simulator, ms, seconds
from repro.trace import MediaKind, PacketRecord, save_trace, use_id_space
from repro.trace.ids import new_packet_id

#: Slot duration of the elision cell: 120 kHz SCS (numerology mu=3, FR2).
#: The finer numerology fires 1600 UL slot events/s in the reference loop,
#: which is exactly the regime idle elision targets.
SLOT_US = 125

FULL_STACK_MIN_SPEEDUP = 1.2
IDLE_HEAVY_MIN_SPEEDUP = 3.0
SCENARIO_CACHE_MIN_SPEEDUP = 5.0


def _best_of(fn: Callable[[], float], reps: int) -> float:
    """Warm up once, then return the minimum elapsed seconds over ``reps``."""
    fn()
    return min(fn() for _ in range(reps))


def _time_session(config: ScenarioConfig, duration_s: float) -> float:
    """Build a session, then time only the event loop (``run_until``)."""
    builder = SessionBuilder(config)
    with use_id_space(builder.id_space):
        ctx = builder.build()
        builder.start(ctx)
        t0 = perf_counter()
        ctx.sim.run_until(seconds(duration_s))
        elapsed_s = perf_counter() - t0
    builder.sink.close()
    return elapsed_s


def test_full_stack_elision_floor():
    """A 1 s default call: elided slot loop vs the firing reference."""
    base = ScenarioConfig(seed=7)
    elide = replace(base, ran=RanConfig(elide_idle_slots=True, slot_us=SLOT_US))
    reference = replace(
        base, ran=RanConfig(elide_idle_slots=False, slot_us=SLOT_US)
    )
    # Interleaved reps, so a burst of host load hits both sides alike.
    _time_session(elide, 1.0)
    _time_session(reference, 1.0)
    elide_runs, reference_runs = [], []
    for _ in range(3):
        elide_runs.append(_time_session(elide, 1.0))
        reference_runs.append(_time_session(reference, 1.0))
    speedup = min(reference_runs) / min(elide_runs)
    print(f"\nfull-stack elision: {speedup:.2f}x "
          f"(floor {FULL_STACK_MIN_SPEEDUP}x)")
    assert speedup >= FULL_STACK_MIN_SPEEDUP


def _time_idle_session(elide: bool, duration_s: float) -> float:
    """One UE, a single early packet burst, then a silent cell."""
    sim = Simulator()
    config = RanConfig(elide_idle_slots=elide)
    ran = RanSimulator(sim, config, RngStreams(1))
    ran.add_ue(1, channel=FixedChannel(config.default_mcs, 0.0))
    ran.set_uplink_sink(1, lambda packet, time_us: None)

    def burst() -> None:
        for _ in range(4):
            ran.send_uplink(
                1,
                PacketRecord(
                    packet_id=new_packet_id(),
                    flow_id="bench",
                    kind=MediaKind.VIDEO,
                    size_bytes=1_100,
                ),
            )

    sim.at(ms(1.0), burst)
    t0 = perf_counter()
    sim.run_until(seconds(duration_s))
    return perf_counter() - t0


def test_idle_heavy_elision_floor():
    """A mostly idle cell: the elided loop goes dormant, the reference
    still fires every uplink slot."""
    elide_s = _best_of(lambda: _time_idle_session(True, 5.0), 1)
    reference_s = _best_of(lambda: _time_idle_session(False, 5.0), 1)
    speedup = reference_s / elide_s
    print(f"\nidle-heavy elision: {speedup:.2f}x "
          f"(floor {IDLE_HEAVY_MIN_SPEEDUP}x)")
    assert speedup >= IDLE_HEAVY_MIN_SPEEDUP


def test_scenario_cache_floor(tmp_path):
    """A 3-seed x {5g, emulated} sweep: every point rehydrated from the
    store vs every point simulated and stored, at ``jobs=1`` so the ratio
    measures simulation vs rehydration, not pool scheduling."""
    base = ScenarioConfig(duration_s=1.0, record_tbs=False)
    specs = sweep_grid(
        base, [7, 8, 9],
        {"5g": {"access": "5g"}, "emulated": {"access": "emulated"}},
    )
    cache_dir = tmp_path / "cache"

    def cold_sweep() -> float:
        # Reset outside the timed region: the measured cost is simulate +
        # store, not directory teardown.
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ScenarioCache(cache_dir=cache_dir)
        t0 = perf_counter()
        run_batch(specs, collect=collect_qoe, jobs=1, cache=cache)
        elapsed_s = perf_counter() - t0
        assert cache.misses == len(specs), "cold sweep must simulate all"
        return elapsed_s

    def warm_sweep() -> float:
        # A fresh instance re-reads the on-disk index, like a new process.
        cache = ScenarioCache(cache_dir=cache_dir)
        t0 = perf_counter()
        run_batch(specs, collect=collect_qoe, jobs=1, cache=cache)
        elapsed_s = perf_counter() - t0
        assert cache.hits == len(specs), "warm sweep must hit every point"
        return elapsed_s

    cold_s = _best_of(cold_sweep, 1)
    warm_s = _best_of(warm_sweep, 1)
    speedup = cold_s / warm_s
    print(f"\nscenario cache: warm {speedup:.2f}x over cold "
          f"(floor {SCENARIO_CACHE_MIN_SPEEDUP}x)")
    assert speedup >= SCENARIO_CACHE_MIN_SPEEDUP

    # One 5G and one emulated point: hit JSONL == fresh-simulation JSONL.
    cache = ScenarioCache(cache_dir=cache_dir)
    for probe in (specs[0], specs[-1]):
        hit = cache.get_result(probe.config)
        assert hit is not None
        fresh_path = tmp_path / "fresh.jsonl"
        hit_path = tmp_path / "hit.jsonl"
        save_trace(run_session(probe.config).trace, fresh_path)
        save_trace(hit.trace, hit_path)
        assert filecmp.cmp(fresh_path, hit_path, shallow=False), probe.label
