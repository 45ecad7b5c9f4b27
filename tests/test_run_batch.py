"""The parallel batch executor: ordering, serial identity, the grid, CLI."""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.common import idle_cell_scenario
from repro.run.batch import (
    BatchExecutor,
    RunSpec,
    TRACE_TRANSPORTS,
    WorkerCrashError,
    _adaptive_chunksize,
    collect_qoe,
    collect_summary,
    collect_trace,
    run_batch,
    run_batch_traces,
    sweep_grid,
)
from repro.run.scenario import ScenarioConfig


def _specs(n=3, duration_s=1.0):
    return [
        RunSpec(
            label=f"seed{seed}",
            config=idle_cell_scenario(duration_s=duration_s, seed=seed),
        )
        for seed in range(1, n + 1)
    ]


class TestRunBatch:
    def test_parallel_matches_serial_exactly(self):
        specs = _specs()
        serial = run_batch(specs, collect=collect_summary, jobs=1)
        parallel = run_batch(specs, collect=collect_summary, jobs=2)
        assert [r.label for r in serial] == [r.label for r in parallel]
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_results_preserve_spec_order(self):
        specs = _specs(4)
        runs = run_batch(specs, collect=collect_summary, jobs=2)
        assert [r.label for r in runs] == [s.label for s in specs]

    def test_collect_qoe_ships_summaries(self):
        runs = run_batch(_specs(2), collect=collect_qoe, jobs=2)
        for run in runs:
            assert run.value.medians()["fps"] > 0

    def test_empty_batch(self):
        assert run_batch([], jobs=4) == []


class TestSweepGrid:
    def test_variant_major_expansion(self):
        base = ScenarioConfig(duration_s=1.0)
        specs = sweep_grid(
            base,
            seeds=[1, 2],
            variants={"5g": {"access": "5g"},
                      "emulated": {"access": "emulated"}},
        )
        assert [s.label for s in specs] == [
            "5g/seed1", "5g/seed2", "emulated/seed1", "emulated/seed2",
        ]
        assert specs[0].config.seed == 1 and specs[1].config.seed == 2
        assert specs[2].config.access == "emulated"
        # The base config is never mutated.
        assert base.seed == 7 and base.access == "5g"

    def test_default_single_variant(self):
        specs = sweep_grid(ScenarioConfig(duration_s=1.0), seeds=[9])
        assert [s.label for s in specs] == ["base/seed9"]


class TestCliSweep:
    def test_smoke_grid_runs_and_prints_table(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--smoke", "--duration", "1", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "5g/seed7" in out and "emulated/seed8" in out

    def test_ablation_name_still_dispatches(self, capsys):
        from repro.cli import main

        code = main(["sweep", "proactive", "--duration", "2", "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proactive grants" in out


class TestAdaptiveChunksize:
    def test_splits_work_four_ways_per_job(self):
        assert _adaptive_chunksize(32, jobs=2) == 4
        assert _adaptive_chunksize(100, jobs=4) == 6

    def test_never_below_one(self):
        assert _adaptive_chunksize(1, jobs=8) == 1
        assert _adaptive_chunksize(0, jobs=2) == 1


class TestInFlightDedup:
    def _dup_specs(self):
        # Three distinct points, each appearing twice under its own label.
        singles = _specs(3)
        return [
            RunSpec(label=f"{s.label}/{copy}", config=s.config)
            for s in singles
            for copy in ("x", "y")
        ]

    def test_fanout_matches_per_point_runs(self):
        specs = self._dup_specs()
        deduped = run_batch(specs, collect=collect_summary, jobs=2)
        independent = run_batch(
            specs, collect=collect_summary, jobs=2, dedup=False
        )
        assert [r.label for r in deduped] == [s.label for s in specs]
        assert [r.value for r in deduped] == [r.value for r in independent]

    def test_duplicates_share_one_collected_value(self):
        runs = run_batch(self._dup_specs(), collect=collect_summary, jobs=2)
        # Pairs fan out the same object: the point was simulated once.
        for x, y in zip(runs[::2], runs[1::2]):
            assert x.value is y.value

    def test_dedup_off_simulates_per_spec(self):
        runs = run_batch(
            self._dup_specs(), collect=collect_summary, jobs=2, dedup=False
        )
        for x, y in zip(runs[::2], runs[1::2]):
            assert x.value is not y.value
            assert x.value == y.value

    def test_trace_batches_dedup_deterministically(self):
        specs = self._dup_specs()
        deduped = run_batch_traces(specs, jobs=2)
        independent = run_batch_traces(specs, jobs=2, dedup=False)
        for a, b in zip(deduped, independent):
            assert a.label == b.label
            assert list(a.value.packets) == list(b.value.packets)
            assert list(a.value.frames) == list(b.value.frames)


class TestExecutorLifecycle:
    def test_pool_shut_down_when_collect_raises(self):
        ex = BatchExecutor(jobs=2)
        with pytest.raises(RuntimeError, match="collector failure"):
            run_batch(_specs(2), collect=_boom, executor=ex)
        assert ex._pool is None  # map's error path reaped the pool

    def test_map_error_closes_warm_pool(self):
        ex = BatchExecutor(jobs=2)
        ex.map(_square, [1, 2, 3])
        assert ex._pool is not None
        with pytest.raises(TypeError):
            ex.map(_square, [1, "two", 3])
        assert ex._pool is None  # error path must not leak the pool

    def test_close_is_idempotent(self):
        ex = BatchExecutor(jobs=2)
        ex.map(_square, [1])
        ex.close()
        ex.close()
        assert ex._pool is None

    def test_worker_crash_names_the_batch_and_reaps_the_pool(self):
        ex = BatchExecutor(jobs=2)
        ex.map(_square, [1, 2, 3])
        workers = list(ex._pool._processes.values())
        specs = _specs(2, duration_s=0.2)
        with pytest.raises(WorkerCrashError) as info:
            run_batch(specs, collect=_die, executor=ex)
        assert isinstance(info.value, RuntimeError)
        assert info.value.labels == ["seed1", "seed2"]
        assert "seed1, seed2" in str(info.value)
        assert ex._pool is None
        assert not any(worker.is_alive() for worker in workers)
        # The next batch forks a fresh pool and runs normally.
        with ex:
            runs = run_batch(specs, collect=collect_qoe, executor=ex)
        assert [r.label for r in runs] == ["seed1", "seed2"]

    def test_worker_crash_on_a_fresh_pool(self):
        with pytest.raises(WorkerCrashError, match="seed1, seed2"):
            run_batch(_specs(2, duration_s=0.2), collect=_die, jobs=2)


def _square(x):
    return x * x


def _boom(result):
    raise RuntimeError("collector failure")


def _die(result):
    os._exit(1)  # a worker killed mid-batch, as by the OOM killer


class TestBatchExecutor:
    def test_reuse_across_phases(self):
        specs = _specs(2)
        with BatchExecutor(jobs=2) as ex:
            first = run_batch(specs, collect=collect_summary, executor=ex)
            second = run_batch(specs, collect=collect_summary, executor=ex)
        assert ex.phases_run == 2
        assert [r.value for r in first] == [r.value for r in second]

    def test_serial_when_single_job(self):
        with BatchExecutor(jobs=1) as ex:
            runs = run_batch(_specs(2), collect=collect_summary, executor=ex)
            assert ex._pool is None  # jobs=1 never forks a pool
        assert len(runs) == 2
        assert ex.phases_run == 1

    def test_matches_plain_run_batch(self):
        specs = _specs(2)
        plain = run_batch(specs, collect=collect_summary, jobs=1)
        with BatchExecutor(jobs=2) as ex:
            pooled = run_batch(specs, collect=collect_summary, executor=ex)
        assert [r.value for r in plain] == [r.value for r in pooled]


class TestTraceTransports:
    def test_all_transports_return_identical_traces(self):
        specs = _specs(2, duration_s=1.0)
        baseline = run_batch(specs, collect=collect_trace, jobs=1)
        fields = ("packets", "transport_blocks", "grants", "frames",
                  "probes", "sync_exchanges")
        for transport in TRACE_TRANSPORTS:
            runs = run_batch_traces(specs, jobs=2, transport=transport)
            assert [r.label for r in runs] == [s.label for s in specs]
            for ref, got in zip(baseline, runs):
                for field in fields:
                    assert list(getattr(ref.value, field)) == list(
                        getattr(got.value, field)
                    ), (transport, field)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            run_batch_traces(_specs(1), transport="carrier-pigeon")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="speedup needs at least 2 cores")
def test_parallel_speedup_on_multicore():
    specs = _specs(4, duration_s=4.0)
    start = time.perf_counter()
    run_batch(specs, collect=collect_summary, jobs=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    run_batch(specs, collect=collect_summary, jobs=min(4, os.cpu_count()))
    parallel_s = time.perf_counter() - start
    assert serial_s / parallel_s >= 1.5
