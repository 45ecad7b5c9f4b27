"""Deterministic multi-process batch execution of scenario runs.

Experiment sweeps (Fig 7's two access networks, the ablation grids, seed
sweeps) are embarrassingly parallel: every run is an independent simulator
with its own RNG streams and — since :class:`~repro.run.builder.SessionBuilder`
gives each session a private :class:`~repro.trace.ids.IdSpace` — its own id
allocation.  :func:`run_batch` exploits that: it executes a list of
:class:`RunSpec` across worker processes and returns the collected outputs
*in spec order*, so a batch is a drop-in replacement for a serial loop and
produces bit-identical results at any worker count (including ``jobs=1``,
which runs in-process without any multiprocessing machinery).

A full :class:`~repro.run.scenario.SessionResult` holds live simulator
objects and is deliberately not shipped between processes; instead each
worker applies a *collector* — a picklable module-level function reducing
the result to what the caller needs (a QoE summary, a trace, a stats row).
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..media.quality import QoeSummary
from ..trace.schema import Trace
from .builder import run_session
from .cache import (
    ScenarioCache,
    cache_entry_from_result,
    rehydrate_result,
    scenario_fingerprint,
)
from .scenario import ScenarioConfig, SessionResult

Collector = Callable[[SessionResult], Any]


@dataclass
class RunSpec:
    """One batch entry: a label (stable identifier) and its scenario."""

    label: str
    config: ScenarioConfig


@dataclass
class BatchRun:
    """One batch output: the spec's label and the collector's value."""

    label: str
    value: Any


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-batch (killed, crashed, or exited).

    Raised in place of the bare :class:`BrokenProcessPool`, naming the
    labels of the specs that batch dispatched.  The broken pool has already
    been reaped; the next batch forks a fresh one.
    """

    def __init__(self, labels: Sequence[str]) -> None:
        self.labels = list(labels)
        super().__init__(
            "a batch worker process died while running "
            f"{len(self.labels)} scenario(s): {', '.join(self.labels)}"
        )


# ----------------------------------------------------------------------
# Collectors (module-level so worker processes can unpickle them)
# ----------------------------------------------------------------------
def collect_qoe(result: SessionResult) -> QoeSummary:
    """Reduce a run to its Fig 7-style QoE aggregation."""
    return result.qoe()


def collect_trace(result: SessionResult) -> Trace:
    """Keep the full trace (largest payload; prefer slimmer collectors)."""
    return result.trace


def collect_summary(result: SessionResult) -> Dict[str, float]:
    """Reduce a run to one row of headline statistics."""
    qoe = result.qoe()
    medians = qoe.medians()
    return {
        "packets": float(len(result.trace.packets)),
        "frames": float(len(result.trace.frames)),
        "bitrate_kbps": medians["bitrate_kbps"],
        "fps": medians["fps"],
        "ssim": medians["ssim"],
        "stalls": float(qoe.stall_count),
        # Frames diagnosed by the live streaming analytics (0 when off).
        "diagnosed": float(sum(result.diagnosis.cause_counts.values()))
        if result.diagnosis is not None
        else 0.0,
    }


def collect_call_summaries(result: SessionResult) -> List[Dict[str, float]]:
    """Reduce a run to one statistics row per call (multi-call cells).

    Single-call sessions produce a one-element list, so the collector is
    uniform across both shapes of :class:`~repro.run.scenario.SessionResult`.
    """
    rows: List[Dict[str, float]] = []
    for call in result.calls:
        qoe = call.qoe()
        medians = qoe.medians()
        rows.append(
            {
                "call_id": float(call.call_id),
                "ue_id": float(call.ue_id),
                "packets": float(len(call.trace.packets)),
                "frames": float(len(call.trace.frames)),
                "bitrate_kbps": medians["bitrate_kbps"],
                "fps": medians["fps"],
                "ssim": medians["ssim"],
                "stalls": float(qoe.stall_count),
                "mean_frame_delay_ms": qoe.mean_frame_delay_ms,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Trace transport (columnar payloads instead of pickled record graphs)
# ----------------------------------------------------------------------
def collect_trace_payload(result: SessionResult) -> bytes:
    """Reduce a run to its trace as a compact columnar payload.

    A worker returns one flat ``bytes`` blob (column buffers plus intern
    tables, see :mod:`repro.trace.columnar`) instead of pickling the whole
    record graph object by object — the parent rebuilds a lazy
    :class:`~repro.trace.columnar.ColumnarTrace` with
    :func:`~repro.trace.columnar.trace_from_payload`.
    """
    from ..trace.columnar import encode_payload

    return encode_payload(result.trace)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _adaptive_chunksize(n_tasks: int, jobs: int) -> int:
    """Tasks per worker dispatch: ~4 dispatch rounds per worker.

    ``chunksize=1`` maximizes load-balance granularity but pays one IPC
    round-trip per task; one quarter of an even split amortizes dispatch
    while still letting fast workers steal from slow ones.
    """
    return max(1, n_tasks // (4 * jobs))


def _run_one(task: Tuple[RunSpec, Collector]) -> Any:
    spec, collect = task
    return collect(run_session(spec.config))


def _run_cache_entry(config: ScenarioConfig) -> Tuple[bytes, bytes]:
    """Worker for cache-backed batches: simulate, return the cache value.

    The worker ships ``(ATHC2 payload, JSON summary)`` and the *parent*
    stores the entry and applies the collector to the rehydrated result,
    so cache hits and misses flow through the identical rehydration path
    (and the collector need not be picklable).
    """
    return cache_entry_from_result(run_session(config))


class BatchExecutor:
    """A reusable warm worker pool for multi-phase sweeps.

    ``run_batch`` forks a fresh :class:`ProcessPoolExecutor` per call;
    a sweep that runs several grid phases (one per access kind, per
    mitigation variant, per figure) pays worker start-up each time.  A
    :class:`BatchExecutor` keeps one pool alive across phases::

        with BatchExecutor(jobs=4) as ex:
            for phase in phases:
                runs = run_batch(phase_specs(phase), executor=ex)

    ``jobs=1`` (or single-task batches) run in-process without ever
    creating a pool.  The pool is created lazily on first parallel use.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self.phases_run = 0  # map() calls served (reuse telemetry/tests)

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        chunksize: Optional[int] = None,
    ) -> List[Any]:
        """Order-preserving map over ``tasks`` on the warm pool.

        If draining the results raises — a worker exception, a worker
        process dying, or a collect callback failing mid-batch — the pool
        is shut down before the exception propagates: a warm pool held
        across sweep phases must not leak its worker processes past a
        failed phase.  The next :meth:`map` call lazily forks a fresh pool.
        """
        self.phases_run += 1
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        if chunksize is None:
            chunksize = _adaptive_chunksize(len(tasks), self.jobs)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            # Warm pools survive between phases by design; make sure an
            # abandoned executor (no close()/with) still tears down its
            # workers at interpreter exit instead of leaking them.
            atexit.register(self.close)
        try:
            return list(self._pool.map(fn, tasks, chunksize=chunksize))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            try:
                atexit.unregister(self.close)
            except Exception:
                pass

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _map_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    labels: Sequence[str],
    jobs: Optional[int],
    executor: Optional[BatchExecutor],
    chunksize: Optional[int],
) -> List[Any]:
    """Dispatch ``tasks`` through the warm pool, a fresh pool, or in-process.

    A worker that dies mid-batch surfaces as :class:`WorkerCrashError`
    naming ``labels`` (one per task).
    """
    try:
        if executor is not None:
            return executor.map(fn, tasks, chunksize=chunksize)
        if jobs is None:
            jobs = os.cpu_count() or 1
        jobs = max(1, min(jobs, len(tasks) or 1))
        if jobs == 1:
            return [fn(task) for task in tasks]
        if chunksize is None:
            chunksize = _adaptive_chunksize(len(tasks), jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # Executor.map preserves input order regardless of completion
            # order, which is what keeps batches drop-in for serial loops.
            return list(pool.map(fn, tasks, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise WorkerCrashError(labels) from exc


def run_batch(
    specs: Sequence[RunSpec],
    collect: Collector = collect_summary,
    jobs: Optional[int] = None,
    *,
    executor: Optional[BatchExecutor] = None,
    chunksize: Optional[int] = None,
    cache: Optional[ScenarioCache] = None,
    dedup: bool = True,
) -> List[BatchRun]:
    """Execute every spec and return collected outputs in spec order.

    ``jobs=None`` uses one worker per CPU (capped at the batch size);
    ``jobs=1`` runs serially in-process.  ``collect`` must be a picklable
    module-level function when more than one worker is used.  ``chunksize``
    defaults to the adaptive :func:`_adaptive_chunksize` split.  Passing a
    warm :class:`BatchExecutor` as ``executor`` reuses its worker pool
    instead of forking a fresh one (``jobs`` is then ignored).

    ``dedup`` (on by default) collapses specs whose *fully-resolved*
    scenarios are identical — an N-seed × toggle grid where some variants
    coincide simulates each unique point once and fans the collected value
    back out to every duplicate index.  Simulation is deterministic, so the
    fanned-out value equals what a per-point run would have produced (a
    determinism test pins this); duplicate labels share one value *object*.

    ``cache`` consults a :class:`~repro.run.cache.ScenarioCache` before
    simulating: hits rehydrate the stored columnar payload, misses simulate
    in the workers, and the parent stores each new entry.  With a cache the
    collector runs in the *parent* on a
    :class:`~repro.run.cache.CachedSessionResult` for hits and misses
    alike, so it must only read the data surface (``trace``, ``qoe()``,
    ``calls``, ``diagnosis``) — true of every module-level collector here —
    and need not be picklable.
    """
    if cache is None and not dedup:
        tasks = [(spec, collect) for spec in specs]
        labels = [spec.label for spec in specs]
        values = _map_tasks(_run_one, tasks, labels, jobs, executor, chunksize)
        return [
            BatchRun(label=spec.label, value=value)
            for spec, value in zip(specs, values)
        ]

    # In-flight dedup: one fingerprint per spec, first occurrence wins.
    keys = [scenario_fingerprint(spec.config) for spec in specs]
    first_index: Dict[str, int] = {}
    for i, key in enumerate(keys):
        if dedup:
            first_index.setdefault(key, i)
        else:  # cache without dedup: every index runs (or hits) on its own
            first_index[f"{key}#{i}"] = i
    if not dedup:
        keys = [f"{key}#{i}" for i, key in enumerate(keys)]

    values_by_key: Dict[str, Any] = {}
    if cache is None:
        unique_tasks = [(specs[i], collect) for i in first_index.values()]
        labels = [spec.label for spec, _ in unique_tasks]
        values = _map_tasks(
            _run_one, unique_tasks, labels, jobs, executor, chunksize
        )
        values_by_key = dict(zip(first_index, values))
    else:
        miss_keys: List[str] = []
        for key, i in first_index.items():
            hit = cache.get_result(specs[i].config, key=key.split("#")[0])
            if hit is None:
                miss_keys.append(key)
            else:
                values_by_key[key] = collect(hit)
        miss_specs = [specs[first_index[key]] for key in miss_keys]
        miss_configs = [spec.config for spec in miss_specs]
        entries = _map_tasks(
            _run_cache_entry, miss_configs, [spec.label for spec in miss_specs],
            jobs, executor, chunksize,
        )
        for key, config, (payload, summary) in zip(
            miss_keys, miss_configs, entries
        ):
            cache.put(key.split("#")[0], payload, summary)
            values_by_key[key] = collect(
                rehydrate_result(config, payload, summary)
            )
        cache.save()
    return [
        BatchRun(label=spec.label, value=values_by_key[key])
        for spec, key in zip(specs, keys)
    ]


def run_batch_traces(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    *,
    executor: Optional[BatchExecutor] = None,
    chunksize: Optional[int] = None,
    cache: Optional[ScenarioCache] = None,
    dedup: bool = True,
) -> List[BatchRun]:
    """Run a sweep collecting the *full trace* of every session.

    Unlike ``run_batch(specs, collect_trace)`` — which pickles each record
    graph across the process boundary — every worker ships one compact
    columnar ``ATHC2`` blob per run and the parent rebuilds lazy
    :class:`~repro.trace.columnar.ColumnarTrace` views.  With a ``cache``,
    the stored entry *is* that payload: hits decode straight from the
    store, misses ship payloads as usual and are stored by the parent.
    """
    from ..trace.columnar import trace_from_payload

    if cache is not None:
        return run_batch(
            specs, collect_trace, jobs, executor=executor,
            chunksize=chunksize, cache=cache, dedup=dedup,
        )
    runs = run_batch(
        specs, collect_trace_payload, jobs, executor=executor,
        chunksize=chunksize, dedup=dedup,
    )
    out: List[BatchRun] = []
    # Deduped batches fan one value object out to every duplicate index;
    # decode each distinct payload once.
    decoded: Dict[int, Trace] = {}
    for run in runs:
        ref = id(run.value)
        if ref not in decoded:
            decoded[ref] = trace_from_payload(run.value)
        out.append(BatchRun(label=run.label, value=decoded[ref]))
    return out


def sweep_grid(
    base: ScenarioConfig,
    seeds: Sequence[int],
    variants: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[RunSpec]:
    """Expand a seed × variant grid into ordered :class:`RunSpec` entries.

    ``variants`` maps a variant name to :func:`dataclasses.replace`
    overrides on ``base``; ``None`` means the single unmodified variant.
    Labels are ``"<variant>/seed<seed>"``, iterated variant-major in the
    given order, so grid output order is deterministic.
    """
    named = variants if variants is not None else {"base": {}}
    specs: List[RunSpec] = []
    for name, overrides in named.items():
        for seed in seeds:
            config = replace(base, seed=seed, **overrides)
            specs.append(RunSpec(label=f"{name}/seed{seed}", config=config))
    return specs
