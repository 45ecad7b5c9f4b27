"""Scenario runner: session builder, scenario cache, batch executor.

The assembly logic of :func:`run_session` lives here as one fixed pipeline
of stages (:mod:`repro.run.builder`), with the scenario/result data
contract in :mod:`repro.run.scenario`, the content-addressed result cache
in :mod:`repro.run.cache` and multi-process sweep execution in
:mod:`repro.run.batch`.
"""

from .batch import (
    BatchExecutor,
    BatchRun,
    RunSpec,
    WorkerCrashError,
    collect_call_summaries,
    collect_qoe,
    collect_summary,
    collect_trace,
    collect_trace_payload,
    run_batch,
    run_batch_traces,
    sweep_grid,
)
from .cache import (
    DEFAULT_CACHE_DIR,
    CachedSessionResult,
    ScenarioCache,
    code_version_token,
    scenario_fingerprint,
)
from .builder import (
    CallContext,
    SessionBuilder,
    SessionContext,
    make_channel,
    run_session,
)
from .scenario import (
    KNOWN_ACCESS,
    KNOWN_CHANNELS,
    MONITORED_UE_ID,
    CallResult,
    CallSpec,
    ScenarioConfig,
    SessionResult,
)

__all__ = [
    "BatchExecutor",
    "BatchRun",
    "CachedSessionResult",
    "CallContext",
    "CallResult",
    "CallSpec",
    "KNOWN_ACCESS",
    "KNOWN_CHANNELS",
    "DEFAULT_CACHE_DIR",
    "MONITORED_UE_ID",
    "RunSpec",
    "ScenarioCache",
    "ScenarioConfig",
    "SessionBuilder",
    "SessionContext",
    "SessionResult",
    "WorkerCrashError",
    "collect_call_summaries",
    "collect_qoe",
    "collect_summary",
    "code_version_token",
    "collect_trace",
    "collect_trace_payload",
    "scenario_fingerprint",
    "make_channel",
    "run_batch",
    "run_batch_traces",
    "run_session",
    "sweep_grid",
]
