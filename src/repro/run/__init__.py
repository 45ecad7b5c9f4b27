"""Composable scenario runner: builder stages, registries, batch executor.

The assembly logic of :func:`repro.app.session.run_session` lives here as
pluggable stages (:mod:`repro.run.builder`), with the scenario/result data
contract in :mod:`repro.run.scenario` and multi-process sweep execution in
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
    DEFAULT_PIPELINE,
    CallContext,
    SessionBuilder,
    SessionContext,
    make_channel,
    make_estimator,
    register_access,
    register_analysis,
    register_channel,
    register_estimator,
    register_stage,
    run_session,
)
from .scenario import (
    KNOWN_ACCESS,
    KNOWN_CHANNELS,
    KNOWN_ESTIMATORS,
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
    "DEFAULT_PIPELINE",
    "KNOWN_ACCESS",
    "KNOWN_CHANNELS",
    "KNOWN_ESTIMATORS",
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
    "make_estimator",
    "register_access",
    "register_analysis",
    "register_channel",
    "register_estimator",
    "register_stage",
    "run_batch",
    "run_batch_traces",
    "run_session",
    "sweep_grid",
]
