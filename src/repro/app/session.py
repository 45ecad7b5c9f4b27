"""End-to-end call sessions: the paper's experiments as one config object.

Historically this module held the whole session-assembly monolith.  That
logic now lives in :mod:`repro.run` — :class:`~repro.run.builder.SessionBuilder`
assembles the access network, call path, endpoints, and mitigations as one
fixed pipeline of stages — and this module re-exports the stable public
surface so ``from repro.app.session import ScenarioConfig, run_session``
keeps working unchanged.
"""

from __future__ import annotations

from ..run.builder import run_session
from ..run.scenario import (
    MONITORED_UE_ID,
    ScenarioConfig,
    SessionResult,
)

__all__ = [
    "MONITORED_UE_ID",
    "ScenarioConfig",
    "SessionResult",
    "run_session",
]
