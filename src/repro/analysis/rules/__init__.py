"""The ATH001–ATH010 (per-file) and ATH100, ATH102 (project) rules.

Importing this package registers every rule with :mod:`repro.analysis.registry`.
"""

from __future__ import annotations

from . import (  # noqa: F401  (import for registration side effect)
    call_scope,
    event_graph,
    float_eq,
    handlers,
    loop_capture,
    mutable_defaults,
    rng,
    serialization,
    trace_append,
    unit_flow,
    unit_suffix,
    wallclock,
)
