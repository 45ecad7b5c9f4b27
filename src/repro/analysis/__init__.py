"""athena-lint: static analysis enforcing simulator determinism invariants.

The reproduction's findings hinge on exact event ordering — 2.5 ms TDD slot
arithmetic and 10 ms HARQ steps — which is why all simulation time is integer
microseconds (:mod:`repro.sim.units`) and every random draw comes from a named
substream (:mod:`repro.sim.random`).  This package machine-checks those
conventions so future changes cannot silently erode them:

========  ====================================================================
Rule      Invariant
========  ====================================================================
ATH001    No wall-clock reads (``time.time``/``sleep``, ``datetime.now``, ...)
ATH002    No global RNG draws — inject a ``numpy.random.Generator``
ATH003    Time/rate identifiers carry unit suffixes; no bare float literals
          mixed into ``*_us`` arithmetic (use ``units.ms()``/``seconds()``)
ATH004    No float ``==``/``!=`` on simulation timestamps
ATH005    No mutable default arguments
ATH006    Scheduled callbacks go through the event queue API cleanly
ATH007    Trace record lists are sink-managed: no ``trace.<records>.append``
          outside the trace package
ATH008    Lambdas scheduled inside loops bind loop state by value
ATH009    Record indexes are keyed by call (``(call_id, packet_id)``), not
          by a bare per-call id that collides across a multi-call cell
ATH010    No per-record ``json.dumps``/``dataclasses.asdict`` inside loops
ATH100    Unit tags flow consistently across assignments, calls, and returns
          (whole-program dataflow over the unit-suffix discipline)
ATH102    No two same-instant scheduled callbacks mutate shared state
          without an explicit ``priority=`` ordering them
========  ====================================================================

Findings can be suppressed per line with ``# athena-lint: disable=ATH00x``
(comma-separate several ids, or use ``all``), per file with
``# athena-lint: disable-file=ATH00x``.

Run it as ``athena-repro lint``, ``python -m repro.analysis``, or through the
pytest gate in ``tests/test_lint_clean.py``.
"""

from __future__ import annotations

from .config import LintConfig, load_config
from .findings import Finding
from .graph import ProjectGraph
from .registry import RULES, all_rules, get_rule, project_rules
from .runner import lint_paths, lint_project, lint_source, lint_sources, main
from .sarif import render_sarif, sarif_log

__all__ = [
    "Finding",
    "LintConfig",
    "ProjectGraph",
    "RULES",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_project",
    "lint_source",
    "lint_sources",
    "load_config",
    "main",
    "project_rules",
    "render_sarif",
    "sarif_log",
]
