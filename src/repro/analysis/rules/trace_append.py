"""ATH007 — telemetry records go through a sink, not raw trace lists.

Simulator components must emit records via the :class:`repro.trace.bus.TraceSink`
layer: ``sink.emit(record)``, where the record's class names its channel.
Direct ``trace.<records>.append(...)`` couples the emitter to in-memory
retention: the record silently bypasses
the :class:`~repro.core.streaming.tap.AnalysisTap`, so live analysis and
the mitigations it feeds never see it.  Only the trace package itself (the
sink and the JSONL loader) may touch the
:class:`~repro.trace.schema.Trace` record lists.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..common import LintContext
from ..findings import Finding
from ..registry import Rule, register

#: The Trace record-list attributes (one per sink channel): a copy of
#: ``CHANNEL_FIELDS.values()`` in :mod:`repro.trace.bus`, which a test pins.
TRACE_RECORD_FIELDS = frozenset(
    {
        "packets",
        "transport_blocks",
        "grants",
        "frames",
        "probes",
        "sync_exchanges",
    }
)

MUTATORS = frozenset({"append", "extend"})


@register
class TraceAppendRule(Rule):
    """Flag ``<x>.<records>.append/extend(...)`` outside ``repro/trace/``."""

    id = "ATH007"
    name = "trace-append"
    summary = "record lists are sink-managed; components must not append"
    hint = "emit through the TraceSink layer: sink.emit(record)"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in MUTATORS):
                continue
            holder = func.value
            if not (
                isinstance(holder, ast.Attribute)
                and holder.attr in TRACE_RECORD_FIELDS
            ):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"direct `.{holder.attr}.{func.attr}(...)` on a trace "
                "record list",
            )
