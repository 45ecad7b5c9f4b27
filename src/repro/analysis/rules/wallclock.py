"""ATH001 — no wall-clock reads inside the simulator.

One ``time.time()`` in a component makes runs irreproducible: event payloads
start depending on host load.  All timing must come from ``Simulator.now``
(integer microseconds).  Benchmark harnesses are exempt via config.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..common import LintContext, dotted_name
from ..findings import Finding
from ..registry import Rule, register

BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """Ban host-clock reads and sleeps inside simulator code."""

    id = "ATH001"
    name = "wall-clock-ban"
    summary = "wall-clock reads break run-to-run determinism"
    hint = "use Simulator.now (integer microseconds) instead of the host clock"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = dotted_name(node.func, ctx.imports)
            if target in BANNED_CALLS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call `{target}()` in simulator code",
                )
