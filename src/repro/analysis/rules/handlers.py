"""ATH006 — event-handler hygiene on the simulation engine.

Callbacks handed to ``Simulator.at`` / ``post`` / ``call_later`` / ``every``
fire later, with zero arguments, in event-queue order.  Three patterns break
that contract:

* passing a *call* instead of a callable (``sim.at(t, self.tick())`` runs
  ``tick`` immediately — outside the event queue — and schedules its return
  value);
* a lambda with non-defaulted parameters (the engine invokes with no
  arguments, so it raises at fire time; loop captures must use the
  ``lambda p=packet: ...`` default-binding form);
* scheduling a handler that declares ``global`` (mutating module state from
  inside the event loop bypasses the queue's ordering guarantees and leaks
  state across runs in one process).

``sim/engine.py`` itself is exempt via config — it *is* the queue API.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List

from ..common import LintContext, terminal_name
from ..findings import Finding
from ..registry import Rule, register

SCHEDULING_METHODS = frozenset({"at", "post", "call_later", "every"})
# The receiver must look like a simulator/engine for `.at(...)` & friends to
# count as scheduling; keeps unrelated `.at()` APIs out of scope.
RECEIVER_MARKERS = ("sim", "engine", "scheduler")


def _is_scheduling_call(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr not in SCHEDULING_METHODS:
        return False
    receiver = terminal_name(node.func.value)
    if receiver is None:
        return False
    receiver = receiver.lstrip("_").lower()
    return any(marker in receiver for marker in RECEIVER_MARKERS)


def _callback_arg(node: ast.Call) -> ast.expr:
    if len(node.args) >= 2:
        return node.args[1]
    for kw in node.keywords:
        if kw.arg == "callback":
            return kw.value
    return None  # type: ignore[return-value]


def _global_declaring_defs(nodes: List[ast.AST]) -> Dict[str, List[int]]:
    """Names of function defs that contain a ``global`` statement."""
    out: Dict[str, List[int]] = {}
    if not any(isinstance(node, ast.Global) for node in nodes):
        return out
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(s, ast.Global) for s in ast.walk(node)):
                out.setdefault(node.name, []).append(node.lineno)
    return out


@register
class HandlerHygieneRule(Rule):
    """Police how callbacks are handed to the event queue."""

    id = "ATH006"
    name = "handler-hygiene"
    summary = "scheduled callbacks must defer cleanly through the event queue"
    hint = "pass a zero-argument callable; bind loop state via lambda defaults"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        global_defs = _global_declaring_defs(ctx.nodes)
        for node in ctx.nodes:
            if not (isinstance(node, ast.Call) and _is_scheduling_call(node)):
                continue
            cb = _callback_arg(node)
            if cb is None:
                continue
            if isinstance(cb, ast.Call):
                yield self.finding(
                    ctx,
                    cb.lineno,
                    cb.col_offset,
                    "callback is invoked immediately instead of scheduled "
                    f"(`{ast.unparse(cb)}`)",
                    hint="pass the callable itself, or wrap it in a lambda",
                )
            elif isinstance(cb, ast.Lambda):
                undefaulted = (
                    len(cb.args.args)
                    + len(cb.args.posonlyargs)
                    - len(cb.args.defaults)
                ) + sum(1 for d in cb.args.kw_defaults if d is None)
                if undefaulted > 0:
                    yield self.finding(
                        ctx,
                        cb.lineno,
                        cb.col_offset,
                        "scheduled lambda takes arguments the engine never "
                        "passes (fires with zero args)",
                    )
            elif isinstance(cb, ast.Name) and cb.id in global_defs:
                yield self.finding(
                    ctx,
                    cb.lineno,
                    cb.col_offset,
                    f"scheduled handler `{cb.id}` mutates module state via "
                    "`global`",
                    hint="carry state on an object and mutate it inside the "
                    "handler's own event",
                )
