"""ATH008 — late-binding loop captures in scheduled callbacks.

A lambda scheduled inside a loop closes over the loop *variable*, not its
current value: every callback fires with the variable's final value,

::

    for packet in burst:
        sim.at(t, lambda: ran.send_uplink(1, packet))   # all send the last!

The engine invokes callbacks long after the loop finished, so the bug never
shows up at scheduling time — only as N identical events.  The fix is the
default-binding idiom, which snapshots the value at definition time::

    for packet in burst:
        sim.at(t, lambda p=packet: ran.send_uplink(1, p))

This rule flags scheduling calls (``sim.at`` / ``post`` / ``call_later`` /
``every`` on a simulator-like receiver, as in ATH006) whose lambda callback reads an
enclosing loop variable in its *body*.  Loop variables appearing only in the
lambda's default expressions are the fix, not the bug, and are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..common import LintContext
from ..findings import Finding
from ..registry import Rule, register
from .handlers import _callback_arg, _is_scheduling_call


def _target_names(target: ast.expr) -> Iterator[str]:
    """Names bound by a ``for`` target (handles tuple unpacking)."""
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _lambda_param_names(node: ast.Lambda) -> Set[str]:
    args = node.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg)
    if args.kwarg:
        params.append(args.kwarg)
    return {p.arg for p in params}


def _body_reads(node: ast.Lambda) -> Set[str]:
    """Names the lambda *body* reads (default expressions excluded)."""
    shadowed = _lambda_param_names(node)
    return {
        n.id
        for n in ast.walk(node.body)
        if isinstance(n, ast.Name)
        and isinstance(n.ctx, ast.Load)
        and n.id not in shadowed
    }


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "LoopCaptureRule", ctx: LintContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._loop_vars: List[Set[str]] = []

    # A function boundary re-binds nothing loop-related by itself, but a
    # nested def's body runs later with its own scope; captured loop vars
    # are still late-bound, so the loop-variable stack is kept as is.

    def visit_For(self, node: ast.For) -> None:
        self._loop_vars.append(set(_target_names(node.target)))
        for child in node.body + node.orelse:
            self.visit(child)
        self._loop_vars.pop()
        # The iterable expression runs outside the loop body.
        self.visit(node.iter)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_vars and _is_scheduling_call(node):
            callback = _callback_arg(node)
            if isinstance(callback, ast.Lambda):
                captured = _body_reads(callback)
                for scope in self._loop_vars:
                    hit = sorted(captured & scope)
                    if hit:
                        names = ", ".join(f"`{n}`" for n in hit)
                        self.findings.append(
                            self.rule.finding(
                                self.ctx,
                                callback.lineno,
                                callback.col_offset,
                                "scheduled lambda captures loop "
                                f"variable{'s' if len(hit) > 1 else ''} "
                                f"{names} by reference — every callback "
                                "fires with the final value",
                            )
                        )
                        break
        self.generic_visit(node)


@register
class LoopCaptureRule(Rule):
    """Catch the classic late-binding closure bug at the event queue."""

    id = "ATH008"
    name = "loop-capture"
    summary = "lambdas scheduled in loops must bind loop state by value"
    hint = "snapshot the value with a default: `lambda p=packet: ...`"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        visitor = _Visitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings
