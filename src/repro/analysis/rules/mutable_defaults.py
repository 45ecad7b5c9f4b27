"""ATH005 — no mutable default arguments.

A ``def f(acc=[])`` default is created once and shared by every call — state
leaks across calls and, in a simulator, across *runs* within one process,
which is exactly the cross-run contamination the determinism discipline
forbids.  Use ``None`` (or ``dataclasses.field(default_factory=...)``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..common import LintContext, dotted_name
from ..findings import Finding
from ..registry import Rule, register

MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.deque",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
    }
)


def _mutable_default(node: ast.expr) -> Optional[str]:
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        target = dotted_name(node.func)
        if target in MUTABLE_CONSTRUCTORS:
            return target
    return None


@register
class MutableDefaultRule(Rule):
    """Flag list/dict/set (and friends) used as argument defaults."""

    id = "ATH005"
    name = "mutable-default"
    summary = "mutable defaults share state across calls and runs"
    hint = "default to None (or dataclasses.field(default_factory=...))"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        for node in ctx.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            where = (
                f"lambda at line {node.lineno}"
                if isinstance(node, ast.Lambda)
                else f"`{node.name}()`"
            )
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is None:
                    continue
                kind = _mutable_default(default)
                if kind:
                    yield self.finding(
                        ctx,
                        default.lineno,
                        default.col_offset,
                        f"mutable default ({kind}) in {where}",
                    )
