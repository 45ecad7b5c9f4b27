"""ATH004 — no float equality on simulation timestamps.

Simulation time is integer microseconds precisely so ``==`` on timestamps is
exact.  The moment one side passes through float math (``us_to_ms``, a
division, a float literal, or a ``*_ms``/``*_s`` analytics value), equality
becomes rounding-dependent and slot/HARQ coincidence checks silently stop
firing.  Compare in integer microseconds, or use an explicit tolerance.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..common import LintContext, terminal_name
from ..findings import Finding
from ..registry import Rule, register
from .unit_suffix import TIME_WORDS

# Unit tokens that mark a name as a *time* quantity.
TIME_UNIT_TOKENS = frozenset({"us", "ms", "ns", "s", "sec", "secs", "seconds"})
FLOAT_TIME_TOKENS = frozenset({"ms", "s", "sec", "secs", "seconds"})
FLOAT_CONVERSIONS = frozenset({"us_to_ms", "us_to_sec"})


def _name_tokens(node: ast.expr) -> Optional[list]:
    name = terminal_name(node)
    if name is None:
        return None
    return name.lstrip("_").split("_")


def is_time_like(node: ast.expr) -> bool:
    """A name/attribute/call that denotes a simulation time value."""
    if isinstance(node, ast.Call):
        fn = terminal_name(node.func)
        return fn in FLOAT_CONVERSIONS
    tokens = _name_tokens(node)
    if not tokens:
        return False
    if any(t in TIME_WORDS for t in tokens):
        return True
    # A unit token alone (a variable literally named `s` or `ms`) names no
    # quantity; require a `<what>_<unit>` shape.
    return len(tokens) >= 2 and any(t in TIME_UNIT_TOKENS for t in tokens)


def is_float_valued(node: ast.expr) -> bool:
    """Conservatively: expressions that are float by construction here."""
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in FLOAT_CONVERSIONS
    tokens = _name_tokens(node)
    if tokens and len(tokens) >= 2:
        # *_ms / *_s values are float milliseconds/seconds by convention.
        return tokens[-1] in FLOAT_TIME_TOKENS
    return False


@register
class FloatTimestampEqualityRule(Rule):
    """Flag ``==``/``!=`` where a timestamp meets float-valued math."""

    id = "ATH004"
    name = "float-timestamp-eq"
    summary = "float equality on timestamps is rounding-dependent"
    hint = "compare integer microseconds, or use an explicit tolerance"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if not any(is_time_like(o) for o in operands):
                continue
            if not any(is_float_valued(o) for o in operands):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                "float equality on a simulation time value",
            )
