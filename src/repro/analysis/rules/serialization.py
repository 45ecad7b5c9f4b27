"""ATH010 — no per-record serialization calls inside hot loops.

A ``json.dumps`` (or ``dataclasses.asdict``) per record inside a loop is
the pattern the columnar trace format exists to kill: every record pays
encoder start-up and a full attribute walk, and the surrounding loop turns
an O(batch) write into O(records) calls.  Hot paths must hand whole
batches to the batch encoder (:func:`repro.trace.io.encode_jsonl_batch` /
:meth:`~repro.trace.columnar.ChannelStore.json_rows`) instead.  The batch
encoder itself and the SARIF exporter (cold path, spec-driven nesting) are
exempt via config.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..common import LintContext, dotted_name
from ..findings import Finding
from ..registry import Rule, register

#: Per-record serializers that must not run record-at-a-time in a loop.
BANNED_CALLS = frozenset({"json.dumps", "dataclasses.asdict"})

#: AST nodes that repeat their body/element expression per item.
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
               ast.DictComp, ast.GeneratorExp)


def _loop_parents(tree: ast.AST) -> dict:
    """Map each node to its nearest enclosing loop node (or None)."""
    nearest: dict = {}

    def visit(node: ast.AST, loop: Optional[ast.AST]) -> None:
        nearest[node] = loop
        child_loop = node if isinstance(node, _LOOP_NODES) else loop
        for child in ast.iter_child_nodes(node):
            visit(child, child_loop)

    visit(tree, None)
    return nearest


@register
class PerRecordSerializationRule(Rule):
    """Flag ``json.dumps``/``dataclasses.asdict`` calls inside loops."""

    id = "ATH010"
    name = "per-record-serialization"
    summary = "per-record dumps/asdict in a loop defeats batch encoding"
    hint = (
        "collect the rows and encode once per batch "
        "(repro.trace.io.encode_jsonl_batch)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        nearest_loop = _loop_parents(ctx.tree)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = dotted_name(node.func, ctx.imports)
            if target not in BANNED_CALLS:
                continue
            if nearest_loop.get(node) is None:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"per-record `{target}()` inside a loop",
            )
