"""ATH009 — record indexes must be scoped by call in a multi-call cell.

Since the multi-call refactor, one cell hosts N calls and each call owns a
private :class:`~repro.trace.ids.IdSpace`: ``packet_id``/``frame_id``
restart at 1 *per call*, and TB/grant ids are shared cell-wide.  Building
a dict index over a record collection keyed by the bare id —
``{p.packet_id: p for p in trace.packets}`` — silently collapses records
from different calls onto the same key when the collection is a merged
cell view.  The fix is to scope the key (``(call_id, packet_id)``,
``(ue_id, tb_id)``) or to index a per-call view
(:meth:`~repro.trace.schema.Trace.for_call` or a
:class:`~repro.core.streaming.scoped.CallScopedOperator`).

The rule flags dict comprehensions and ``dict(...)`` generator calls whose
key is a bare record-id attribute; a tuple key that includes ``call_id``
or ``ue_id`` is the sanctioned scoped form.  The trace package itself is
exempt via configuration: it owns the per-call views those indexes are
supposed to be built from.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..common import LintContext
from ..findings import Finding
from ..registry import Rule, register

#: Record-identifier attributes allocated per IdSpace (collide across calls).
RECORD_ID_ATTRS = frozenset(
    {"packet_id", "frame_id", "tb_id", "grant_id", "probe_id"}
)

#: Key components that scope an index to one call's records.
SCOPE_ATTRS = frozenset({"call_id", "ue_id"})


def _terminal_attr(node: ast.expr) -> Optional[str]:
    """The attribute/name the key expression ends in, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _bare_record_id(key: ast.expr) -> Optional[str]:
    """The unscoped record-id attribute a key uses, or None if scoped.

    A plain ``x.packet_id`` key is unscoped; a tuple key is fine as soon
    as any component names ``call_id``/``ue_id``.
    """
    if isinstance(key, ast.Attribute) and key.attr in RECORD_ID_ATTRS:
        return key.attr
    if isinstance(key, ast.Tuple):
        names = [_terminal_attr(el) for el in key.elts]
        if any(name in SCOPE_ATTRS for name in names if name):
            return None
        for name in names:
            if name in RECORD_ID_ATTRS:
                return name
    return None


@register
class CallScopeRule(Rule):
    """Flag record-id dict indexes that ignore the call/UE dimension."""

    id = "ATH009"
    name = "call-scope"
    summary = "record indexes keyed by bare ids collide across calls"
    hint = (
        "scope the key by call — (call_id, <id>) / (ue_id, <id>) — or index "
        "a per-call view (Trace.for_call, CallScopedOperator)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        for node in ctx.nodes:
            key = self._index_key(node)
            if key is None:
                continue
            attr = _bare_record_id(key)
            if attr is None:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"record index keyed by bare `{attr}` — per-call id spaces "
                "make this key collide across a multi-call cell",
            )

    @staticmethod
    def _index_key(node: ast.AST) -> Optional[ast.expr]:
        """The key expression of a dict-index construction, if this is one."""
        if isinstance(node, ast.DictComp):
            return node.key
        # dict((r.packet_id, r) for r in ...) builds the same index.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.GeneratorExp)
            and isinstance(node.args[0].elt, ast.Tuple)
            and len(node.args[0].elt.elts) == 2
        ):
            return node.args[0].elt.elts[0]
        return None
