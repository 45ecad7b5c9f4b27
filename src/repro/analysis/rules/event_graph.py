"""ATH102 — static determinism check for same-timestamp event handlers.

The engine (:mod:`repro.sim.engine`) breaks timestamp ties by priority and
then by insertion order.  Two callbacks registered for the *same* instant
that both mutate the same attribute therefore work — but only as long as
nobody reorders the registration statements.  That is the simulator
analogue of a data race: silent, refactor-triggered, and invisible to
per-file rules.

This rule finds registration pairs that are *provably* simultaneous:

* two ``sim.every(P, cb)`` calls in the same function body with an
  identical period expression (and identical ``start_us``, if given) — both
  first fire at the registration instant plus the same offset, and tick in
  lock-step forever;
* two ``sim.at(T, cb)`` / ``sim.post(T, cb)`` calls (in any mix) in the
  same function body with an identical time expression — a post fires
  exactly where a default-priority ``at`` would;
* two ``sim.call_later(D, cb)`` calls in the same function body with an
  identical delay expression.

If the resolved callbacks' mutation footprints (``self.x = ...``,
``self.buf.append(...)``, one level of ``self.helper()`` indirection)
intersect and the registrations do not carry distinct explicit priorities,
the later site is flagged.  Pairs whose simultaneity cannot be proven are
never reported — the rule prefers silence to noise.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..findings import Finding
from ..graph import ClassInfo, ModuleInfo, ProjectGraph
from ..registry import ProjectRule, register

#: Methods on the Simulator scheduling API, with the index of the callback
#: argument and of the tie-breaking priority argument (None = unsupported).
_SCHED_METHODS: Dict[str, Tuple[int, Optional[int]]] = {
    "at": (1, 2),
    "post": (1, None),
    "call_later": (1, None),
    "every": (1, None),
}

#: Methods whose first argument means the same thing as another's: a
#: ``post`` and an ``at`` at one time expression fire at one instant.
_SAME_CLOCK = {"post": "at"}

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "add",
        "insert",
        "remove",
        "discard",
        "pop",
        "popleft",
        "appendleft",
        "clear",
        "update",
        "setdefault",
    }
)

#: How deep to follow ``self.helper()`` chains when collecting mutations.
_MUTATION_DEPTH = 3


def _receiver_is_sim(func_expr: ast.expr) -> bool:
    """True for ``sim.at`` / ``self._sim.every`` style receivers."""
    if not isinstance(func_expr, ast.Attribute):
        return False
    owner = func_expr.value
    name = owner.attr if isinstance(owner, ast.Attribute) else (
        owner.id if isinstance(owner, ast.Name) else None
    )
    if name is None:
        return False
    return name == "sim" or name.endswith("_sim") or name == "simulator"


def _fingerprint(node: Optional[ast.expr]) -> str:
    """Location-free structural identity of an expression."""
    if node is None:
        return "<none>"
    return ast.dump(node, annotate_fields=False, include_attributes=False)


def _attr_root_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` → "a.b.c" with a Name root, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _MutationIndex:
    """Mutation footprints of functions/methods, memoised per module."""

    def __init__(self, graph: ProjectGraph, module: ModuleInfo) -> None:
        self.graph = graph
        self.module = module
        self._memo: Dict[int, Set[str]] = {}

    def of_callback(
        self, callback: ast.expr, owner: Optional[ClassInfo]
    ) -> Set[str]:
        """Attributes a callback expression mutates when invoked."""
        if isinstance(callback, ast.Lambda):
            return self._of_expr_calls(callback.body, owner)
        if (
            isinstance(callback, ast.Attribute)
            and isinstance(callback.value, ast.Name)
            and callback.value.id == "self"
            and owner is not None
        ):
            method = self.graph.class_method(owner, callback.attr)
            if method is not None:
                return self._of_function(method.node, owner, _MUTATION_DEPTH)
            return set()
        if isinstance(callback, ast.Name):
            fn = self.module.functions.get(callback.id)
            if fn is not None:
                return self._of_function(fn.node, None, _MUTATION_DEPTH)
            local = self._local_function(callback.id)
            if local is not None:
                return self._of_function(local, owner, _MUTATION_DEPTH)
        return set()

    def _local_function(self, name: str) -> Optional[ast.AST]:
        for node in ast.walk(self.module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == name:
                    return node
        return None

    def _of_expr_calls(
        self, expr: ast.expr, owner: Optional[ClassInfo]
    ) -> Set[str]:
        """Mutations performed by calls inside a lambda body."""
        mutated: Set[str] = set()
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                root = _attr_root_name(node.func.value)
                if node.func.attr in _MUTATOR_METHODS and root is not None:
                    mutated.add(root)
                    continue
                if root == "self" and owner is not None:
                    method = self.graph.class_method(owner, node.func.attr)
                    if method is not None:
                        mutated |= self._of_function(
                            method.node, owner, _MUTATION_DEPTH - 1
                        )
            elif isinstance(node.func, ast.Name):
                fn = self.module.functions.get(node.func.id)
                if fn is not None:
                    mutated |= self._of_function(fn.node, None, _MUTATION_DEPTH - 1)
        return mutated

    def _of_function(
        self, fn_node: ast.AST, owner: Optional[ClassInfo], depth: int
    ) -> Set[str]:
        key = id(fn_node)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = set()  # cycle guard: recursive helpers terminate
        mutated: Set[str] = set()
        for node in ast.walk(fn_node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._note_target(target, mutated)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                root = _attr_root_name(node.func.value)
                if node.func.attr in _MUTATOR_METHODS and root is not None:
                    mutated.add(root)
                elif (
                    depth > 0
                    and root == "self"
                    and owner is not None
                ):
                    method = self.graph.class_method(owner, node.func.attr)
                    if method is not None and method.node is not fn_node:
                        mutated |= self._of_function(method.node, owner, depth - 1)
        self._memo[key] = mutated
        return mutated

    def _note_target(self, target: ast.expr, mutated: Set[str]) -> None:
        if isinstance(target, ast.Attribute):
            name = _attr_root_name(target)
            if name is not None and not name.startswith("self.__"):
                mutated.add(name)
        elif isinstance(target, ast.Subscript):
            name = _attr_root_name(target.value)
            if name is not None:
                mutated.add(name)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._note_target(elt, mutated)
        # Plain Name targets are locals of the callback — not shared state.


class _SchedSite:
    """One scheduling registration found in a function body."""

    __slots__ = ("call", "kind", "when_fp", "priority_fp", "callback", "mutated")

    def __init__(
        self,
        call: ast.Call,
        kind: str,
        when_fp: str,
        priority_fp: Optional[str],
        callback: ast.expr,
        mutated: Set[str],
    ) -> None:
        self.call = call
        self.kind = kind
        self.when_fp = when_fp
        self.priority_fp = priority_fp
        self.callback = callback
        self.mutated = mutated


@register
class EventGraphRule(ProjectRule):
    """Flag provably-simultaneous callbacks racing on shared attributes."""

    id = "ATH102"
    name = "event-graph"
    summary = (
        "same-timestamp scheduled callbacks mutating shared state without "
        "distinct priorities depend on registration order"
    )
    hint = (
        "give the sim.at() calls distinct priorities, stagger the "
        "registrations, or merge the callbacks into one handler"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for relpath in sorted(graph.by_relpath):
            module = graph.by_relpath[relpath]
            if self.exempt(relpath):
                continue
            yield from self._check_module(graph, module)

    def _check_module(
        self, graph: ProjectGraph, module: ModuleInfo
    ) -> Iterator[Finding]:
        mutations = _MutationIndex(graph, module)
        for fn_node, owner in _functions_with_owner(module):
            yield from self._check_function(module, fn_node, owner, mutations)

    def _check_function(
        self,
        module: ModuleInfo,
        fn_node: ast.AST,
        owner: Optional[ClassInfo],
        mutations: _MutationIndex,
    ) -> Iterator[Finding]:
        groups: Dict[Tuple[str, str], List[_SchedSite]] = {}
        for call in _sched_calls(fn_node):
            kind = call.func.attr  # type: ignore[union-attr]
            cb_index, prio_index = _SCHED_METHODS[kind]
            if len(call.args) <= cb_index:
                continue
            when_fp = _fingerprint(call.args[0])
            if kind == "every":
                start_kw = next(
                    (kw.value for kw in call.keywords if kw.arg == "start_us"),
                    None,
                )
                when_fp += "|start=" + _fingerprint(start_kw)
            priority_fp = self._priority_fp(call, prio_index)
            site = _SchedSite(
                call,
                kind,
                when_fp,
                priority_fp,
                call.args[cb_index],
                mutations.of_callback(call.args[cb_index], owner),
            )
            clock = _SAME_CLOCK.get(kind, kind)
            groups.setdefault((clock, when_fp), []).append(site)
        for sites in groups.values():
            if len(sites) < 2:
                continue
            yield from self._check_group(module, sites)

    def _priority_fp(self, call: ast.Call, prio_index: Optional[int]) -> Optional[str]:
        for kw in call.keywords:
            if kw.arg == "priority":
                return _fingerprint(kw.value)
        if prio_index is not None and len(call.args) > prio_index:
            return _fingerprint(call.args[prio_index])
        return None

    def _check_group(
        self, module: ModuleInfo, sites: List[_SchedSite]
    ) -> Iterator[Finding]:
        for i, later in enumerate(sites):
            for earlier in sites[:i]:
                if earlier.priority_fp != later.priority_fp:
                    continue  # distinct explicit priorities: ordered, fine
                shared = earlier.mutated & later.mutated
                if not shared:
                    continue
                names = ", ".join(f"`{name}`" for name in sorted(shared))
                yield self.project_finding(
                    module.relpath,
                    later.call.lineno,
                    later.call.col_offset,
                    f"same-timestamp sim.{later.kind}() callbacks both mutate "
                    f"{names}; execution order is only insertion order",
                )
                break


def _functions_with_owner(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.AST, Optional[ClassInfo]]]:
    def walk(
        stmts: List[ast.stmt], owner: Optional[ClassInfo]
    ) -> Iterator[Tuple[ast.AST, Optional[ClassInfo]]]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (stmt, owner)
                yield from walk(stmt.body, owner)
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body, module.classes.get(stmt.name))
            elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
                yield from walk(getattr(stmt, "body", []), owner)
                yield from walk(getattr(stmt, "orelse", []) or [], owner)
                yield from walk(getattr(stmt, "finalbody", []) or [], owner)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from walk(handler.body, owner)

    yield from walk(list(module.tree.body), None)


def _sched_calls(fn_node: ast.AST) -> Iterator[ast.Call]:
    """Scheduling calls lexically inside ``fn_node``, nested defs excluded."""
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCHED_METHODS
            and _receiver_is_sim(node.func)
        ):
            yield node
        stack.extend(ast.iter_child_nodes(node))
