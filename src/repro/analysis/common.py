"""Shared AST utilities: import resolution, name helpers, path matching.

Rules work on plain :mod:`ast` trees with no type information, so "what does
``np.random.normal`` refer to?" is answered by tracking the file's imports and
expanding attribute chains against them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence


def build_import_map(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``nodes`` is every node of a tree (``ast.walk`` order).

    ``import numpy as np`` yields ``{"np": "numpy"}``;
    ``from datetime import datetime`` yields ``{"datetime": "datetime.datetime"}``.
    Relative imports keep their leading dots (``from ..sim.units import ms`` →
    ``{"ms": "..sim.units.ms"}``) — callers match on suffixes for those.
    """
    imports: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return imports


def dotted_name(node: ast.AST, imports: Optional[Dict[str, str]] = None) -> Optional[str]:
    """Expand a ``Name``/``Attribute`` chain to a dotted path, or None.

    With an import map, the chain's root is rewritten to its origin module so
    ``t.monotonic`` (after ``import time as t``) resolves to ``time.monotonic``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if imports and root in imports:
        root = imports[root]
    parts.append(root)
    return ".".join(reversed(parts))


def terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a ``Name``/``Attribute`` expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def path_matches(relpath: str, patterns: Sequence[str]) -> bool:
    """True if a posix relpath matches any glob in ``patterns``.

    A pattern matches the whole path, any suffix of it, or a path prefix —
    so ``sim/random.py``, ``src/*/sim/random.py`` and ``benchmarks`` all
    behave as one would write them in a config file.
    """
    parts = relpath.split("/")
    for pattern in patterns:
        if fnmatch(relpath, pattern):
            return True
        # Suffix match: "sim/random.py" hits "src/repro/sim/random.py".
        n = len(pattern.split("/"))
        if n <= len(parts) and fnmatch("/".join(parts[-n:]), pattern):
            return True
        # Prefix match: "benchmarks" hits everything under benchmarks/.
        if n <= len(parts) and fnmatch("/".join(parts[:n]), pattern):
            return True
    return False


@dataclass
class LintContext:
    """Everything a rule needs to check one file."""

    relpath: str  # posix, relative to the lint root
    tree: ast.Module
    source: str
    options: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls,
        source: str,
        relpath: str = "<string>",
        options: Optional[Dict[str, object]] = None,
    ) -> "LintContext":
        """Parse ``source`` and assemble the context (raises SyntaxError)."""
        return cls(
            relpath=relpath,
            tree=ast.parse(source),
            source=source,
            options=dict(options or {}),
        )

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order.

        The per-file rules iterate this one list instead of each walking
        the tree again.
        """
        return list(ast.walk(self.tree))

    @cached_property
    def imports(self) -> Dict[str, str]:
        """The file's import map (see :func:`build_import_map`)."""
        return build_import_map(self.nodes)

    def exempt(self, rule_id: str) -> bool:
        """True if this file is exempt from ``rule_id`` via config."""
        patterns = self.options.get(rule_id, {}).get("exempt", [])  # type: ignore[union-attr]
        return path_matches(self.relpath, patterns) if patterns else False
