"""The benchmark's per-layer spans name functions that exist.

``perf/layers.py`` finds its boundary spans by ``(path under src/repro,
function name)`` in a cProfile run.  A renamed or moved function does not
fail the benchmark: its span just reads 0.  This test reads those names
from ``perf/layers.py`` with :mod:`ast` (no import of the benchmark) and
checks each one against the source tree, so a rename fails here instead.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LAYERS_PY = ROOT / "perf" / "layers.py"


def _constants() -> Dict[str, object]:
    """The module-level literal assignments of ``perf/layers.py``."""
    found: Dict[str, object] = {}
    for node in ast.parse(LAYERS_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and value is not None:
                try:
                    found[target.id] = ast.literal_eval(value)
                except ValueError:
                    pass  # computed, not a literal
    return found


CONSTANTS = _constants()


def _functions(relpath: str) -> List[ast.AST]:
    tree = ast.parse((PACKAGE / relpath).read_text(encoding="utf-8"))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _span_keys() -> List[tuple]:
    keys = [key for spans in CONSTANTS["SPANS"].values() for key in spans]
    return keys + [CONSTANTS["CLOSE_CALLER"], CONSTANTS["DISPATCH"]]


def test_layers_module_declares_the_span_tables():
    for name in ("SPANS", "CLOSE_CALLER", "CLOSE_CALLEES", "DISPATCH"):
        assert name in CONSTANTS, name
    assert CONSTANTS["SPANS"], "no spans declared"


@pytest.mark.parametrize("relpath,name", _span_keys(), ids=lambda v: str(v))
def test_span_function_exists(relpath, name):
    assert (PACKAGE / relpath).is_file(), f"src/repro/{relpath} is missing"
    names = {node.name for node in _functions(relpath)}
    assert name in names, f"no function {name!r} in src/repro/{relpath}"


def test_close_caller_calls_the_close_callees():
    relpath, name = CONSTANTS["CLOSE_CALLER"]
    called: Set[str] = set()
    for node in _functions(relpath):
        if node.name != name:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                called.add(sub.func.attr)
    missing = set(CONSTANTS["CLOSE_CALLEES"]) - called
    assert not missing, f"{name} in src/repro/{relpath} never calls {sorted(missing)}"
