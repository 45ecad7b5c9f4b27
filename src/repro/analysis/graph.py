"""Project-wide symbol and call graph for the whole-program rules.

Per-file rules (ATH001–ATH010) see one ``ast.Module`` at a time; the v2
rules (ATH100, ATH102) need to answer questions that span files: *which
function does this call resolve to, and what are its parameters?* *where
was ``new_packet_id`` actually defined?*

:class:`ProjectGraph` parses every file once and builds:

* a module table keyed by dotted module name (``src/repro/phy/ran.py`` →
  ``repro.phy.ran``), with per-module import maps resolved to absolute
  dotted origins (relative imports normalised against the package);
* per-module symbol tables: top-level functions and classes (with methods,
  dataclass fields, and base-class names);
* a resolver that follows import chains — including re-exports such as
  ``repro.trace.schema.new_packet_id`` → ``repro.trace.ids.new_packet_id``
  — with a cycle guard, so import cycles degrade to "unresolved" instead of
  recursing forever.

Everything is plain ``ast``; nothing is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .types import unit_of_annotation, unit_of_name

#: Directory names stripped from the front of a relpath when deriving the
#: dotted module name (source layouts put packages under ``src/``).
_LAYOUT_ROOTS = ("src", "lib")

Resolved = Tuple[str, object]  # ("function"|"class"|"module", info object)


@dataclass
class ParamInfo:
    """One callable parameter, with its inferred unit tag."""

    name: str
    unit: Optional[str] = None
    kw_only: bool = False
    has_default: bool = False


@dataclass
class FunctionInfo:
    """A function or method definition."""

    name: str
    qualname: str  # "module.func" or "module.Class.func"
    modname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: List[ParamInfo] = field(default_factory=list)
    has_vararg: bool = False
    has_kwarg: bool = False
    is_method: bool = False
    owner: Optional[str] = None  # owning class name, for methods
    return_unit: Optional[str] = None


@dataclass
class FieldInfo:
    """One dataclass field (an ``AnnAssign`` in a class body)."""

    name: str
    unit: Optional[str] = None
    has_default: bool = False


@dataclass
class ClassInfo:
    """A class definition: methods, dataclass fields, base names."""

    name: str
    qualname: str
    modname: str
    node: ast.ClassDef
    is_dataclass: bool = False
    bases: List[str] = field(default_factory=list)  # dotted, as written
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed file and its namespace."""

    relpath: str
    modname: str
    tree: ast.Module
    source: str
    is_package: bool = False
    imports: Dict[str, str] = field(default_factory=dict)  # local -> absolute dotted
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a posix relpath (``src/`` layout aware)."""
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if len(parts) > 1 and parts[0] in _LAYOUT_ROOTS:
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted_parts(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` expression → ["a", "b", "c"], or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        parts = _dotted_parts(target)
        if parts and parts[-1] == "dataclass":
            return True
    return False


def build_function_info(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    modname: str,
    owner: Optional[str] = None,
) -> FunctionInfo:
    args = node.args
    params: List[ParamInfo] = []
    positional = [*args.posonlyargs, *args.args]
    n_without_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if owner is not None and i == 0 and arg.arg in ("self", "cls"):
            continue
        params.append(
            ParamInfo(
                name=arg.arg,
                unit=unit_of_annotation(arg.annotation) or unit_of_name(arg.arg),
                has_default=i >= n_without_default,
            )
        )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append(
            ParamInfo(
                name=arg.arg,
                unit=unit_of_annotation(arg.annotation) or unit_of_name(arg.arg),
                kw_only=True,
                has_default=default is not None,
            )
        )
    qual = f"{modname}.{owner}.{node.name}" if owner else f"{modname}.{node.name}"
    return FunctionInfo(
        name=node.name,
        qualname=qual,
        modname=modname,
        node=node,
        params=params,
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        is_method=owner is not None,
        owner=owner,
        return_unit=unit_of_annotation(node.returns) or unit_of_name(node.name),
    )


def _build_class(node: ast.ClassDef, modname: str) -> ClassInfo:
    info = ClassInfo(
        name=node.name,
        qualname=f"{modname}.{node.name}",
        modname=modname,
        node=node,
        is_dataclass=_is_dataclass_decorated(node),
    )
    for base in node.bases:
        parts = _dotted_parts(base)
        if parts:
            info.bases.append(".".join(parts))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = build_function_info(stmt, modname, owner=node.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.fields[stmt.target.id] = FieldInfo(
                name=stmt.target.id,
                unit=unit_of_annotation(stmt.annotation)
                or unit_of_name(stmt.target.id),
                has_default=stmt.value is not None,
            )
    return info


def _build_imports(tree: ast.Module, modname: str, is_package: bool) -> Dict[str, str]:
    """Local name → absolute dotted origin, relative imports normalised."""
    pkg_parts = modname.split(".") if modname else []
    if not is_package and pkg_parts:
        pkg_parts = pkg_parts[:-1]
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                if node.level - 1 > len(pkg_parts):
                    continue  # beyond the project root; unresolvable
            else:
                base = []
            prefix = [*base, *(node.module.split(".") if node.module else [])]
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = ".".join([*prefix, alias.name])
    return imports


class ProjectGraph:
    """Symbol/call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_relpath: Dict[str, ModuleInfo] = {}
        #: relpaths that failed to parse (reported as ATH000 elsewhere).
        self.unparsed: List[str] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "ProjectGraph":
        """Build a graph from ``{relpath: source}`` (the test seam)."""
        graph = cls()
        for relpath in sorted(sources):
            graph.add_source(relpath, sources[relpath])
        return graph

    def add_source(self, relpath: str, source: str) -> Optional[ModuleInfo]:
        """Parse and index one file; returns None on syntax errors."""
        try:
            tree = ast.parse(source)
        except SyntaxError:
            self.unparsed.append(relpath)
            return None
        modname = module_name_for(relpath)
        is_package = relpath.endswith("__init__.py")
        module = ModuleInfo(
            relpath=relpath,
            modname=modname,
            tree=tree,
            source=source,
            is_package=is_package,
            imports=_build_imports(tree, modname, is_package),
        )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.functions[stmt.name] = build_function_info(stmt, modname)
            elif isinstance(stmt, ast.ClassDef):
                module.classes[stmt.name] = _build_class(stmt, modname)
        self.modules[modname] = module
        self.by_relpath[relpath] = module
        return module

    # -- resolution -----------------------------------------------------
    def resolve_dotted(
        self, dotted: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Resolved]:
        """Resolve an absolute dotted path to a module/class/function."""
        parts = dotted.split(".")
        # Longest module-name prefix wins ("repro.trace.ids.new_packet_id"
        # splits into module "repro.trace.ids" + symbol "new_packet_id").
        for cut in range(len(parts), 0, -1):
            modname = ".".join(parts[:cut])
            module = self.modules.get(modname)
            if module is None:
                continue
            rest = parts[cut:]
            if not rest:
                return ("module", module)
            return self._resolve_in_module(module, rest, _seen or set())
        return None

    def _resolve_in_module(
        self,
        module: ModuleInfo,
        parts: Sequence[str],
        seen: Set[Tuple[str, str]],
    ) -> Optional[Resolved]:
        head = parts[0]
        key = (module.modname, head)
        if key in seen:  # import cycle — give up rather than loop
            return None
        seen.add(key)
        if head in module.functions:
            return ("function", module.functions[head]) if len(parts) == 1 else None
        if head in module.classes:
            cls_info = module.classes[head]
            if len(parts) == 1:
                return ("class", cls_info)
            if len(parts) == 2:
                method = self.class_method(cls_info, parts[1])
                return ("function", method) if method else None
            return None
        if head in module.imports:
            origin = module.imports[head]
            return self.resolve_dotted(".".join([origin, *parts[1:]]), seen)
        if module.is_package:
            # "repro.trace.schema" accessed as an attribute of the package.
            sub = self.modules.get(f"{module.modname}.{head}")
            if sub is not None:
                if len(parts) == 1:
                    return ("module", sub)
                return self._resolve_in_module(sub, parts[1:], seen)
        return None

    def resolve_name(self, module: ModuleInfo, name: str) -> Optional[Resolved]:
        """Resolve a bare name in ``module``'s namespace."""
        return self._resolve_in_module(module, [name], set())

    def resolve_call(
        self,
        module: ModuleInfo,
        func_expr: ast.expr,
        owner_class: Optional[ClassInfo] = None,
    ) -> Optional[Resolved]:
        """Resolve a call's callee expression to its definition, if possible.

        Handles bare names (``helper(...)``), dotted module access
        (``units.ms(...)``), constructors (``PacketRecord(...)``), and
        ``self.method(...)`` when the enclosing class is known.  Anything
        else (calls on arbitrary objects) resolves to None.
        """
        parts = _dotted_parts(func_expr)
        if parts is None:
            return None
        if parts[0] == "self" and owner_class is not None:
            if len(parts) != 2:
                return None
            method = self.class_method(owner_class, parts[1])
            return ("function", method) if method else None
        return self._resolve_in_module(module, parts, set())

    def class_method(
        self,
        cls_info: ClassInfo,
        name: str,
        _seen: Optional[Set[str]] = None,
    ) -> Optional[FunctionInfo]:
        """Look up a method on a class, following resolvable base classes."""
        seen = _seen or set()
        if cls_info.qualname in seen:
            return None
        seen.add(cls_info.qualname)
        if name in cls_info.methods:
            return cls_info.methods[name]
        module = self.modules.get(cls_info.modname)
        if module is None:
            return None
        for base in cls_info.bases:
            resolved = self._resolve_in_module(module, base.split("."), set())
            if resolved and resolved[0] == "class":
                found = self.class_method(resolved[1], name, seen)
                if found:
                    return found
        return None

    def constructor_params(self, cls_info: ClassInfo) -> Optional[List[ParamInfo]]:
        """Positional parameter list of ``Class(...)``.

        Dataclasses synthesise ``__init__`` from their fields in declaration
        order; regular classes use their (possibly inherited) ``__init__``.
        """
        init = self.class_method(cls_info, "__init__")
        if init is not None:
            return init.params
        if cls_info.is_dataclass:
            return [
                ParamInfo(name=f.name, unit=f.unit, has_default=f.has_default)
                for f in cls_info.fields.values()
            ]
        return None
