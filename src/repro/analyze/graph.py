"""Whole-program symbol table and call graph for REP001 and REP002.

A check that sees one :class:`ModuleContext` at a time cannot see an
RNG draw or a collective hidden behind a helper function in another
module.  :class:`ProjectGraph` closes that gap for the *statically
decidable* slice of the call graph:

* module-level functions and class methods get dotted qualified names
  (``repro.kmc.comm.TraditionalExchange.before_sector``);
* ``from x import y [as z]`` re-exports are chased transitively, so a
  call through a package ``__init__`` facade resolves to the defining
  module — and so is the literal ``_EXPORTS = {name: module}`` table of
  a facade that resolves its names on first access (PEP 562
  ``__getattr__``, as ``repro.core`` and ``repro.service`` do);
* calls are resolved when the target is a plain name (local function or
  import), a dotted module attribute (``mod.func``), or a ``self``
  method of the enclosing class — attribute calls on arbitrary objects
  stay unresolved, which keeps the graph sound (no false edges) at the
  cost of completeness;
* module-level integer constants (``TAG_GET = 1000``) are collected so
  protocol tags can be compared by *value* across modules.

Everything is computed once per scan from the already-parsed module
set; no imports are executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analyze.core import ImportMap, ModuleContext

#: Cap on import-alias chasing, so a (malformed) alias cycle terminates.
_ALIAS_DEPTH = 16

#: Module-level name of a lazy facade's ``{public name: module}`` table.
_EXPORT_TABLE = "_EXPORTS"


def module_dotted_name(rel_path: str) -> str:
    """Dotted module name of a posix-relative path.

    ``src/`` prefixes are dropped (the repo's layout), ``__init__.py``
    maps to its package: ``src/repro/kmc/comm.py`` -> ``repro.kmc.comm``,
    ``src/repro/observe/__init__.py`` -> ``repro.observe``.
    """
    parts = list(rel_path.split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = leaf
    return ".".join(parts)


@dataclass
class FunctionNode:
    """One function or method definition in the scanned program."""

    qname: str  # dotted: <module>.<Class>?.<name>
    module: ModuleContext
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: str | None = None
    #: Resolved project-internal callees (qnames), filled by the graph.
    callees: list[str] = field(default_factory=list)

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        return names


class ProjectGraph:
    """Symbol table + call graph over one scanned module set."""

    def __init__(self, modules: list[ModuleContext]) -> None:
        self.modules = list(modules)
        self.module_names: dict[str, str] = {}  # rel_path -> dotted
        self.functions: dict[str, FunctionNode] = {}  # qname -> node
        self.aliases: dict[str, str] = {}  # dotted alias -> dotted target
        self.constants: dict[str, int] = {}  # dotted name -> int value
        self.import_maps: dict[str, ImportMap] = {}  # rel_path -> map
        #: qname -> list of (caller FunctionNode, ast.Call) call sites.
        self.callers: dict[str, list[tuple[FunctionNode, ast.Call]]] = {}
        for module in self.modules:
            self._index_module(module)
        for fn in list(self.functions.values()):
            self._link_calls(fn)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleContext) -> None:
        modname = module_dotted_name(module.rel_path)
        self.module_names[module.rel_path] = modname
        self.import_maps[module.rel_path] = ImportMap(module.tree)
        for node in module.tree.body:
            self._index_stmt(module, modname, node, class_name=None)

    def _index_stmt(
        self,
        module: ModuleContext,
        modname: str,
        node: ast.stmt,
        class_name: str | None,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = (
                f"{modname}.{class_name}.{node.name}"
                if class_name
                else f"{modname}.{node.name}"
            )
            self.functions[qual] = FunctionNode(
                qual, module, node, class_name=class_name
            )
        elif isinstance(node, ast.ClassDef) and class_name is None:
            for sub in node.body:
                self._index_stmt(module, modname, sub, class_name=node.name)
        elif isinstance(node, ast.Assign) and class_name is None:
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, int
            ):
                for name in names:
                    self.constants[f"{modname}.{name}"] = node.value.value
            elif _EXPORT_TABLE in names and isinstance(node.value, ast.Dict):
                table = node.value
                for key, target in zip(table.keys, table.values, strict=True):
                    name, where = (getattr(n, "value", None) for n in (key, target))
                    if isinstance(name, str) and isinstance(where, str):
                        self.aliases[f"{modname}.{name}"] = f"{where}.{name}"
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.aliases[f"{modname}.{local}"] = (
                    f"{node.module}.{alias.name}"
                )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def deref(self, dotted: str) -> str:
        """Follow import re-export aliases to a canonical dotted name."""
        seen = 0
        while dotted in self.aliases and seen < _ALIAS_DEPTH:
            dotted = self.aliases[dotted]
            seen += 1
        return dotted

    def resolve_call(
        self, module: ModuleContext, call: ast.Call, class_name: str | None = None
    ) -> FunctionNode | None:
        """The project function a call statically targets, or ``None``.

        Resolves plain names (same-module functions, imported names),
        dotted module attributes, and ``self.method`` / ``cls.method``
        within ``class_name``.  Method calls on arbitrary objects are
        not resolved (unsound to guess).
        """
        modname = self.module_names.get(module.rel_path, "")
        func = call.func
        if isinstance(func, ast.Name):
            local = self.deref(f"{modname}.{func.id}")
            hit = self.functions.get(local)
            if hit is not None:
                return hit
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (
                class_name is not None
                and isinstance(base, ast.Name)
                and base.id in ("self", "cls")
            ):
                hit = self.functions.get(
                    f"{modname}.{class_name}.{func.attr}"
                )
                if hit is not None:
                    return hit
        imports = self.import_maps.get(module.rel_path)
        if imports is not None:
            dotted = imports.resolve_call(call.func)
            if dotted is not None:
                return self.functions.get(self.deref(dotted))
        return None

    def resolve_constant(
        self, module: ModuleContext, expr: ast.expr
    ) -> int | None:
        """Integer value of a module-level constant reference, or ``None``.

        Handles local names (``TAG_GET``), imported names
        (``from repro.kmc.comm import TAG_GET``), and dotted attributes
        (``comm.TAG_GET``); chases re-export aliases.
        """
        modname = self.module_names.get(module.rel_path, "")
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value
        if isinstance(expr, ast.Name):
            local = self.deref(f"{modname}.{expr.id}")
            if local in self.constants:
                return self.constants[local]
        imports = self.import_maps.get(module.rel_path)
        if imports is not None and isinstance(expr, (ast.Name, ast.Attribute)):
            dotted = imports.resolve_call(expr)
            if dotted is not None:
                dotted = self.deref(dotted)
                if dotted in self.constants:
                    return self.constants[dotted]
        return None

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def _link_calls(self, fn: FunctionNode) -> None:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callee = self.resolve_call(
                    fn.module, node, class_name=fn.class_name
                )
                if callee is not None:
                    fn.callees.append(callee.qname)
                    self.callers.setdefault(callee.qname, []).append(
                        (fn, node)
                    )

    def owned_nodes(
        self, module: ModuleContext
    ) -> Iterator[tuple[FunctionNode | None, ast.AST]]:
        """Yield ``(enclosing function, node)`` for every node of ``module``.

        The enclosing function is the indexed module-level function or
        method (nested functions belong to it), or ``None`` for code
        outside any function.
        """
        owners = {fn.node: fn for fn in self.functions.values()}

        def walk(nodes, top_level):
            for node in nodes:
                if isinstance(node, ast.ClassDef) and top_level:
                    yield from walk(node.body, False)
                    continue
                owner = owners.get(node)
                for sub in ast.walk(node):
                    yield owner, sub

        yield from walk(module.tree.body, True)

    def transitive_closure(
        self, mark: dict[str, tuple[str, ...]]
    ) -> dict[str, tuple[str, ...]]:
        """Propagate per-function marks backwards along call edges.

        ``mark`` maps qname -> evidence chain (a tuple of labels ending
        at the primal evidence).  The fixpoint adds every function that
        calls a marked function, with the callee's chain prefixed by the
        callee's qname — so each marked function carries one concrete
        witness chain from itself to the evidence.
        """
        out = dict(mark)
        changed = True
        while changed:
            changed = False
            for qname, fn in self.functions.items():
                if qname in out:
                    continue
                for callee in fn.callees:
                    if callee in out:
                        out[qname] = (callee, *out[callee])
                        changed = True
                        break
        return out
