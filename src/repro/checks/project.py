"""Whole-program view of the scanned source tree.

A :class:`Project` parses nothing itself — it is built from the
:class:`~repro.checks.source.ModuleSource` list the driver already
loaded — but it indexes everything once so every
:class:`~repro.checks.registry.ProjectRule` can reason across module
boundaries without re-walking the forest:

* **module table** — dotted name → source, plus which modules are
  packages (``__init__.py``);
* **import edges** — every ``import``/``from … import`` with its
  source location, relative levels resolved, ``TYPE_CHECKING``-guarded
  imports marked (they never execute, so layer rules skip them);
* **symbol index** — alias-aware :class:`~repro.checks.astutil.ImportMap`
  per module, and :meth:`Project.resolve_symbol` which follows
  re-export chains (``from repro.sim.random import RandomStreams`` in
  ``repro/sim/__init__.py`` makes ``repro.sim.RandomStreams`` resolve
  to ``repro.sim.random.RandomStreams``);
* **call graph** — best-effort edges from each function (or the
  module-level pseudo-caller ``pkg.mod.<module>``) to the fully
  qualified functions it calls.  Resolution covers local and nested
  defs, imported names through their re-export chains, ``self.``/
  ``cls.`` methods of the enclosing class, and — as a last resort — a
  method name that is unique project-wide.  Unresolvable calls are
  simply absent: rules built on the graph are conservative by design.

Everything is derived deterministically from the sorted source list, so
project-rule findings are as stable as per-file ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.checks.astutil import ImportMap, resolve_import_base
from repro.checks.source import ModuleSource

#: Suffix of the pseudo-caller representing a module's top-level code.
MODULE_CALLER = "<module>"


@dataclass
class ImportEdge:
    """One ``import`` statement, as a module-level dependency edge."""

    importer: str
    target: str
    path: str
    line: int
    column: int
    type_checking: bool = False


@dataclass
class Definition:
    """One function, method or class definition, fully qualified."""

    qualname: str
    module: str
    node: ast.AST
    kind: str  # "function" | "async" | "class"
    params: Tuple[str, ...] = ()


@dataclass
class CallSite:
    """One call expression, attributed to its enclosing function."""

    caller: str
    module: str
    path: str
    node: ast.Call


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class Project:
    """Index of every scanned module, shared by all project rules."""

    def __init__(self, sources: Iterable[ModuleSource]) -> None:
        self.sources: List[ModuleSource] = sorted(sources, key=lambda s: (s.module, s.path))
        self.modules: Dict[str, ModuleSource] = {}
        self.by_path: Dict[str, ModuleSource] = {}
        self.packages: Set[str] = set()
        for source in self.sources:
            self.modules.setdefault(source.module, source)
            self.by_path[source.path] = source
            if Path(source.path).name == "__init__.py":
                self.packages.add(source.module)
        self.import_maps: Dict[str, ImportMap] = {
            name: ImportMap.from_tree(src.tree, module=name, is_package=name in self.packages)
            for name, src in self.modules.items()
        }
        self.import_edges: List[ImportEdge] = []
        self.definitions: Dict[str, Definition] = {}
        self.call_graph: Dict[str, Set[str]] = {}
        self.call_sites: Dict[str, List[CallSite]] = {}
        self.method_index: Dict[str, List[str]] = {}
        self._fq_by_node: Dict[int, str] = {}
        for source in self.sources:
            if self.modules[source.module] is source:
                self._collect_edges(source)
                self._index_definitions(source)
        for source in self.sources:
            if self.modules[source.module] is source:
                self._build_calls(source)

    # -- lookups ---------------------------------------------------------------------------

    def import_map(self, module: str) -> ImportMap:
        return self.import_maps[module]

    def fq_of(self, node: ast.AST) -> Optional[str]:
        """The fully qualified name indexed for a def/class node, if any."""
        return self._fq_by_node.get(id(node))

    def resolve_symbol(self, dotted: str, _seen: Optional[Set[str]] = None) -> str:
        """Follow import/re-export chains to a symbol's defining module.

        ``repro.sim.RandomStreams`` → ``repro.sim.random.RandomStreams``
        when the package ``__init__`` re-exports it.  Names that do not
        route through a scanned module come back unchanged (externals
        like ``time.sleep`` stay ``time.sleep``).
        """
        if dotted in self.definitions or dotted in self.modules:
            return dotted
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            rest = parts[cut:]
            imap = self.import_maps[module]
            target = imap.symbols.get(rest[0]) or imap.modules.get(rest[0])
            if target is not None:
                candidate = ".".join([target, *rest[1:]])
                seen = _seen if _seen is not None else set()
                if candidate != dotted and candidate not in seen:
                    seen.add(dotted)
                    return self.resolve_symbol(candidate, seen)
            return dotted
        return dotted

    # -- import edges ----------------------------------------------------------------------

    def _collect_edges(self, source: ModuleSource) -> None:
        module = source.module
        is_package = module in self.packages

        def walk(statements: Sequence[ast.stmt], type_checking: bool) -> None:
            for node in statements:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self.import_edges.append(
                            ImportEdge(module, alias.name, source.path, node.lineno, node.col_offset, type_checking)
                        )
                elif isinstance(node, ast.ImportFrom):
                    base = resolve_import_base(node, module, is_package)
                    if base is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            target = base
                        else:
                            candidate = f"{base}.{alias.name}" if base else alias.name
                            target = candidate if candidate in self.modules else (base or candidate)
                        self.import_edges.append(
                            ImportEdge(module, target, source.path, node.lineno, node.col_offset, type_checking)
                        )
                guarded = type_checking or (
                    isinstance(node, ast.If) and _is_type_checking_test(node.test)
                )
                for attr in ("body", "orelse", "finalbody"):
                    children = getattr(node, attr, None)
                    if isinstance(children, list) and children and isinstance(children[0], ast.stmt):
                        # Only an If's *body* sits under the guard; its orelse runs at runtime.
                        child_guard = guarded if attr == "body" else type_checking
                        walk(children, child_guard)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, type_checking)

        walk(source.tree.body, False)

    # -- definitions -----------------------------------------------------------------------

    def _index_definitions(self, source: ModuleSource) -> None:
        module = source.module

        def visit(node: ast.AST, qual: str, parent_kind: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fq = f"{qual}.{child.name}"
                    args = child.args
                    params = tuple(arg.arg for arg in [*args.posonlyargs, *args.args])
                    kind = "async" if isinstance(child, ast.AsyncFunctionDef) else "function"
                    self.definitions[fq] = Definition(fq, module, child, kind, params)
                    self._fq_by_node[id(child)] = fq
                    if parent_kind == "class":
                        self.method_index.setdefault(child.name, []).append(fq)
                    visit(child, f"{fq}.<locals>", "function")
                elif isinstance(child, ast.ClassDef):
                    fq = f"{qual}.{child.name}"
                    self.definitions[fq] = Definition(fq, module, child, "class")
                    self._fq_by_node[id(child)] = fq
                    visit(child, fq, "class")
                else:
                    visit(child, qual, parent_kind)

        visit(source.tree, module, "module")
        for fqs in self.method_index.values():
            fqs.sort()

    # -- call graph ------------------------------------------------------------------------

    def _build_calls(self, source: ModuleSource) -> None:
        module = source.module
        imap = self.import_maps[module]

        def def_scope(node: ast.AST) -> Dict[str, str]:
            """Names bound by def/class statements directly in ``node``'s body."""
            scope: Dict[str, str] = {}
            body = getattr(node, "body", None)
            if isinstance(body, list):
                for child in body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        fq = self._fq_by_node.get(id(child))
                        if fq is not None:
                            scope[child.name] = fq
            return scope

        def resolve_callee(func: ast.expr, scopes: List[Dict[str, str]], current_class: Optional[str]) -> Optional[str]:
            if isinstance(func, ast.Name):
                for scope in reversed(scopes):
                    if func.id in scope:
                        return scope[func.id]
                target = imap.symbols.get(func.id)
                if target is not None:
                    return self.resolve_symbol(target)
                return None
            if isinstance(func, ast.Attribute):
                dotted = imap.resolve(func)
                if dotted is not None:
                    return self.resolve_symbol(dotted)
                if (
                    current_class is not None
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    method_fq = f"{current_class}.{func.attr}"
                    if method_fq in self.definitions:
                        return method_fq
                candidates = self.method_index.get(func.attr, [])
                if len(candidates) == 1:
                    return candidates[0]
            return None

        def record(caller: str, callee: str, call: ast.Call) -> None:
            self.call_graph.setdefault(caller, set()).add(callee)
            self.call_sites.setdefault(callee, []).append(CallSite(caller, module, source.path, call))
            definition = self.definitions.get(callee)
            if definition is not None and definition.kind == "class":
                init_fq = f"{callee}.__init__"
                if init_fq in self.definitions:
                    self.call_graph.setdefault(caller, set()).add(init_fq)
                    self.call_sites.setdefault(init_fq, []).append(CallSite(caller, module, source.path, call))

        def visit(node: ast.AST, caller: str, scopes: List[Dict[str, str]], current_class: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fq = self._fq_by_node.get(id(child)) or caller
                    visit(child, fq, scopes + [def_scope(child)], current_class)
                elif isinstance(child, ast.ClassDef):
                    class_fq = self._fq_by_node.get(id(child))
                    visit(child, caller, scopes, class_fq or current_class)
                else:
                    if isinstance(child, ast.Call):
                        callee = resolve_callee(child.func, scopes, current_class)
                        if callee is not None:
                            record(caller, callee, child)
                    visit(child, caller, scopes, current_class)

        module_caller = f"{module}.{MODULE_CALLER}"
        visit(source.tree, module_caller, [def_scope(source.tree)], None)
