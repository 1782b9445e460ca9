"""Determinism rules: DET001 (ambient entropy) and DET002 (unordered iteration).

These encode the bit-identity ground rules from ``docs/performance.md``:
every run of a scenario is fully determined by its seed, which holds
only while simulation code draws randomness exclusively from the seeded
:mod:`repro.sim.random` seam, never reads the wall clock, and never
lets the iteration order of an unordered container leak into scheduling
or float accumulation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.checks.astutil import ImportMap
from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import ModuleSource

#: Wall-clock readers in the ``time`` module (``sleep`` et al. are fine).
_BANNED_TIME_ATTRS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "clock_gettime", "clock_gettime_ns"}
)

#: Packages whose behaviour must be a pure function of the seed.
#: ``repro.sim`` covers the fault-injection engine (``repro.sim.faults``)
#: by prefix.
_SIM_PACKAGES = ("repro.sim", "repro.transport", "repro.routing", "repro.mac")

#: The workload families compose FaultPlans into scenario grids and are
#: held to DET001 explicitly; DET002 covers them through ``repro.experiments``.
_WORKLOAD_PACKAGES = ("repro.experiments.workloads",)

#: Driver trees gated alongside the library (benchmarks get a
#: wall-clock carve-out: measuring elapsed time is their whole job).
_DRIVER_PACKAGES = ("benchmarks", "examples")


@register
class AmbientEntropyRule(Rule):
    """DET001: no ambient entropy sources inside simulation code."""

    id = "DET001"
    summary = "no module-level RNG, wall-clock or uuid inside simulation packages or drivers"
    packages = _SIM_PACKAGES + _WORKLOAD_PACKAGES + _DRIVER_PACKAGES

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        imap = ImportMap.from_tree(source.tree, module=source.module)
        allow_wall_clock = source.in_package(("benchmarks",))
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import_from(source, node, allow_wall_clock)
            elif isinstance(node, ast.Attribute):
                module = imap.resolve(node.value)
                if module is None:
                    continue
                message = self._attribute_violation(module, node.attr, allow_wall_clock)
                if message is not None:
                    yield self.finding(source, node.lineno, node.col_offset, message)

    def _check_import_from(
        self, source: ModuleSource, node: ast.ImportFrom, allow_wall_clock: bool
    ) -> Iterator[Finding]:
        module = node.module or ""
        for alias in node.names:
            message = self._attribute_violation(module, alias.name, allow_wall_clock)
            if message is not None:
                yield self.finding(source, node.lineno, node.col_offset, f"import of {message}")

    @staticmethod
    def _attribute_violation(module: str, attr: str, allow_wall_clock: bool = False) -> Optional[str]:
        """Message if ``module.attr`` is an ambient entropy source."""
        if module == "random" and attr != "Random":
            return (
                f"random.{attr} uses the process-global RNG; draw from a "
                "seeded stream (repro.sim.random.RandomStreams) instead"
            )
        if module == "time" and attr in _BANNED_TIME_ATTRS and not allow_wall_clock:
            return (
                f"time.{attr} reads the wall clock; simulation code must "
                "use Simulator.now so runs replay bit-identically"
            )
        if module == "os" and attr == "urandom":
            return "os.urandom is unseeded entropy; use the seeded RandomStreams seam"
        if module == "uuid":
            return f"uuid.{attr} derives from host state; derive ids from the scenario seed"
        return None


# --- DET002 ------------------------------------------------------------------------------------

#: Accumulators whose result (or element order) depends on iteration order.
_ACCUMULATORS = frozenset({"sum", "min", "max", "list", "tuple"})

#: Annotation heads that denote a set type.
_SET_HEADS = frozenset({"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"})

#: Annotation heads that denote a mapping type (value type decides set-ness).
_MAPPING_HEADS = frozenset({"dict", "defaultdict", "Dict", "DefaultDict", "Mapping", "MutableMapping", "OrderedDict"})

#: Annotation heads that wrap another type transparently.
_WRAPPER_HEADS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})

_KIND_SET = "set"
_KIND_SET_MAPPING = "set_mapping"


def _head_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):  # typing.Set, collections.abc.Mapping, …
        return node.attr
    return None


def _annotation_kind(node: Optional[ast.expr], aliases: Dict[str, str]) -> Optional[str]:
    """Classify an annotation as set-typed, set-valued-mapping, or neither."""
    if node is None:
        return None
    head = _head_name(node)
    if head is not None and not isinstance(node, ast.Subscript):
        if head in _SET_HEADS:
            return _KIND_SET
        return aliases.get(head)
    if isinstance(node, ast.Subscript):
        head = _head_name(node.value)
        if head in _SET_HEADS:
            return _KIND_SET
        inner = node.slice
        if head in _WRAPPER_HEADS or head == "Union":
            elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for element in elements:
                kind = _annotation_kind(element, aliases)
                if kind is not None:
                    return kind
            return None
        if head in _MAPPING_HEADS and isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
            if _annotation_kind(inner.elts[1], aliases) == _KIND_SET:
                return _KIND_SET_MAPPING
        return None
    return None


def _is_set_expression(node: ast.expr) -> bool:
    """A literal/constructor expression that evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class UnorderedIterationRule(Rule):
    """DET002: unordered iteration must be sorted or explicitly pinned."""

    id = "DET002"
    summary = "no iteration over sets / dict.keys() feeding accumulation without sorted() or a pinned order"
    packages = _SIM_PACKAGES + ("repro.experiments",) + _DRIVER_PACKAGES

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        aliases = self._module_aliases(source.tree)
        scopes: List[Tuple[ast.AST, Dict[str, str]]] = [(source.tree, {})]
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, self._parameter_kinds(node, aliases)))
        for scope, kinds in scopes:
            self._collect_local_kinds(scope, aliases, kinds)
            yield from self._scan_scope(source, scope, kinds)

    # -- environment construction -----------------------------------------------------------

    @staticmethod
    def _module_aliases(tree: ast.Module) -> Dict[str, str]:
        """Module-level type aliases like ``Graph = Mapping[int, Set[int]]``."""
        aliases: Dict[str, str] = {}
        for node in tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if isinstance(target, ast.Name) and value is not None:
                kind = _annotation_kind(value, aliases)
                if kind is not None:
                    aliases[target.id] = kind
        return aliases

    @staticmethod
    def _parameter_kinds(
        func: "ast.FunctionDef | ast.AsyncFunctionDef", aliases: Dict[str, str]
    ) -> Dict[str, str]:
        kinds: Dict[str, str] = {}
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            kind = _annotation_kind(arg.annotation, aliases)
            if kind is not None:
                kinds[arg.arg] = kind
        return kinds

    def _collect_local_kinds(self, scope: ast.AST, aliases: Dict[str, str], kinds: Dict[str, str]) -> None:
        """Record names bound to sets (annotated or constructed) in this scope."""
        for node in self._scope_nodes(scope):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                kind = _annotation_kind(node.annotation, aliases)
                if kind is not None:
                    kinds[node.target.id] = kind
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_set_expression(node.value):
                    kinds[target.id] = _KIND_SET

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function scopes."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    # -- detection --------------------------------------------------------------------------

    def _scan_scope(
        self, source: ModuleSource, scope: ast.AST, kinds: Dict[str, str]
    ) -> Iterator[Finding]:
        for node in self._scope_nodes(scope):
            if isinstance(node, ast.For):
                yield from self._flag(source, kinds, node.iter, "a for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._flag(source, kinds, generator.iter, "a comprehension")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ACCUMULATORS and node.args:
                    yield from self._flag(source, kinds, node.args[0], f"{node.func.id}()")

    def _flag(
        self, source: ModuleSource, kinds: Dict[str, str], expr: ast.expr, context: str
    ) -> Iterator[Finding]:
        description = self._unordered_description(kinds, expr)
        if description is not None:
            yield self.finding(
                source,
                expr.lineno,
                expr.col_offset,
                f"{description} feeds {context}; wrap in sorted(...) or pin the "
                "order with a justified '# repro: allow[DET002]' pragma",
            )

    @staticmethod
    def _unordered_description(kinds: Dict[str, str], expr: ast.expr) -> Optional[str]:
        """Why ``expr`` is unordered, or None if it is not known to be."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal/comprehension"
        if isinstance(expr, ast.Name) and kinds.get(expr.id) == _KIND_SET:
            return f"set-typed variable {expr.id!r}"
        if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
            if kinds.get(expr.value.id) == _KIND_SET_MAPPING:
                return f"a set value of mapping {expr.value.id!r}"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a bare {func.id}(...) result"
            if isinstance(func, ast.Attribute):
                if func.attr == "keys":
                    return "a dict .keys() view (order is an insertion-order artifact)"
                if (
                    func.attr == "get"
                    and isinstance(func.value, ast.Name)
                    and kinds.get(func.value.id) == _KIND_SET_MAPPING
                ):
                    return f"a set value of mapping {func.value.id!r}"
        return None
