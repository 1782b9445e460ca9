"""SEED001: every ``random.Random(...)`` seed must trace back to the seam.

The bit-identity contract says a run is a pure function of its scenario
seed.  That only holds if every RNG constructed anywhere in the tree is
seeded from the sanctioned flow — ``spawn_seeds``/``preset_seeds`` (the
per-task seed derivation), a ``seed``-named parameter or attribute, or
a draw from an RNG that already satisfies the contract.  A
``random.Random(7)`` buried in a helper, or an RNG object captured by a
closure and shipped to a worker (where fork/spawn semantics decide what
state it carries), silently de-correlates runs from their seeds.

This is a whole-program rule: when a seed argument is a plain parameter
the analysis follows the project call graph one level outward and
checks what every known call site actually passes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.checks.astutil import ImportMap, call_name, walk_with_functions
from repro.checks.findings import Finding
from repro.checks.project import CallSite, Project
from repro.checks.registry import ProjectRule, register
from repro.checks.source import ModuleSource

#: Functions whose return value is a sanctioned seed (or seed list).
_SEED_SOURCE_CALLS = frozenset({"spawn_seeds", "preset_seeds", "bench_seeds"})

#: Methods that draw new entropy from an already-seeded RNG.
_RNG_DERIVING_METHODS = frozenset({"getrandbits", "randrange", "randint", "randbytes", "random"})

#: Submission seams a closure must not carry an RNG object through.
_SUBMIT_METHODS = frozenset({"map", "imap", "start", "submit"})

#: Calls whose result is an RNG object (for the closure-capture check).
_RNG_FACTORY_METHODS = frozenset({"stream", "spawn"})


def _seedish(name: str) -> bool:
    return "seed" in name.lower()


@dataclass
class _Ctx:
    """Where a taint question is being asked: module + enclosing scope."""

    source: ModuleSource
    imap: ImportMap
    scope: ast.AST  # enclosing FunctionDef/AsyncFunctionDef, or the module tree


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _assignments(scope: ast.AST, name: str) -> List[ast.expr]:
    """Expressions assigned to ``name`` within one scope (no nesting)."""
    values: List[ast.expr] = []
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    values.append(node.value)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name and node.value is not None:
                values.append(node.value)
        elif isinstance(node, ast.For):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                values.append(node.iter)  # an element of the iterated value
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                values.append(node.value)
    return values


def _positional_params(func: ast.AST) -> List[str]:
    args = getattr(func, "args", None)
    if args is None:
        return []
    return [arg.arg for arg in [*args.posonlyargs, *args.args]]


def _default_for(func: ast.AST, param: str) -> Optional[ast.expr]:
    """The default expression for ``param``, if the def declares one."""
    args = getattr(func, "args", None)
    if args is None:
        return None
    positional = [*args.posonlyargs, *args.args]
    defaults: List[Optional[ast.expr]] = [None] * (len(positional) - len(args.defaults))
    defaults.extend(args.defaults)
    for arg, default in zip(positional, defaults):
        if arg.arg == param:
            return default
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == param:
            return kw_default
    return None


@register
class SeedFlowRule(ProjectRule):
    """SEED001: random.Random seeds flow from the sanctioned seed seam."""

    id = "SEED001"
    summary = "every random.Random(...) seed must flow from spawn_seeds/preset_seeds or a seed parameter"
    packages = (
        "repro.sim",
        "repro.mac",
        "repro.routing",
        "repro.transport",
        "repro.core",
        "repro.experiments",
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in sorted(project.modules):
            source = project.modules[module]
            if not source.in_package(self.packages):
                continue
            imap = project.import_maps[module]
            for node, functions in walk_with_functions(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = imap.resolve(node.func)
                if target == "random.Random":
                    ctx = _Ctx(source, imap, functions[-1] if functions else source.tree)
                    yield from self._check_seed_arg(project, ctx, node)
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SUBMIT_METHODS
                    and node.args
                ):
                    yield from self._check_closure_capture(source, imap, node, functions)

    # -- seed-argument taint -----------------------------------------------------------------

    def _check_seed_arg(self, project: Project, ctx: _Ctx, call: ast.Call) -> Iterator[Finding]:
        seed_expr: Optional[ast.expr] = call.args[0] if call.args else None
        if seed_expr is None:
            for keyword in call.keywords:
                if keyword.arg == "x":
                    seed_expr = keyword.value
        if seed_expr is None:
            yield self.finding(
                ctx.source.path,
                call.lineno,
                call.col_offset,
                "random.Random() with no seed draws OS entropy; seed it through "
                "spawn_seeds/preset_seeds or a seed parameter",
            )
            return
        reason = self._taint(project, ctx, seed_expr, depth=1)
        if reason is not None:
            yield self.finding(
                ctx.source.path,
                call.lineno,
                call.col_offset,
                f"random.Random seed {reason}; seeds must flow from "
                "spawn_seeds/preset_seeds or a seed parameter",
            )

    def _taint(self, project: Project, ctx: _Ctx, expr: ast.expr, depth: int) -> Optional[str]:
        """Why ``expr`` is not provably seed-derived (None = proven)."""
        if isinstance(expr, ast.Constant):
            return f"is the ambient constant {expr.value!r}"
        if isinstance(expr, ast.Name):
            return self._taint_name(project, ctx, expr, depth)
        if isinstance(expr, ast.Attribute):
            if _seedish(expr.attr):
                return None
            return f"attribute {expr.attr!r} is not a seed-derived value"
        if isinstance(expr, ast.Call):
            return self._taint_call(project, ctx, expr, depth)
        if isinstance(expr, ast.BinOp):
            left = self._taint(project, ctx, expr.left, depth)
            if left is None:
                return None
            return self._taint(project, ctx, expr.right, depth) and left
        if isinstance(expr, ast.UnaryOp):
            return self._taint(project, ctx, expr.operand, depth)
        if isinstance(expr, ast.Subscript):
            return self._taint(project, ctx, expr.value, depth)
        if isinstance(expr, ast.Starred):
            return self._taint(project, ctx, expr.value, depth)
        if isinstance(expr, ast.FormattedValue):
            return self._taint(project, ctx, expr.value, depth)
        if isinstance(expr, ast.JoinedStr):
            reasons = [
                self._taint(project, ctx, value, depth)
                for value in expr.values
                if isinstance(value, ast.FormattedValue)
            ]
            if any(reason is None for reason in reasons):
                return None
            return reasons[0] if reasons else "is a constant string"
        if isinstance(expr, (ast.Tuple, ast.List)):
            reasons = [self._taint(project, ctx, element, depth) for element in expr.elts]
            if any(reason is None for reason in reasons):
                return None
            return reasons[0] if reasons else "is an empty literal"
        if isinstance(expr, ast.IfExp):
            body = self._taint(project, ctx, expr.body, depth)
            orelse = self._taint(project, ctx, expr.orelse, depth)
            return body or orelse
        if isinstance(expr, ast.BoolOp):
            reasons = [self._taint(project, ctx, value, depth) for value in expr.values]
            bad = [reason for reason in reasons if reason is not None]
            return bad[0] if bad else None
        return "is an expression this analysis cannot trace to a seed"

    def _taint_name(self, project: Project, ctx: _Ctx, expr: ast.Name, depth: int) -> Optional[str]:
        name = expr.id
        if _seedish(name):
            return None
        values = _assignments(ctx.scope, name)
        if not values and ctx.scope is not ctx.source.tree:
            values = _assignments(ctx.source.tree, name)
        if values:
            reasons = [self._taint(project, ctx, value, depth) for value in values]
            bad = [reason for reason in reasons if reason is not None]
            if not bad:
                return None
            return f"comes through {name!r}, which {bad[0]}"
        if isinstance(ctx.scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = _positional_params(ctx.scope)
            kwonly = [arg.arg for arg in ctx.scope.args.kwonlyargs]
            if name in params or name in kwonly:
                return self._taint_param(project, ctx, ctx.scope, name, depth)
        return f"comes through {name!r}, which is not provably seed-derived"

    def _taint_param(
        self, project: Project, ctx: _Ctx, func: ast.AST, param: str, depth: int
    ) -> Optional[str]:
        """Check what every known call site passes for ``param``."""
        label = f"parameter {param!r} is not seed-named"
        if depth <= 0:
            return label
        fq = project.fq_of(func)
        if fq is None:
            return label
        definition = project.definitions.get(fq)
        if definition is None:
            return label
        params = list(definition.params)
        offset = 1 if params and params[0] in ("self", "cls") else 0
        index = params.index(param) - offset if param in params else None
        sites = project.call_sites.get(fq, [])
        if not sites:
            return f"{label} and no call site in the scanned tree proves its seed flow"
        for site in sites:
            argument = self._argument_at(site.node, index, param)
            if argument is None:
                argument = _default_for(func, param)
                if argument is None:
                    return f"{label} and the call at {site.path}:{site.node.lineno} passes no traceable value"
                site_ctx = ctx
            else:
                site_ctx = self._site_context(project, site)
                if site_ctx is None:
                    return f"{label} and the call at {site.path}:{site.node.lineno} cannot be traced"
            reason = self._taint(project, site_ctx, argument, depth - 1)
            if reason is not None:
                return (
                    f"{label}, and the call at {site.path}:{site.node.lineno} "
                    f"passes a value that {reason}"
                )
        return None

    @staticmethod
    def _argument_at(call: ast.Call, index: Optional[int], param: str) -> Optional[ast.expr]:
        if index is not None and 0 <= index < len(call.args):
            if not any(isinstance(arg, ast.Starred) for arg in call.args[: index + 1]):
                return call.args[index]
        for keyword in call.keywords:
            if keyword.arg == param:
                return keyword.value
        return None

    @staticmethod
    def _site_context(project: Project, site: CallSite) -> Optional[_Ctx]:
        source = project.by_path.get(site.path)
        if source is None:
            return None
        imap = project.import_maps[site.module]
        caller_def = project.definitions.get(site.caller)
        scope: ast.AST = caller_def.node if caller_def is not None else source.tree
        return _Ctx(source, imap, scope)

    def _taint_call(self, project: Project, ctx: _Ctx, expr: ast.Call, depth: int) -> Optional[str]:
        name = call_name(expr.func)
        if name in _SEED_SOURCE_CALLS:
            return None
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in _RNG_DERIVING_METHODS:
            return None
        inputs: List[ast.expr] = list(expr.args) + [kw.value for kw in expr.keywords]
        if isinstance(expr.func, ast.Attribute):
            inputs.append(expr.func.value)
        for candidate in inputs:
            if self._taint(project, ctx, candidate, depth) is None:
                return None
        return f"is the result of {name or 'a call'}() with no seed-derived input"

    # -- closure capture through submission seams --------------------------------------------

    def _check_closure_capture(
        self,
        source: ModuleSource,
        imap: ImportMap,
        call: ast.Call,
        functions: Tuple[ast.AST, ...],
    ) -> Iterator[Finding]:
        assert isinstance(call.func, ast.Attribute)
        payload = call.args[0]
        if isinstance(payload, ast.Lambda):
            free = _free_names(payload)
        elif isinstance(payload, ast.Name) and functions:
            nested = _find_nested_def(functions, payload.id)
            if nested is None:
                return
            free = _free_names(nested)
        else:
            return
        scopes: List[ast.AST] = [source.tree, *functions]
        for name in sorted(free):
            for scope in scopes:
                for value in _assignments(scope, name):
                    if _is_rng_factory(imap, value):
                        yield self.finding(
                            source.path,
                            call.lineno,
                            call.col_offset,
                            f"closure submitted through .{call.func.attr}() captures RNG "
                            f"object {name!r} (bound at line {value.lineno}); pass seeds "
                            "and construct the RNG inside the worker instead",
                        )
                        break
                else:
                    continue
                break


def _is_rng_factory(imap: ImportMap, expr: ast.expr) -> bool:
    """Whether an expression constructs/returns an RNG object."""
    if not isinstance(expr, ast.Call):
        return False
    resolved = imap.resolve(expr.func)
    if resolved == "random.Random":
        return True
    name = call_name(expr.func)
    if name == "RandomStreams":
        return True
    return isinstance(expr.func, ast.Attribute) and expr.func.attr in _RNG_FACTORY_METHODS


def _find_nested_def(functions: Sequence[ast.AST], name: str) -> Optional[ast.AST]:
    """A def named ``name`` in the body of any enclosing function."""
    for func in reversed(list(functions)):
        body = getattr(func, "body", [])
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
                return node
    return None


def _free_names(node: ast.AST) -> FrozenSet[str]:
    """Names a lambda/def loads but does not bind itself."""
    bound: Set[str] = set()
    loaded: Set[str] = set()
    args = getattr(node, "args", None)
    if args is not None:
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            bound.add(arg.arg)
        if args.vararg is not None:
            bound.add(args.vararg.arg)
        if args.kwarg is not None:
            bound.add(args.kwarg.arg)
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, (ast.Store, ast.Del)):
                    bound.add(sub.id)
                else:
                    loaded.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(sub.name)
    return frozenset(loaded - bound)
