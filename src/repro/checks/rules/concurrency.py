"""Concurrency contracts for the scheduler/backends layer.

ASY002 (per-file): every ``Pipe``/``Process``/``Popen``/``Thread`` resource
acquired inside a function in ``repro.experiments.scheduler`` /
``repro.experiments.backends`` must be closed/joined on all exception
paths, or handed off (stored on ``self``, passed to a constructor,
returned).  The scheduler's worker constructor acquires a pipe and a
process for every worker slot and every respawn; leaked pipes keep
worker processes alive past scheduler shutdown and exhaust file
descriptors over a long sweep.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from repro.checks.astutil import call_name
from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import ModuleSource

#: The concurrency layer ASY002 scopes itself to.
_CONCURRENCY_MODULES = ("repro.experiments.scheduler", "repro.experiments.backends")

#: Constructors whose result owns an OS resource needing release.
_RESOURCE_CTORS = frozenset({"Pipe", "Process", "Popen", "Thread"})

#: Method names that release such a resource.
_RELEASE_METHODS = frozenset({"close", "terminate", "kill", "join", "shutdown"})


@register
class ResourceLifecycleRule(Rule):
    """ASY002: acquired Connection/Process resources are released on all paths."""

    id = "ASY002"
    summary = "Pipe/Process/Thread resources acquired in the scheduler layer are closed/joined on all exception paths"
    rationale = (
        "The scheduler acquires a pipe and a worker process for every "
        "worker slot and every respawn after a crash or timeout; one "
        "leaked Connection keeps its worker alive past shutdown and "
        "a long sweep exhausts file descriptors. A resource must be "
        "released on every path (finally/with), or ownership must "
        "visibly move — stored on self, passed to a constructor, or "
        "returned."
    )
    packages = _CONCURRENCY_MODULES

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node)

    def _check_function(
        self, source: ModuleSource, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        acquisitions = self._acquisitions(func)
        if not acquisitions:
            return
        for name, acquired in acquisitions:
            if self._escapes(func, name, acquired):
                continue
            releases = self._releases(func, name)
            if not releases:
                yield self.finding(
                    source,
                    acquired.lineno,
                    acquired.col_offset,
                    f"{name!r} acquired here is never closed/joined and never "
                    "leaves this function; release it in a finally block or a "
                    "with statement",
                )
                continue
            if not self._release_is_exception_safe(func, acquired, releases):
                yield self.finding(
                    source,
                    acquired.lineno,
                    acquired.col_offset,
                    f"{name!r} is released only on the straight-line path; a "
                    "call between acquisition and release can raise and leak "
                    "it — move the release into a finally block",
                )

    @staticmethod
    def _scope_statements(func: ast.AST) -> Iterator[ast.AST]:
        """All nodes in the function, excluding nested function scopes."""
        stack: List[ast.AST] = list(getattr(func, "body", []))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    def _acquisitions(self, func: ast.AST) -> List[Tuple[str, ast.stmt]]:
        found: List[Tuple[str, ast.stmt]] = []
        for node in self._scope_statements(func):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            ctor = call_name(node.value.func)
            if ctor not in _RESOURCE_CTORS:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found.append((target.id, node))
                elif isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            found.append((element.id, node))
        return found

    def _escapes(self, func: ast.AST, name: str, acquired: ast.stmt) -> bool:
        """Ownership visibly leaves the function (or enters a manager)."""
        for node in self._scope_statements(func):
            if node is acquired:
                continue
            if isinstance(node, ast.Call):
                for argument in [*node.args, *[kw.value for kw in node.keywords]]:
                    if self._mentions(argument, name):
                        return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and self._mentions(node.value, name):
                    return True
            elif isinstance(node, ast.Assign):
                stored = any(
                    isinstance(target, (ast.Attribute, ast.Subscript)) for target in node.targets
                )
                if stored and self._mentions(node.value, name):
                    return True
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, (ast.Attribute, ast.Subscript))
                    and node.value is not None
                    and self._mentions(node.value, name)
                ):
                    return True
            elif isinstance(node, ast.withitem):
                if self._mentions(node.context_expr, name):
                    return True
        return False

    @staticmethod
    def _mentions(expr: ast.expr, name: str) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id == name for node in ast.walk(expr)
        )

    def _releases(self, func: ast.AST, name: str) -> List[ast.Call]:
        calls: List[ast.Call] = []
        for node in self._scope_statements(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                calls.append(node)
        return calls

    def _release_is_exception_safe(
        self, func: ast.AST, acquired: ast.stmt, releases: Sequence[ast.Call]
    ) -> bool:
        protected: Set[int] = set()
        for node in self._scope_statements(func):
            if isinstance(node, ast.Try):
                for region in [*node.finalbody, *[h for handler in node.handlers for h in handler.body]]:
                    for sub in ast.walk(region):
                        protected.add(id(sub))
        if any(id(release) in protected for release in releases):
            return True
        # Straight-line release: fine only if nothing that can raise runs
        # between acquisition and the first release.
        first_release = min(release.lineno for release in releases)
        for node in self._scope_statements(func):
            if (
                isinstance(node, ast.Call)
                and node not in releases
                and acquired.lineno < node.lineno < first_release
            ):
                return False
        return True
