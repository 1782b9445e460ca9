"""Contract rules: PKL001 (picklable work), ENV001 (env seams).

Each guards a cross-module seam whose breakage shows up far from the
offending line: an unpicklable callable handed to a process backend
fails only when the fork fallback is unavailable; a stray ``os.environ``
read silently invalidates the README's env-var table.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.checks.astutil import import_aliases, nested_function_names, walk_with_functions
from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import ModuleSource


@register
class PicklableSubmissionRule(Rule):
    """PKL001: work submitted to ``map``/``imap`` must be picklable."""

    id = "PKL001"
    summary = "no lambdas, nested functions or open handles through map/imap call sites"
    rationale = (
        "ExecutorBackend.map/imap cross a process boundary: lambdas and "
        "closure-bound nested functions pickle only under the fork "
        "start-method fallback, so they work on one machine and crash on "
        "the next (the fork-fallback bug class from the parallel-runner "
        "PR). Submit module-level functions and plain-data arguments."
    )
    packages = ()

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        nested = nested_function_names(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ("map", "imap") or not node.args:
                continue
            yield from self._check_callable(source, node.args[0], nested)
            for arg in [*node.args[1:], *[kw.value for kw in node.keywords]]:
                yield from self._check_payload(source, arg)

    def _check_callable(
        self, source: ModuleSource, func: ast.expr, nested: Dict[str, int]
    ) -> Iterator[Finding]:
        if isinstance(func, ast.Lambda):
            yield self.finding(
                source, func.lineno, func.col_offset,
                "lambda submitted through map/imap cannot be pickled; use a module-level function",
            )
        elif isinstance(func, ast.Name) and func.id in nested:
            yield self.finding(
                source, func.lineno, func.col_offset,
                f"{func.id!r} (nested function defined at line {nested[func.id]}) "
                "submitted through map/imap cannot be pickled; hoist it to module level",
            )
        elif isinstance(func, ast.Call) and self._is_partial(func.func) and func.args:
            yield from self._check_callable(source, func.args[0], nested)

    def _check_payload(self, source: ModuleSource, arg: ast.expr) -> Iterator[Finding]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                yield self.finding(
                    source, node.lineno, node.col_offset,
                    "open file handle in a map/imap payload cannot cross the process boundary; pass the path",
                )

    @staticmethod
    def _is_partial(func: ast.expr) -> bool:
        return (isinstance(func, ast.Name) and func.id == "partial") or (
            isinstance(func, ast.Attribute) and func.attr == "partial"
        )


@register
class EnvironmentSeamRule(Rule):
    """ENV001: environment reads only in documented ``*_from_env`` seams."""

    id = "ENV001"
    summary = "os.environ/os.getenv reads only inside *_from_env config seams"
    rationale = (
        "The README documents every environment variable the package "
        "reads, and each one is read exactly once, in a function named "
        "*_from_env (workers_from_env, profile_from_env, …). A stray "
        "os.environ.get elsewhere is an undocumented knob that changes "
        "behaviour between hosts without appearing in any run manifest. "
        "Driver trees (benchmarks/, examples/) are gated too — a bench "
        "conftest knob is still a knob."
    )
    packages = ("repro", "benchmarks", "examples")

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        aliases = import_aliases(source.tree, ("os",))
        from_imports = self._env_from_imports(source.tree)
        for node, functions in walk_with_functions(source.tree):
            name = self._env_read_name(node, aliases, from_imports)
            if name is None:
                continue
            if any(
                isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                and func.name.endswith("_from_env")
                for func in functions
            ):
                continue
            yield self.finding(
                source, node.lineno, node.col_offset,
                f"{name} read outside a *_from_env config seam; route it through "
                "a documented seam function so the README env-var table stays honest",
            )

    @staticmethod
    def _env_from_imports(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os" and node.level == 0:
                for alias in node.names:
                    if alias.name in ("environ", "getenv"):
                        names.add(alias.asname or alias.name)
        return names

    @staticmethod
    def _env_read_name(
        node: ast.AST, aliases: Dict[str, str], from_imports: Set[str]
    ) -> Optional[str]:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if aliases.get(node.value.id) == "os" and node.attr in ("environ", "getenv"):
                return f"os.{node.attr}"
        if isinstance(node, ast.Name) and node.id in from_imports:
            return f"os.{node.id}"
        return None

