"""Contract rule ENV001: environment reads only in documented seams.

It guards a cross-module seam whose breakage shows up far from the
offending line: a stray ``os.environ`` read silently invalidates the
README's env-var table.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.checks.astutil import import_aliases, walk_with_functions
from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import ModuleSource


@register
class EnvironmentSeamRule(Rule):
    """ENV001: environment reads only in documented ``*_from_env`` seams."""

    id = "ENV001"
    summary = "os.environ/os.getenv reads only inside *_from_env config seams"
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

