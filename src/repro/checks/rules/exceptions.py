"""EXC001: no silent swallowing of broad exceptions.

A worker crash that vanishes into ``except Exception: pass`` turns a
failed sweep into a quietly incomplete one — the aggregates still
compute, the figures still render, and the missing cells only surface
when someone diffs the numbers against the paper.  Broad handlers are
allowed to *handle* (retry, record, refill, re-raise); they may not be
empty.  The sanctioned teardown paths that really do want best-effort
semantics carry a justified ``# repro: allow[EXC001]`` pragma, each
backed by a test proving the swallow cannot mask a batch failure.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.checks.astutil import ImportMap
from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import ModuleSource

#: Exception heads that catch (almost) everything.
_BROAD = frozenset({"Exception", "BaseException"})


def _is_silent_body(body: List[ast.stmt]) -> bool:
    """A handler body that does nothing with what it caught."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Continue):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / Ellipsis
        return False
    return True


def _broad_name(node: Optional[ast.expr]) -> Optional[str]:
    """The broad exception a handler clause catches, if any."""
    if node is None:
        return "everything (bare except)"
    if isinstance(node, ast.Name) and node.id in _BROAD:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _BROAD:
        return node.attr
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            name = _broad_name(element)
            if name is not None:
                return name
    return None


@register
class SilentSwallowRule(Rule):
    """EXC001: broad exception handlers must handle, not swallow."""

    id = "EXC001"
    summary = "no bare/broad except with an empty body, and no contextlib.suppress(Exception)"
    packages = ("repro", "benchmarks", "examples")

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        imap = ImportMap.from_tree(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ExceptHandler):
                broad = _broad_name(node.type)
                if broad is not None and _is_silent_body(node.body):
                    yield self.finding(
                        source,
                        node.lineno,
                        node.col_offset,
                        f"except clause catches {broad} and silently discards it; "
                        "handle it, re-raise, or narrow the exception type",
                    )
            elif isinstance(node, ast.Call):
                resolved = imap.resolve(node.func)
                if resolved != "contextlib.suppress":
                    continue
                caught = [arg for arg in node.args if _broad_name(arg) is not None]
                if caught or not node.args:
                    yield self.finding(
                        source,
                        node.lineno,
                        node.col_offset,
                        "contextlib.suppress of a broad exception hides failures "
                        "wholesale; narrow it, or pragma the sanctioned teardown "
                        "path with a justification",
                    )
