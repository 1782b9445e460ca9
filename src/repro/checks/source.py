"""Parsed source files as the unit every rule operates on.

A :class:`ModuleSource` bundles what a rule needs to inspect one file:
the parsed AST, its ``# repro: allow`` pragmas, and the *dotted
module name* derived from the file path — which is how rules scope
themselves to the packages whose invariants they guard (``repro.sim``
vs. ``repro.experiments`` and so on).  Files that do not parse are
reported as findings by the driver, not raised, so one syntax error
cannot hide every other file's results.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from repro.checks.pragmas import is_allowed, parse_pragmas

PathLike = Union[str, Path]


@dataclass
class ModuleSource:
    """One parsed source file, ready for rule inspection."""

    path: str
    module: str
    text: str
    tree: ast.Module
    pragmas: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    spans: List[Tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_text(cls, text: str, path: str = "<memory>", module: str = "") -> "ModuleSource":
        """Parse source text (fixture entry point for the rule tests)."""
        tree = ast.parse(text, filename=path)
        return cls(
            path=path,
            module=module or module_name_for(Path(path)),
            text=text,
            tree=tree,
            pragmas=parse_pragmas(text.splitlines()),
            spans=statement_spans(tree),
        )

    @classmethod
    def from_file(cls, path: PathLike) -> "ModuleSource":
        """Parse a file from disk (raises ``SyntaxError`` on bad source)."""
        p = Path(path)
        return cls.from_text(p.read_text(), path=str(p), module=module_name_for(p))

    def allows(self, rule_id: str, line: int) -> bool:
        """Whether a ``# repro: allow[...]`` pragma suppresses this line.

        A pragma suppresses a finding on its own line or the line below
        (the classic forms), and — because findings anchor to the
        ``def``/statement line while the pragma naturally sits above the
        decorator or a multi-line statement — anywhere within the same
        statement span, including the line directly above the span.
        """
        if is_allowed(self.pragmas, rule_id, line):
            return True
        rule_id = rule_id.upper()
        for start, end in self.spans:
            if not (start <= line <= end):
                continue
            for pragma_line, ids in self.pragmas.items():
                if rule_id in ids and (start - 1 <= pragma_line <= end):
                    return True
        return False

    def in_package(self, packages: Sequence[str]) -> bool:
        """Whether this module lives under any of the dotted prefixes."""
        for prefix in packages:
            if self.module == prefix or self.module.startswith(prefix + "."):
                return True
        return False


def statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """1-based ``(start, end)`` line spans of every statement header.

    Simple statements span their full extent (a call argument list may
    wrap over several lines).  Compound statements (``def``, ``class``,
    ``if``, ``with``, …) span from their first decorator line to the
    last header line *before* the body starts — a pragma above a
    decorated ``def`` must suppress findings on the ``def`` line without
    blanket-allowing the whole body.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, min(d.lineno for d in decorators))
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(node.lineno, body[0].lineno - 1)
        spans.append((start, end))
    return spans


def module_name_for(path: Path) -> str:
    """Dotted module name from a file path, anchored at the package root.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``;
    ``benchmarks/conftest.py`` → ``benchmarks.conftest``.  The anchor is
    the last path component named ``src`` (the src-layout root) or,
    failing that, the first component named like a top-level package we
    know (``repro``, ``tests``, ``benchmarks``, ``examples``); with no
    anchor the bare stem is used, so fixture files still get a name.
    """
    parts = [part for part in path.parts if part not in (".", "")]
    if not parts:
        return path.stem
    stemmed = list(parts[:-1]) + [Path(parts[-1]).stem]
    if stemmed[-1] == "__init__":
        stemmed = stemmed[:-1]
    if not stemmed:
        return path.stem
    anchors = [index for index, part in enumerate(stemmed) if part == "src"]
    if anchors:
        tail = stemmed[anchors[-1] + 1:]
        return ".".join(tail) if tail else path.stem
    for index, part in enumerate(stemmed):
        if part in ("repro", "tests", "benchmarks", "examples"):
            return ".".join(stemmed[index:])
    return stemmed[-1]


def iter_source_files(paths: Sequence[PathLike]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, sorted, without duplicates.

    Directories are walked recursively; ``__pycache__`` and hidden
    directories are skipped.  Explicit file arguments are yielded even
    without a ``.py`` suffix, so the CLI can check odd layouts on
    request.
    """
    seen = set()
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            candidates: Tuple[Path, ...] = tuple(sorted(root.rglob("*.py")))
        else:
            candidates = (root,)
        for candidate in candidates:
            if any(part == "__pycache__" or part.startswith(".") for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def load_sources(
    paths: Sequence[PathLike],
) -> Tuple[List[ModuleSource], List[Tuple[str, Optional[int], str]]]:
    """Parse every file under ``paths``.

    Returns ``(sources, errors)`` where each error is a ``(path, line,
    message)`` triple for a file that failed to read or parse — the
    driver reports those as findings of the pseudo-rule ``PARSE``.
    """
    sources: List[ModuleSource] = []
    errors: List[Tuple[str, Optional[int], str]] = []
    for path in iter_source_files(paths):
        try:
            sources.append(ModuleSource.from_file(path))
        except SyntaxError as exc:
            errors.append((str(path), exc.lineno, f"syntax error: {exc.msg}"))
        except OSError as exc:
            errors.append((str(path), None, f"cannot read file: {exc}"))
    return sources, errors
