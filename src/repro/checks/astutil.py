"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class ImportMap:
    """Alias-aware resolution of local names to dotted import targets.

    Two tables cover the binding forms Python has for imports:

    * ``modules`` — ``import random as rnd`` binds ``rnd`` to module
      ``random`` (dotted imports bind the top-level name unless
      renamed, which is what attribute chains start from);
    * ``symbols`` — ``from random import Random as R`` binds ``R`` to
      ``random.Random``.

    Module-level re-bindings (``r = rnd``) are folded in afterwards, so
    alias chains resolve the same as the original name.  Relative
    imports resolve against the owning module's package when one is
    supplied; with no package context they are skipped rather than
    guessed.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}
        self.symbols: Dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.Module, module: str = "", is_package: bool = False) -> "ImportMap":
        imap = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        imap.modules[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        imap.modules[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = resolve_import_base(node, module, is_package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    imap.symbols[alias.asname or alias.name] = target
        # Fold in module-level alias chains (``r = rnd``) in source order,
        # so later links see earlier ones.
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
            ):
                target_name, source_name = node.targets[0].id, node.value.id
                if source_name in imap.modules:
                    imap.modules[target_name] = imap.modules[source_name]
                elif source_name in imap.symbols:
                    imap.symbols[target_name] = imap.symbols[source_name]
        return imap

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted target of a ``Name``/``Attribute`` chain, alias-resolved.

        ``rnd.Random`` → ``random.Random`` after ``import random as
        rnd``; ``R`` → ``random.Random`` after ``from random import
        Random as R``.  Returns ``None`` when the chain does not start
        from an imported name (e.g. ``self.rng``).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        root = self.modules.get(node.id) or self.symbols.get(node.id)
        if root is None:
            return None
        return ".".join([root, *parts])


def resolve_import_base(node: ast.ImportFrom, module: str, is_package: bool) -> Optional[str]:
    """The dotted module a ``from … import`` statement pulls names from.

    Resolves relative levels against ``module`` (the importing module's
    dotted name); returns ``None`` when the statement is relative but no
    module context is available, or the level climbs past the top.
    """
    if node.level == 0:
        return node.module or ""
    if not module:
        return None
    package_parts = module.split(".") if is_package else module.split(".")[:-1]
    climb = node.level - 1
    if climb > len(package_parts):
        return None
    base_parts = package_parts[: len(package_parts) - climb]
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts)


def import_aliases(tree: ast.Module, modules: Sequence[str]) -> Dict[str, str]:
    """Map local names to the interesting modules they alias.

    ``import time as _time`` → ``{"_time": "time"}``; dotted imports
    (``import os.path``) bind the top-level name, which is what
    attribute chains start from.
    """
    wanted = set(modules)
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in wanted:
                    aliases[alias.asname or top] = top
    return aliases


def walk_with_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Yield ``(node, enclosing_functions)`` for every node in the tree.

    ``enclosing_functions`` is the stack of ``FunctionDef`` /
    ``AsyncFunctionDef`` nodes the node sits inside, outermost first
    (empty at module level).  Used by rules whose verdict depends on
    *where* a construct appears — e.g. ENV001's ``*_from_env`` seam
    convention.
    """
    stack: List[ast.AST] = []

    def visit(node: ast.AST) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
        yield node, tuple(stack)
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_function:
            stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if is_function:
            stack.pop()

    for top in ast.iter_child_nodes(tree):
        yield from visit(top)

