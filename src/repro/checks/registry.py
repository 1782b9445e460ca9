"""The pluggable rule registry.

A rule is a class with an ``id``, a one-line ``summary``, an optional
``packages`` scope (dotted prefixes; empty means every file), and a
``check(source)`` method yielding :class:`~repro.checks.findings.Finding`
objects for one :class:`~repro.checks.source.ModuleSource`; why each
rule exists is its **Why** paragraph in ``docs/checks.md``.  Rules
register themselves with the :func:`register` decorator at import time;
the CLI and the test suite both discover them through :func:`all_rules`.

Pragma handling is centralised here: :meth:`Rule.run` filters out any
finding whose line carries a matching ``# repro: allow[...]`` pragma,
so individual rules never need to re-implement suppression.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.checks.findings import Finding
from repro.checks.source import ModuleSource


class Rule(ABC):
    """Base class for one static-analysis rule."""

    #: Stable identifier, e.g. ``"DET001"`` — what pragmas refer to.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    summary: str = ""
    #: Dotted package prefixes the rule applies to (empty = everywhere).
    packages: Tuple[str, ...] = ()

    @abstractmethod
    def check(self, source: ModuleSource) -> Iterator[Finding]:
        """Yield raw findings for one module (pragmas not yet applied)."""

    def applies_to(self, source: ModuleSource) -> bool:
        """Whether this rule inspects ``source`` at all."""
        return not self.packages or source.in_package(self.packages)

    def run(self, source: ModuleSource) -> List[Finding]:
        """Check one module, honouring its allowlist pragmas."""
        if not self.applies_to(source):
            return []
        return [
            finding
            for finding in self.check(source)
            if not source.allows(finding.rule_id, finding.line)
        ]

    def finding(self, source: ModuleSource, line: int, column: int, message: str) -> Finding:
        """Convenience constructor stamping this rule's id."""
        return Finding(path=source.path, line=line, column=column, rule_id=self.id, message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    rule_id = rule_cls.id
    if not rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id!r}: {existing.__name__} and {rule_cls.__name__}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one rule by id (``KeyError`` if unknown)."""
    _load_builtin_rules()
    return _REGISTRY[rule_id.upper()]()


def select_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """The rules to run: all of them, or the ids named in ``rule_ids``."""
    if not rule_ids:
        return all_rules()
    return [get_rule(rule_id) for rule_id in rule_ids]


def run_rules(
    sources: Iterable[ModuleSource], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run ``rules`` (default: all registered) over ``sources``, sorted."""
    active = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    for source in sources:
        for rule in active:
            findings.extend(rule.run(source))
    return sorted(findings)


def _load_builtin_rules() -> None:
    """Import the built-in rule modules so their ``@register`` calls run."""
    from repro.checks import rules  # noqa: F401  (import side effect)
