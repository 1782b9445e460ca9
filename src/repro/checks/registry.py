"""The pluggable rule registry.

A rule is a class with an ``id``, a one-line ``summary``, an optional
``packages`` scope (dotted prefixes; empty means every file), and a
``check(...)`` method yielding :class:`~repro.checks.findings.Finding`
objects; why each rule exists is its **Why** paragraph in
``docs/checks.md``.  Rules register themselves with the
:func:`register` decorator at import time; the CLI and the test suite
both discover them through :func:`all_rules`.

Two tiers share the registry:

* :class:`Rule` — per-file: ``check(source)`` sees one
  :class:`~repro.checks.source.ModuleSource` at a time;
* :class:`ProjectRule` — whole-program: ``check(project)`` sees the
  :class:`~repro.checks.project.Project` built from *every* scanned
  module at once (import graph, symbol index, call graph), which is
  what cross-module rules like ARCH001 and SEED001 need.

Pragma handling is centralised here: the ``run`` methods filter out any
finding whose line carries a matching ``# repro: allow[...]`` pragma,
so individual rules never need to re-implement suppression.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.checks.findings import Finding
from repro.checks.source import ModuleSource

if TYPE_CHECKING:
    from repro.checks.project import Project


class BaseRule(ABC):
    """Metadata shared by both rule tiers."""

    #: Stable identifier, e.g. ``"DET001"`` — what pragmas refer to.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    summary: str = ""
    #: Dotted package prefixes the rule applies to (empty = everywhere).
    packages: Tuple[str, ...] = ()


class Rule(BaseRule):
    """Base class for one per-file static-analysis rule."""

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


class ProjectRule(BaseRule):
    """Base class for one whole-program static-analysis rule."""

    @abstractmethod
    def check(self, project: "Project") -> Iterator[Finding]:
        """Yield raw findings over the whole project (pragmas not yet applied)."""

    def run(self, project: "Project") -> List[Finding]:
        """Check the project, honouring each file's allowlist pragmas."""
        kept: List[Finding] = []
        for finding in self.check(project):
            source = project.by_path.get(finding.path)
            if source is not None and source.allows(finding.rule_id, finding.line):
                continue
            kept.append(finding)
        return kept

    def finding(self, path: str, line: int, column: int, message: str) -> Finding:
        """Convenience constructor stamping this rule's id."""
        return Finding(path=path, line=line, column=column, rule_id=self.id, message=message)


_REGISTRY: Dict[str, Type[BaseRule]] = {}


def register(rule_cls: Type[BaseRule]) -> Type[BaseRule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    rule_id = rule_cls.id
    if not rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id!r}: {existing.__name__} and {rule_cls.__name__}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> List[BaseRule]:
    """Instantiate every registered rule (both tiers), sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> BaseRule:
    """Instantiate one rule by id (``KeyError`` if unknown)."""
    _load_builtin_rules()
    return _REGISTRY[rule_id.upper()]()


def select_rules(rule_ids: Optional[Sequence[str]] = None) -> List[BaseRule]:
    """The rules to run: all of them, or the ids named in ``rule_ids``."""
    if not rule_ids:
        return all_rules()
    return [get_rule(rule_id) for rule_id in rule_ids]


def run_rules(
    sources: Iterable[ModuleSource], rules: Optional[Sequence[BaseRule]] = None
) -> List[Finding]:
    """Run ``rules`` (default: all registered) over ``sources``, sorted.

    Per-file rules see each module independently; project rules see one
    :class:`~repro.checks.project.Project` built from all of them —
    whole-program context is exactly what distinguishes the tier, so a
    partial source list (e.g. scanning only ``benchmarks/``) simply
    gives project rules a smaller world to reason about.
    """
    active = list(rules) if rules is not None else all_rules()
    source_list = list(sources)
    file_rules = [rule for rule in active if isinstance(rule, Rule)]
    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]
    findings: List[Finding] = []
    for source in source_list:
        for rule in file_rules:
            findings.extend(rule.run(source))
    if project_rules:
        from repro.checks.project import Project

        project = Project(source_list)
        for project_rule in project_rules:
            findings.extend(project_rule.run(project))
    return sorted(findings)


def _load_builtin_rules() -> None:
    """Import the built-in rule modules so their ``@register`` calls run."""
    from repro.checks import rules  # noqa: F401  (import side effect)
