"""Determinism & contract static analysis for the repro package.

An AST-based rule suite (stdlib :mod:`ast` only) enforcing the
invariants behind the bit-identity contract of ``docs/performance.md``
and the cross-module seams that runtime tests only catch after the
fact.  See ``docs/checks.md`` for the rule catalogue.

Usage::

    python -m repro.checks [--format text|json] [--rules DET001,…] [paths…]

The exit status is the gate: 0 when the scan is clean, 1 on findings.

Suppress a deliberate, justified violation with a pragma on the line or
the line above::

    columns = list(rows[0].keys())  # repro: allow[DET002] insertion order pinned by test

Rules live in :mod:`repro.checks.rules` and register themselves through
:func:`repro.checks.registry.register`; the registry, pragma parser and
CLI are all importable for programmatic use (the fixture tests drive
:func:`repro.checks.registry.run_rules` directly on in-memory sources).
"""

from repro.checks.findings import Finding
from repro.checks.registry import (
    Rule,
    all_rules,
    get_rule,
    register,
    run_rules,
    select_rules,
)
from repro.checks.source import ModuleSource, load_sources

__all__ = [
    "Finding",
    "ModuleSource",
    "Rule",
    "all_rules",
    "get_rule",
    "load_sources",
    "register",
    "run_rules",
    "select_rules",
]
