"""Command-line driver: ``python -m repro.checks [options] [paths…]``.

Exit status is 0 when there are no findings (and no unparseable
files), 1 when findings exist, 2 on usage errors — so the CI ``checks``
job and ``tests/test_checks.py::TestSelfScan`` gate on it directly.

* ``--format json`` emits the machine-readable report CI uploads as an
  artifact.
* ``--list-rules`` prints the rule catalogue.

The default scan surface is every tree the repository gates: ``src``,
``benchmarks`` and ``examples`` (directories that do not exist are
skipped, so the CLI works from a partial checkout).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from repro.checks.findings import Finding
from repro.checks.registry import Rule, all_rules, select_rules, run_rules
from repro.checks.source import load_sources

#: Pseudo rule id used for files that fail to parse.
PARSE_RULE_ID = "PARSE"

#: Trees scanned when no paths are given (missing ones are skipped).
DEFAULT_PATHS = ("src", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="Determinism & contract static analysis for the repro package.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to check (default: src benchmarks examples)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def list_rules(stream: TextIO) -> None:
    for rule in all_rules():
        scope = ", ".join(rule.packages) if rule.packages else "all packages"
        stream.write(f"{rule.id}  {rule.summary}\n")
        stream.write(f"        scope: {scope}\n")


def default_paths() -> List[str]:
    present = [path for path in DEFAULT_PATHS if Path(path).is_dir()]
    return present or [DEFAULT_PATHS[0]]


def collect_findings(paths: Sequence[str], rules: Sequence[Rule]) -> List[Finding]:
    """Scan ``paths`` with ``rules``; returns the sorted findings."""
    sources, errors = load_sources(paths)
    findings = [
        Finding(path=path, line=line or 1, column=0, rule_id=PARSE_RULE_ID, message=message)
        for path, line, message in errors
    ]
    findings.extend(run_rules(sources, rules))
    return sorted(findings)


def render_text(findings: Sequence[Finding], stream: TextIO) -> None:
    for finding in findings:
        stream.write(finding.render() + "\n")
    noun = "finding" if len(findings) == 1 else "findings"
    stream.write(f"{len(findings)} {noun}\n")


def render_json(findings: Sequence[Finding], stream: TextIO) -> None:
    report = {
        "findings": [finding.as_dict() for finding in findings],
        "count": len(findings),
    }
    json.dump(report, stream, indent=2, sort_keys=True)
    stream.write("\n")


def main(argv: Optional[Sequence[str]] = None, stream: Optional[TextIO] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    out = stream if stream is not None else sys.stdout
    if options.list_rules:
        list_rules(out)
        return 0
    rule_ids: Optional[List[str]] = None
    if options.rules:
        rule_ids = [part.strip() for part in options.rules.split(",") if part.strip()]
    paths: List[str] = options.paths if options.paths else default_paths()
    try:
        rules = select_rules(rule_ids)
    except KeyError as exc:
        parser.error(f"unknown rule id {exc.args[0]!r}")
    findings = collect_findings(paths, rules)
    if options.format == "json":
        render_json(findings, out)
    else:
        render_text(findings, out)
    return 1 if findings else 0
