"""Absolute identity anchor: pinned output digests of the smoke run.

Serial-vs-process identity (``test_backends.py``) only proves that two
executors agree with each other.  This test proves that the current code
computes the *same* results as the code that pinned ``golden/smoke.json``:
every figure of ``run_paper(seeds="smoke")`` and every fault-injection
family at ``seeds="smoke"``, serial, hashed with the canonical rule of
``benchmarks/e2e/child.py`` (sha256 of ``json.dumps(rows, sort_keys=True,
default=str)``).

An intentional result change re-pins the digests in an isolated commit
that explains it (docs/performance.md rule 1)::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "smoke.json"


def smoke_digests() -> Dict[str, str]:
    """Digest of every figure and fault family at the smoke preset, serially."""
    from repro.experiments import ALL_FIGURES, WORKLOAD_JOBS, run_paper

    names = [job.name for job in ALL_FIGURES + WORKLOAD_JOBS]
    rows = run_paper(figures=names, seeds="smoke", workers=0)
    return {
        name: hashlib.sha256(json.dumps(figure_rows, sort_keys=True, default=str).encode("utf-8")).hexdigest()
        for name, figure_rows in rows.items()
    }


def test_smoke_digests_match_the_pinned_golden_file():
    pinned = json.loads(GOLDEN_PATH.read_text())["digests"]
    current = smoke_digests()
    assert sorted(current) == sorted(pinned), "figure set changed; re-pin tests/golden/smoke.json"
    changed = {name: (pinned[name][:12], digest[:12]) for name, digest in current.items() if digest != pinned[name]}
    assert not changed, f"results changed against tests/golden/smoke.json (pinned, now): {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    record = json.loads(GOLDEN_PATH.read_text())
    record["digests"] = smoke_digests()
    GOLDEN_PATH.write_text(json.dumps(record, indent=2) + "\n")
