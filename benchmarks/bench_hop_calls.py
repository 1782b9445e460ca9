"""Hop-path call counts — a noise-free gate on the per-frame work.

Wall-clock pairs of the serial benchmark workloads spread by several
percent from run to run, but the number of Python calls a seeded run
makes repeats exactly.  This bench runs the call-count recipe of
``docs/performance.md`` ("Call counts of the hop path") for
``paper_static``, ``paper_random`` and ``faults`` at workload seed 0,
each in a fresh interpreter, and sums cProfile's ``ncalls`` over the
functions defined under ``src/repro``.  Built-ins and functions whose
name starts with ``<`` (comprehensions, lambdas, module bodies) are
left out: CPython 3.12 inlines comprehensions, and the remaining sum is
the same on 3.10, 3.11 and 3.12, so one record serves the CI matrix.

The gate compares each count with the ceiling committed in
``BENCH_calls.json``: a count above its ceiling fails (more work per
frame), a count below it passes with a hint to lower the ceiling.

Run with::

    python -m pytest benchmarks/bench_hop_calls.py -q -s
    python benchmarks/bench_hop_calls.py            # the same gate, as a script
    python benchmarks/bench_hop_calls.py --write    # re-pin the ceilings
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
RECORD_PATH = HERE / "BENCH_calls.json"
WORKLOADS = ("paper_static", "paper_random", "faults")
SEED = 0


def count_calls(workload: str, seed: int = SEED) -> int:
    """Calls into ``src/repro`` functions of one serial ``run_paper`` of ``workload``."""
    import cProfile
    import pstats

    sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "e2e")]
    import repro
    from repro.experiments import run_paper
    from workloads import WORKLOADS as E2E_WORKLOADS

    package = Path(repro.__file__).resolve().parent
    profiler = cProfile.Profile()
    profiler.enable()
    run_paper(workers=0, **E2E_WORKLOADS[workload].run_kwargs(seed))
    profiler.disable()
    total = 0
    for (filename, _line, name), (_cc, ncalls, *_rest) in pstats.Stats(profiler).stats.items():
        if name.startswith("<"):
            continue
        if Path(filename).resolve().is_relative_to(package):
            total += ncalls
    return total


def measure() -> Dict[str, int]:
    """Each workload's count, measured in its own interpreter (no shared caches)."""
    counts: Dict[str, int] = {}
    for workload in WORKLOADS:
        output = subprocess.run(
            [sys.executable, __file__, "--count", workload],
            check=True, capture_output=True, text=True,
        ).stdout
        counts[workload] = int(output.split()[-1])
    return counts


def compare(counts: Dict[str, int], ceilings: Dict[str, int]) -> List[str]:
    """Print one line per workload; return the workloads above their ceiling."""
    over: List[str] = []
    for workload, count in counts.items():
        ceiling = ceilings[workload]
        print(f"{workload}: {count:,} src/repro calls (ceiling {ceiling:,}, {count - ceiling:+,})")
        if count > ceiling:
            over.append(workload)
        elif count < ceiling:
            print(f"  below the ceiling: re-pin with `python {Path(__file__).name} --write`")
    return over


def test_hop_calls_within_ceilings() -> None:
    ceilings = json.loads(RECORD_PATH.read_text())["ceilings"]
    over = compare(measure(), ceilings)
    assert not over, f"call counts above the committed ceilings: {over}"


def main(argv: List[str]) -> int:
    if argv[:1] == ["--count"]:
        print(count_calls(argv[1]))
        return 0
    counts = measure()
    if argv[:1] == ["--write"]:
        record = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {"bench": "hop_calls"}
        record.update(seed=SEED, python=platform.python_version(), ceilings=counts)
        RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {RECORD_PATH.name}: {counts}")
        return 0
    return 1 if compare(counts, json.loads(RECORD_PATH.read_text())["ceilings"]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
