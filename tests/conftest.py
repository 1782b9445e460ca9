"""Fixtures shared by more than one test module."""

from pathlib import Path

import pytest

from repro.experiments.backends import SerialBackend
from repro.experiments.presets import run_paper

#: Per-figure overrides that shrink the whole paper to test scale.
#: Trace figures keep >= 4 nodes: figure3c records at node index 2,
#: which a 3-node chain's sink never reports.
TINY_OVERRIDES = {
    "figure3": {"net_sizes": (3,), "tolerances": (0.0, 0.10), "transfer_bytes": 6_000, "duration": 60},
    "figure3c": {"num_nodes": 4, "tolerances": (0.10,), "transfer_bytes": 20_000, "duration": 120},
    "figure4": {"net_sizes": (3,), "transfer_bytes": 6_000, "duration": 60},
    "figure4b": {"num_nodes": 3, "transfer_bytes": 6_000, "duration": 60},
    "figure5": {"num_nodes": 4, "duration": 120, "transfer_bytes": 30_000},
    "figure6": {"cache_sizes": (2, 10), "net_sizes": (4,), "transfer_bytes": 6_000, "duration": 60},
    "figure7": {"feedback_rates": (0.2,), "num_nodes": 4, "duration": 100,
                    "long_transfer_bytes": 20_000, "short_transfer_bytes": 4_000, "num_short_flows": 1},
    "figure8": {"num_nodes": 4, "duration": 200, "flow2_start": 60.0, "flow2_duration": 60.0},
    "figure9": {"net_sizes": (3,), "transfer_bytes": 8_000, "duration": 60},
    "figure10": {"net_sizes": (8,), "num_flows": 2, "transfer_bytes": 5_000, "duration": 60},
    "figure11": {"speeds": (1.0,), "num_nodes": 8, "num_flows": 2, "transfer_bytes": 5_000, "duration": 60},
    "table2": {"num_nodes": 6, "duration": 120},
}


def build_tiny_run(out_dir: Path):
    """Run every figure at ``TINY_OVERRIDES`` serially into ``out_dir``; returns the rows."""
    return run_paper(seeds="smoke", backend=SerialBackend(), overrides=TINY_OVERRIDES, out_dir=out_dir)


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """A persisted full-paper run (every figure, test-sized)."""
    out_dir = tmp_path_factory.mktemp("plots") / "run"
    return out_dir, build_tiny_run(out_dir)
