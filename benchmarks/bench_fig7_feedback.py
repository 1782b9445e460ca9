"""Figure 7 — variable-rate vs constant-rate feedback.

Regenerates total energy and queue drops against the constant feedback
rate, plus the variable-rate operating point, for an 8-node chain with
one long-lived flow and several short-lived flows.
"""

from conftest import bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_figure7_feedback_rate(benchmark):
    rows = run_once(
        benchmark, figures.figure7,
        feedback_rates=(0.05, 0.1, 0.33, 0.5), num_nodes=8, duration=700,
        long_transfer_bytes=400_000, short_transfer_bytes=30_000, num_short_flows=3, seed=1,
        workers=bench_workers(),
    )
    print()
    print(format_table(
        rows,
        columns=["feedback", "feedback_rate_pps", "energy_mJ", "queue_drops", "acks", "delivered_fraction"],
        title="Figure 7: energy and queue drops vs feedback rate",
    ))
    by_label = {row["feedback"]: row for row in rows}
    variable = by_label["variable"]
    fastest_constant = by_label["constant_0.5"]
    # Frequent constant feedback burns more energy than variable feedback (Fig. 7a).
    assert variable["energy_mJ"] <= fastest_constant["energy_mJ"]
    # The ACK count is what drives that difference.
    assert variable["acks"] < fastest_constant["acks"]
