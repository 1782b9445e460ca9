"""Figure 8 — PI²/MD rate adaptation of two competing JTP flows.

Regenerates the reception-rate series of a long-lived flow and a
short-lived competitor, plus the long-lived flow's path-monitor view
(reported available rate, flip-flop mean and control limits).
"""

import statistics

from conftest import bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_series


def test_figure8_competing_flows(benchmark):
    rows = run_once(
        benchmark, figures.figure8,
        num_nodes=6, duration=800, flow2_start=250.0, flow2_duration=200.0, seed=4, workers=bench_workers(),
    )
    output = {
        name: [(row["time"], row["value"]) for row in rows if row["series"] == name]
        for name in ("flow1_rate", "flow2_rate", "flow1_monitor_mean", "flow2_interval")
    }
    print()
    print(format_series(output["flow1_rate"], label="flow 1 reception rate (pps)"))
    print(format_series(output["flow2_rate"], label="flow 2 reception rate (pps)"))
    print(format_series(output["flow1_monitor_mean"], label="flow 1 monitor mean (pps)"))

    ((start, end),) = output["flow2_interval"]

    def mean_rate(series, lo, hi):
        values = [rate for t, rate in series if lo <= t <= hi]
        return statistics.fmean(values) if values else 0.0

    alone_before = mean_rate(output["flow1_rate"], 100.0, start)
    sharing = mean_rate(output["flow1_rate"], start + 30.0, end)
    flow2_active = mean_rate(output["flow2_rate"], start + 30.0, end)

    print(f"\nflow 1 alone: {alone_before:.2f} pps, while sharing: {sharing:.2f} pps, "
          f"flow 2 while active: {flow2_active:.2f} pps")
    # Flow 2 actually gets a share of the path while it is active.
    assert flow2_active > 0.2
    # Flow 1 concedes bandwidth while the competitor is active.
    assert sharing <= alone_before * 1.05
    # The flip-flop monitor produced a usable filtered view.
    assert len(output["flow1_monitor_mean"]) > 10
