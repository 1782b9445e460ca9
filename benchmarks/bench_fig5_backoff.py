"""Figure 5 — fairness of in-network caching (source back-off).

Regenerates the reception-rate time series of two competing flows (one
UDP-like, one reliable JTP flow exercising the caches) with and without
the source back-off for locally recovered packets.
"""

import statistics

from conftest import bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_series


def test_figure5_backoff_fairness(benchmark):
    rows = run_once(
        benchmark, figures.figure5,
        num_nodes=6, duration=700, transfer_bytes=300_000, seed=2, workers=bench_workers(),
    )
    output = {
        variant: {
            name: [(row["time"], row["rate_pps"]) for row in rows
                   if row["variant"] == variant and row["series"] == name]
            for name in ("flow1_short", "flow1_long", "flow2_short", "flow2_long")
        }
        for variant in ("with_backoff", "without_backoff")
    }
    print()
    for variant, series in output.items():
        print(f"-- {variant}")
        print(format_series(series["flow1_long"], label="flow 1 (UDP-like) long-term pps"))
        print(format_series(series["flow2_long"], label="flow 2 (JTP)      long-term pps"))

    def spikiness(series):
        rates = [rate for _, rate in series if rate > 0]
        if len(rates) < 2 or statistics.fmean(rates) == 0:
            return 0.0
        return statistics.pstdev(rates) / statistics.fmean(rates)

    with_backoff = output["with_backoff"]
    without_backoff = output["without_backoff"]
    # Both variants must actually deliver traffic for both flows.
    for variant in (with_backoff, without_backoff):
        assert any(rate > 0 for _, rate in variant["flow1_short"])
        assert any(rate > 0 for _, rate in variant["flow2_short"])
    # The paper's qualitative claim: without back-off, flow 2's reception
    # rate shows spikes (extra in-network retransmissions) relative to
    # its own behaviour when the source backs off.
    print(f"\nflow-2 rate variability: with backoff {spikiness(with_backoff['flow2_short']):.2f}, "
          f"without {spikiness(without_backoff['flow2_short']):.2f}")
