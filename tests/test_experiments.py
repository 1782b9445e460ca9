"""Experiment harness: metrics, scenarios, runner, report."""

import pytest

from repro.experiments.metrics import jains_fairness_index
from repro.experiments.report import format_series, format_table
from repro.experiments.runner import confidence_interval, summarize
from repro.experiments.scenarios import (
    PAPER_LINK_QUALITY,
    linear_scenario,
    mobile_scenario,
    random_scenario,
    testbed_scenario as build_testbed_scenario,
)


class TestFairnessIndex:
    def test_equal_shares_are_fair(self):
        assert jains_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_hog_is_unfair(self):
        assert jains_fairness_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jains_fairness_index([]) == 1.0
        assert jains_fairness_index([0.0, 0.0]) == 1.0


class TestScenarios:
    def test_linear_scenario_end_to_end(self):
        result = linear_scenario(4, protocol="jtp", transfer_bytes=20_000, num_flows=1,
                                 duration=400, seed=1)
        metrics = result.metrics
        assert metrics.protocol == "jtp"
        assert metrics.num_nodes == 4
        assert metrics.delivered_fraction == pytest.approx(1.0)
        assert metrics.energy_per_bit_microjoules > 0
        assert metrics.goodput_kbps > 0

    def test_linear_scenario_requires_two_nodes(self):
        with pytest.raises(ValueError):
            linear_scenario(1)

    def test_same_seed_is_reproducible(self):
        a = linear_scenario(4, transfer_bytes=20_000, num_flows=1, duration=300, seed=7)
        b = linear_scenario(4, transfer_bytes=20_000, num_flows=1, duration=300, seed=7)
        assert a.metrics.energy_joules == pytest.approx(b.metrics.energy_joules)
        assert a.metrics.link_transmissions == b.metrics.link_transmissions

    def test_different_seeds_differ(self):
        a = linear_scenario(5, transfer_bytes=20_000, num_flows=1, duration=300, seed=1,
                            link_quality=PAPER_LINK_QUALITY)
        b = linear_scenario(5, transfer_bytes=20_000, num_flows=1, duration=300, seed=2,
                            link_quality=PAPER_LINK_QUALITY)
        assert a.metrics.link_transmissions != b.metrics.link_transmissions

    def test_random_scenario_delivers_data(self):
        result = random_scenario(10, num_flows=3, transfer_bytes=20_000, duration=500, seed=3)
        assert result.metrics.delivered_bytes > 0
        assert result.metrics.num_flows == 3

    def test_mobile_scenario_runs(self):
        result = mobile_scenario(num_nodes=10, speed=1.0, num_flows=2, transfer_bytes=15_000,
                                 duration=400, seed=2)
        assert result.metrics.delivered_bytes > 0

    def test_testbed_scenario_generates_poisson_workload(self):
        result = build_testbed_scenario(protocol="jtp", num_nodes=8, duration=600,
                                  mean_interarrival=150.0, mean_transfer_bytes=20_000, seed=1)
        assert result.metrics.num_flows >= 4
        assert result.metrics.delivered_bytes > 0


class TestRunner:
    def test_replicate_and_summarize(self):
        results = [
            linear_scenario(3, transfer_bytes=10_000, num_flows=1, duration=200, seed=seed)
            for seed in (1, 2, 3)
        ]
        assert len(results) == 3
        summary = summarize(results, "energy_per_bit_microjoules")
        assert summary["n"] == 3
        assert summary["min"] <= summary["mean"] <= summary["max"]
        assert summary["ci95"] >= 0

    def test_confidence_interval_zero_for_single_sample(self):
        assert confidence_interval([5.0]) == 0.0

    def test_confidence_interval_two_samples(self):
        assert confidence_interval([1.0, 3.0]) > 0

    def test_confidence_interval_level_restriction(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=0.99)

    def test_confidence_interval_df15_regression(self):
        # df=15 used to round *up* to the next table entry t(19)=2.093,
        # making every 16-replication error bar too narrow; the true
        # critical value is t(15)=2.131.
        import math
        import statistics

        values = [float(i) for i in range(16)]
        scale = statistics.stdev(values) / math.sqrt(len(values))
        assert confidence_interval(values) == pytest.approx(2.131 * scale)
        assert confidence_interval(values) > 2.093 * scale

    def test_t_table_exact_for_all_small_samples(self):
        # The acceptance bar: for 2 <= n <= 31 (df 1..30) the critical
        # value is the exact table entry — never a smaller one.
        from repro.experiments.runner import _T_95, t_critical_95

        for n in range(2, 32):
            assert t_critical_95(n - 1) == _T_95[n - 1]

    def test_t_critical_rounds_down_between_entries(self):
        # Between/beyond table entries the lookup rounds *down* to a
        # smaller df, whose critical value is larger — conservative.
        from repro.experiments.runner import t_critical_95

        assert t_critical_95(35) == t_critical_95(30) == 2.042
        assert t_critical_95(50) == 2.021   # t(40), not t(60)
        assert t_critical_95(1000) == 1.980  # t(120), never below
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_t_table_is_monotone_decreasing(self):
        from repro.experiments.runner import _T_95

        keys = sorted(_T_95)
        criticals = [_T_95[k] for k in keys]
        assert criticals == sorted(criticals, reverse=True)


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_column_order_is_the_first_rows_insertion_order(self):
        # The documented contract behind the `repro: allow[DET002]` pragma
        # in report.py: default columns come from the first row's dict, in
        # insertion order, not from any sorted or hash order.
        rows = [{"zeta": 1, "alpha": 2, "mid": 3}, {"alpha": 5, "zeta": 4, "mid": 6}]
        header = format_table(rows).splitlines()[0].split()
        assert header == ["zeta", "alpha", "mid"]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_selected_columns(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_series(self):
        text = format_series([(0.0, 1.0), (10.0, 2.0)], label="rate")
        assert text.startswith("rate:")
        assert "10s" in text

    def test_format_series_empty(self):
        assert "empty" in format_series([])
