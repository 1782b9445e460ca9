"""Simulation-core profiler: attribution, aggregation, global hook."""

import io
import json

import pytest

from repro.sim import profile
from repro.sim.engine import Simulator


class Ticker:
    def __init__(self, sim, period=1.0):
        self.sim = sim
        self.period = period
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        if self.ticks < 10:
            self.sim.schedule(self.period, self.tick)


def run_workload():
    sim = Simulator()
    ticker = Ticker(sim)
    sim.schedule(1.0, ticker.tick)
    sim.schedule(2.0, lambda: None)
    sim.run()
    return sim


class TestCoreProfiler:
    def test_disabled_by_default(self):
        assert profile.active() is None
        sim = run_workload()
        assert sim.events_processed == 11

    def test_profiled_collects_events_and_attribution(self):
        with profile.profiled() as profiler:
            run_workload()
        assert profile.active() is None  # restored on exit
        assert profiler.events == 11
        assert profiler.runs == 1
        assert profiler.wall_s >= 0.0
        rows = {row["callback"]: row for row in profiler.by_callback()}
        assert rows["Ticker.tick"]["count"] == 10
        assert "run_workload.<locals>.<lambda>" in rows
        fractions = [row["fraction"] for row in profiler.by_callback()]
        assert fractions == sorted(fractions, reverse=True) or len(set(fractions)) < len(fractions)

    def test_results_identical_under_profiling(self):
        plain = run_workload()
        with profile.profiled():
            profiled = run_workload()
        assert profiled.events_processed == plain.events_processed
        assert profiled.now == plain.now

    def test_report_is_json_serialisable_and_top_limits_rows(self):
        with profile.profiled() as profiler:
            run_workload()
        report = profiler.report(top=1)
        json.dumps(report)
        assert len(report["by_callback"]) == 1
        assert report["events"] == 11
        assert report["events_per_sec"] >= 0
        assert "heap_high_water" in report and "heap_compactions" in report

    def test_heap_high_water_tracks_queue_peak(self):
        with profile.profiled() as profiler:
            sim = Simulator()

            def burst():
                for i in range(50):
                    sim.schedule(10.0 + i, lambda: None)

            sim.schedule(1.0, burst)
            sim.run()
        assert profiler.heap_high_water >= 50

    def test_nested_profiled_restores_outer(self):
        with profile.profiled() as outer:
            run_workload()
            with profile.profiled() as inner:
                run_workload()
            assert profile.active() is outer
            run_workload()
        assert inner.events == 11
        assert outer.events == 22
        assert profile.active() is None

    def test_compactions_sum_across_profiled_simulators(self):
        from repro.sim.engine import COMPACT_MIN_CANCELLED

        def churny_sim():
            sim = Simulator()
            victims = []

            def setup():
                for i in range(3 * COMPACT_MIN_CANCELLED):
                    victims.append(sim.schedule(500.0 + i, lambda: None))

            def massacre():
                for victim in victims:
                    victim.cancel()

            sim.schedule(1.0, setup)
            sim.schedule(2.0, massacre)
            sim.run(until=3.0)
            return sim

        with profile.profiled() as profiler:
            first = churny_sim()
            second = churny_sim()
        assert first.heap_compactions >= 1
        # Per-run deltas are summed, not max'd, across simulators.
        assert profiler.compactions == first.heap_compactions + second.heap_compactions

    def test_aggregates_across_multiple_runs(self):
        with profile.profiled() as profiler:
            run_workload()
            run_workload()
        assert profiler.events == 22
        assert profiler.runs == 2

    def test_summary_line(self):
        with profile.profiled() as profiler:
            run_workload()
        line = profiler.summary()
        assert "events/s" in line and "11 events" in line

    def test_callback_label_fallback_for_partials(self):
        import functools

        assert profile.callback_label(functools.partial(print)) == "partial"
        assert profile.callback_label(run_workload) == "run_workload"


class TestProfileFromEnv:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profile.profile_from_env() is False
        assert profile.profile_from_env(default=True) is True

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("yes", True),
        ("0", False), ("false", False), ("no", False), ("", False),
    ])
    def test_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert profile.profile_from_env() is expected


class TestRunPaperIntegration:
    def test_manifest_records_core_profile(self, tmp_path):
        from repro.experiments.presets import run_paper
        from repro.experiments.results import load_run

        run_paper(figures=["figure4b"], seeds="smoke", workers=0,
                  out_dir=tmp_path / "run", profile=True)
        manifest = load_run(tmp_path / "run").manifest
        report = manifest["metadata"]["core_profile"]
        assert report["events"] > 0
        assert report["events_per_sec"] > 0
        assert report["by_callback"], "per-callback attribution missing"

    def test_profile_off_leaves_manifest_clean(self, tmp_path):
        from repro.experiments.presets import run_paper
        from repro.experiments.results import load_run

        run_paper(figures=["figure4b"], seeds="smoke", workers=0,
                  out_dir=tmp_path / "run", profile=False)
        manifest = load_run(tmp_path / "run").manifest
        assert "core_profile" not in manifest["metadata"]

    def test_profiling_on_a_worker_pool_is_rejected(self, tmp_path, monkeypatch):
        # A pool runs every cell in a worker, where the parent's profiler
        # sees nothing: refuse before any cell runs instead of recording
        # a profile of zeros.
        from repro.experiments.presets import run_paper

        with pytest.raises(ValueError, match="workers=0"):
            run_paper(figures=["figure4b"], seeds="smoke", workers=2,
                      out_dir=tmp_path / "run", profile=True)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with pytest.raises(ValueError, match="workers=0"):
            run_paper(figures=["figure4b"], seeds="smoke", workers=2, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_profile_without_out_dir_prints_summary(self, capsys):
        from repro.experiments.presets import run_paper

        run_paper(figures=["figure4b"], seeds="smoke", workers=0, profile=True)
        assert "core profile:" in capsys.readouterr().err


class TestProgressBarsFrontend:
    def test_plain_mode_emits_percent_milestones(self):
        from repro.experiments.progress import ProgressBars

        buffer = io.StringIO()
        bars = ProgressBars(stream=buffer)
        assert bars.tty is False
        bars("figure9", 0, 4)
        bars("figure9", 1, 4)
        bars("figure9", 2, 4)
        bars("figure9", 4, 4)
        output = buffer.getvalue().splitlines()
        assert output[0].startswith("figure9")
        assert "  0% (0/4)" in output[0]
        assert "100% (4/4)" in output[-1]

    def test_plain_mode_throttles_repeat_percentages(self):
        from repro.experiments.progress import ProgressBars

        buffer = io.StringIO()
        bars = ProgressBars(stream=buffer)
        for done in range(0, 1001):
            bars("figure10", done, 1000)
        lines = buffer.getvalue().splitlines()
        # One line per whole percent (0..100), not one per cell.
        assert len(lines) == 101

    def test_tty_mode_redraws_block_in_place(self):
        from repro.experiments.progress import ProgressBars

        class Tty(io.StringIO):
            def isatty(self):
                return True

        buffer = Tty()
        bars = ProgressBars(stream=buffer, width=10)
        bars("figure3", 0, 2)
        bars("figure4", 0, 2)
        bars("figure3", 2, 2)
        output = buffer.getvalue()
        assert "\x1b[" in output  # cursor movement
        assert "figure3" in output and "figure4" in output

    def test_drives_run_paper(self):
        from repro.experiments.presets import run_paper
        from repro.experiments.progress import ProgressBars

        buffer = io.StringIO()
        run_paper(figures=["figure4b", "figure5"], seeds="smoke", workers=0,
                  progress=ProgressBars(stream=buffer))
        output = buffer.getvalue()
        assert "figure4b" in output and "figure5" in output
        assert "100%" in output
