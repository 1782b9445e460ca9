"""The plotting subsystem: specs, the renderer, run rendering, comparison.

The suite pins three layers:

* the **PlotSpec registry** — every figure ``run_paper()`` regenerates
  has a spec, and every spec names only columns its figure's rows
  actually produce (schema pins, so a renamed row key breaks loudly);
* the **renderer** — a tiny full-paper run (every figure, drastically
  shrunk) persists to a run directory and renders to one valid PNG per
  figure, trace figures included, with nothing re-simulated;
* **run comparison** — overlay/delta images for compatible runs, a
  :class:`RunMismatchError` for runs whose manifests disagree on what
  was simulated, and ``force=True`` to override.
"""

import json
import shutil

import pytest

from repro.experiments.presets import ALL_FIGURES, WORKLOAD_JOBS
from repro.experiments.results import load_run
from repro.plots import AxesSpec, PlotSpec, RunMismatchError, compare_runs, render_run
from repro.plots import mini_png
from repro.plots.cli import main as plots_main
from repro.plots.compare import manifest_mismatches
from repro.plots.render import PANEL_WIDTH, default_specs, prepare_figure, render_figure

#: Figure name -> PlotSpec, read off the registry records.
SPECS = default_specs()


def _assert_png(path):
    data = path.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n", f"{path} is not a PNG"
    width, height = mini_png.png_size(data)
    assert width == PANEL_WIDTH and height > 0
    return data


class TestPlotSpecs:
    def test_every_figure_has_a_spec(self):
        for job in ALL_FIGURES + WORKLOAD_JOBS:
            assert isinstance(job.plot, PlotSpec), job.name
            assert job.plot.figure == job.name

    def test_specs_name_only_columns_the_rows_carry(self, tiny_run):
        _, results = tiny_run
        for name, rows in results.items():
            assert rows, f"{name} produced no rows at test scale"
            columns = set().union(*(row.keys() for row in rows))
            spec = SPECS[name]
            named = {spec.x, *spec.series, *(panel.y for panel in spec.axes)}
            named |= {panel.yerr for panel in spec.axes if panel.yerr}
            missing = named - columns
            assert not missing, f"{name} spec names absent columns {missing}"

    def test_figure9_spec_schema_pins(self):
        spec = SPECS["figure9"]
        assert spec.x == "netSize"
        assert spec.series == ("protocol",)
        assert [(panel.y, panel.yerr) for panel in spec.axes] == [
            ("energy_per_bit_uJ", "energy_per_bit_ci"),
            ("goodput_kbps", "goodput_ci"),
        ]

    def test_paper_log_scales(self):
        assert SPECS["figure6"].logx      # cache sizes 2..100
        assert SPECS["figure11"].logx     # node speeds 0.1..5
        assert SPECS["figure4b"].axes[0].kind == "bar"
        assert SPECS["figure8"].exclude == ("flow2_interval",)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlotSpec(figure="x", x="t", axes=())
        with pytest.raises(ValueError):
            AxesSpec(y="v", kind="pie")


class TestPrepareFigure:
    SPEC = PlotSpec(
        figure="demo", x="t", series=("proto",),
        axes=(AxesSpec(y="v", yerr="ci"),),
    )

    def test_groups_sorts_and_extracts_errors(self):
        rows = [
            {"t": 2.0, "proto": "a", "v": 20.0, "ci": 2.0},
            {"t": 1.0, "proto": "a", "v": 10.0, "ci": 1.0},
            {"t": 1.0, "proto": "b", "v": 5.0, "ci": 0.5},
        ]
        data = prepare_figure(rows, self.SPEC)
        assert data.categories is None
        series = {s.label: s for s in data.panels[0].series}
        assert series["a"].xs == (1.0, 2.0)          # numeric x sorted
        assert series["a"].ys == (10.0, 20.0)
        assert series["a"].errs == (1.0, 2.0)
        assert series["b"].xs == (1.0,)

    def test_non_finite_and_missing_values_are_skipped(self):
        rows = [
            {"t": 1.0, "proto": "a", "v": float("inf"), "ci": 1.0},
            {"t": 2.0, "proto": "a", "v": 7.0},
            {"t": 3.0, "proto": "a", "v": None, "ci": 1.0},
        ]
        data = prepare_figure(rows, self.SPEC)
        (series,) = data.panels[0].series
        assert series.xs == (2.0,)
        assert series.ys == (7.0,)
        assert series.errs is None               # no finite error value seen

    def test_categorical_axis_and_exclusion(self):
        spec = PlotSpec(
            figure="demo", x="mode", series=("proto",),
            exclude=("dropme",),
            axes=(AxesSpec(y="v"),),
        )
        rows = [
            {"mode": "slow", "proto": "a", "v": 1.0},
            {"mode": "fast", "proto": "a", "v": 2.0},
            {"mode": "slow", "proto": "dropme", "v": 99.0},
        ]
        data = prepare_figure(rows, spec)
        assert data.categories == ("slow", "fast")   # first-seen order
        assert [s.label for s in data.panels[0].series] == ["a"]

    def test_bar_panels_force_categorical_slots(self):
        spec = PlotSpec(figure="demo", x="n", axes=(AxesSpec(y="v", kind="bar"),))
        data = prepare_figure([{"n": 3, "v": 1.0}, {"n": 5, "v": 2.0}], spec)
        assert data.categories == ("3", "5")


class TestRenderRun:
    def test_renders_every_figure_as_png(self, tiny_run, tmp_path):
        run_dir, results = tiny_run
        written = render_run(run_dir, out_dir=tmp_path / "imgs")
        assert set(written) == set(results)          # trace figures included
        for name, path in written.items():
            assert path.name == f"{name}.png"
            _assert_png(path)

    def test_rendering_is_deterministic(self, tiny_run, tmp_path):
        run_dir, _ = tiny_run
        first = render_run(run_dir, out_dir=tmp_path / "a", figures=["figure9"])
        second = render_run(run_dir, out_dir=tmp_path / "b", figures=["figure9"])
        assert first["figure9"].read_bytes() == second["figure9"].read_bytes()

    def test_unknown_selection_rejected(self, tiny_run, tmp_path):
        run_dir, _ = tiny_run
        with pytest.raises(ValueError, match="does not contain"):
            render_run(run_dir, out_dir=tmp_path, figures=["figure99"])

    def test_default_out_dir_is_run_dir_plots(self, tiny_run):
        run_dir, _ = tiny_run
        written = render_run(run_dir, figures=["table2"])
        assert written["table2"] == run_dir / "plots" / "table2.png"
        assert written["table2"].exists()

    def test_cli_renders_a_run(self, tiny_run, tmp_path, capsys):
        run_dir, results = tiny_run
        assert plots_main([str(run_dir), "--out", str(tmp_path / "cli")]) == 0
        output = capsys.readouterr().out
        for name in results:
            assert name in output
            _assert_png(tmp_path / "cli" / f"{name}.png")

    def test_stored_run_round_trip_feeds_the_renderer(self, tiny_run, tmp_path):
        # JSON round-trip (including figure7's None feedback rate and any
        # non-finite smoke metric) must stay renderable.
        run_dir, results = tiny_run
        stored = load_run(run_dir)
        assert stored.rows.keys() == results.keys()
        path = render_figure(stored.rows["figure7"], SPECS["figure7"], tmp_path / "f7.png")
        _assert_png(path)


class TestCompareRuns:
    @pytest.fixture()
    def run_pair(self, tiny_run, tmp_path):
        run_dir, _ = tiny_run
        twin = tmp_path / "twin"
        shutil.copytree(run_dir, twin, ignore=shutil.ignore_patterns("plots", "compare"))
        return run_dir, twin

    def test_compatible_runs_emit_overlay_and_delta(self, run_pair, tmp_path):
        run_dir, twin = run_pair
        written = compare_runs(run_dir, twin, out_dir=tmp_path / "cmp", figures=["figure9", "figure3c"])
        assert set(written) == {"figure9", "figure3c"}
        for paths in written.values():
            _assert_png(paths["overlay"])
            _assert_png(paths["delta"])

    def test_manifest_mismatch_refused_unless_forced(self, run_pair, tmp_path):
        run_dir, twin = run_pair
        manifest_path = twin / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metadata"]["base_seed"] = 99
        manifest["metadata"]["seeds"] = {"linear": [7], "random": [7]}
        manifest_path.write_text(json.dumps(manifest))

        with pytest.raises(RunMismatchError) as excinfo:
            compare_runs(run_dir, twin, out_dir=tmp_path / "cmp")
        assert any("base_seed" in line for line in excinfo.value.mismatches)
        assert any("seeds" in line for line in excinfo.value.mismatches)

        forced = compare_runs(run_dir, twin, out_dir=tmp_path / "forced",
                              figures=["table2"], force=True)
        _assert_png(forced["table2"]["overlay"])

    def test_mismatch_gate_reads_only_compare_keys(self):
        base = {"seeds_arg": "smoke", "seeds": {"linear": [1, 2]}, "base_seed": 0, "figure_params": {}}
        same_inputs = dict(base, backend="thread", workers=8, git={"commit": "other"})
        assert manifest_mismatches(base, same_inputs) == []
        assert manifest_mismatches(base, dict(base, base_seed=1)) == ["base_seed: 0 != 1"]
        # Metadata-free runs (benchmark harness) compare as compatible.
        assert manifest_mismatches({}, {}) == []

    def test_overlay_series_never_collide_across_runs(self, tiny_run):
        # Figure 5 has 8 series per run; 16 overlay series overflow the
        # 10-color palette.  The overlay spec must therefore key color
        # on the base series and the run on the style channel, so no
        # two series share both color and style — and the same base
        # series keeps one color across both runs.
        from repro.plots.compare import RUN_COLUMN, _overlay_spec

        _, results = tiny_run
        spec = SPECS["figure5"]
        overlay_rows = [
            {**row, RUN_COLUMN: run} for run in ("run-a", "run-b") for row in results["figure5"]
        ]
        data = prepare_figure(overlay_rows, _overlay_spec(spec, "run-a", "run-b"))
        series = data.panels[0].series
        assert len(series) == 2 * len({s.label.rsplit("/", 1)[0] for s in series})
        looks = [(s.color_index, s.style_index) for s in series]
        assert len(set(looks)) == len(series), "two overlay series share color AND style"
        by_base = {}
        for s in series:
            base, run = s.label.rsplit("/", 1)
            by_base.setdefault(base, {})[run] = s
        for base, runs in by_base.items():
            assert runs["run-a"].color_index == runs["run-b"].color_index, base
            assert runs["run-a"].style_index == 0
            assert runs["run-b"].style_index == 1

    def test_cli_compare_and_force(self, run_pair, tmp_path, capsys):
        run_dir, twin = run_pair
        assert plots_main([str(run_dir), "--compare", str(twin),
                           "--out", str(tmp_path / "cmp"), "--figures", "figure9"]) == 0
        assert "overlay" in capsys.readouterr().out

        manifest_path = twin / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metadata"]["base_seed"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as excinfo:
            plots_main([str(run_dir), "--compare", str(twin), "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert plots_main([str(run_dir), "--compare", str(twin), "--force",
                           "--out", str(tmp_path / "forced"), "--figures", "table2"]) == 0


class TestMiniPng:
    def test_encoder_emits_valid_dimensions(self):
        canvas = mini_png.Canvas(31, 17)
        canvas.draw_line(0, 0, 30, 16, mini_png.BLACK)
        canvas.draw_text(2, 2, "OK 42", mini_png.BLACK)
        data = canvas.to_png()
        assert mini_png.png_size(data) == (31, 17)

    def test_encoding_is_deterministic(self):
        def build():
            canvas = mini_png.Canvas(40, 20)
            canvas.fill_rect(5, 5, 10, 8, mini_png.palette_color(1))
            return canvas.to_png()

        assert build() == build()

    def test_out_of_bounds_drawing_is_clipped(self):
        canvas = mini_png.Canvas(10, 10)
        canvas.draw_line(-5, -5, 20, 20, mini_png.BLACK)
        canvas.fill_rect(-3, 8, 100, 100, mini_png.GREY)
        assert mini_png.png_size(canvas.to_png()) == (10, 10)

    def test_text_width_matches_advance(self):
        assert mini_png.text_width("") == 0
        assert mini_png.text_width("AB") == 2 * mini_png.CHAR_ADVANCE - 1
        assert mini_png.text_width("AB", scale=2) == 2 * (2 * mini_png.CHAR_ADVANCE - 1)
