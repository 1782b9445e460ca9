"""On-disk results store: round-trips, CSV mirror, manifest, report CLI."""

import pytest

from repro.experiments.report import format_run
from repro.experiments.report import main as report_main
from repro.experiments.results import (
    git_metadata,
    load_rows,
    load_run,
    save_rows,
    save_run,
    write_manifest,
)

ROWS = [
    {"netSize": 3, "protocol": "jtp", "energy": 1.25},
    {"netSize": 5, "protocol": "atp", "energy": 2.5, "extra": None},
]


class TestSaveLoad:
    def test_round_trip_preserves_rows_and_metadata(self, tmp_path):
        directory = save_run({"fig": ROWS}, tmp_path / "run", metadata={"preset": "smoke"})
        run = load_run(directory)
        assert run.rows == {"fig": ROWS}
        assert run.figures == ["fig"]
        assert run.metadata["preset"] == "smoke"
        assert run.manifest["format"] == 1

    def test_manifest_preserves_figure_order(self, tmp_path):
        names = ["zeta", "alpha", "mid"]
        save_run({name: ROWS for name in names}, tmp_path)
        assert load_run(tmp_path).figures == names

    def test_csv_mirrors_rows_with_union_header(self, tmp_path):
        save_rows(tmp_path, "fig", ROWS)
        lines = (tmp_path / "fig.csv").read_text().splitlines()
        assert lines[0] == "netSize,protocol,energy,extra"
        assert lines[1] == "3,jtp,1.25,"
        assert lines[2] == "5,atp,2.5,"

    def test_row_files_without_a_manifest_are_not_a_run(self, tmp_path):
        # save_run writes the manifest last, so a directory of row files
        # without one is a save that never finished (or no run at all):
        # loading it must fail, not return a partial run.
        save_rows(tmp_path, "fig", ROWS)
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            load_run(tmp_path)

    def test_foreign_json_without_a_manifest_is_not_a_run(self, tmp_path):
        # JSON that save_rows did not write (a coverage report, say) next
        # to row files must not make a manifest-less directory loadable.
        save_rows(tmp_path, "fig", ROWS)
        (tmp_path / "coverage.json").write_text('{"totals": 1}')
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            load_run(tmp_path)

    def test_reused_out_dir_drops_stale_figures(self, tmp_path):
        # A second run into the same directory must not leak the first
        # run's figures (rows or CSVs) into the new manifest's results.
        save_run({"figure9": ROWS, "table2": ROWS}, tmp_path, metadata={"run": "old"})
        save_run({"table2": ROWS}, tmp_path, metadata={"run": "new"})
        run = load_run(tmp_path)
        assert run.figures == ["table2"]
        assert run.metadata == {"run": "new"}
        assert not (tmp_path / "figure9.json").exists()
        assert not (tmp_path / "figure9.csv").exists()

    def test_save_run_leaves_foreign_files_alone(self, tmp_path):
        # Neither arbitrary JSON nor a foreign export that merely has a
        # "rows" key may be swept — only files save_rows itself wrote
        # (self-named via their "figure" field) belong to the store.
        (tmp_path / "notes.json").write_text('{"plot": "config"}')
        (tmp_path / "data.json").write_text('{"rows": [{"x": 1}]}')
        (tmp_path / "data.csv").write_text("x\n1\n")
        save_run({"fig": ROWS}, tmp_path)
        assert (tmp_path / "notes.json").exists()
        assert (tmp_path / "data.json").exists()
        assert (tmp_path / "data.csv").exists()

    def test_load_rows_rejects_non_row_store_files(self, tmp_path):
        (tmp_path / "fig.json").write_text('{"totals": 1}')
        with pytest.raises(ValueError):
            load_rows(tmp_path, "fig")

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")

    def test_manifest_naming_a_missing_row_file_raises(self, tmp_path):
        write_manifest(tmp_path, ["ghost"])
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path)

    def test_row_file_claiming_another_figure_rejected(self, tmp_path):
        save_rows(tmp_path, "fig", ROWS)
        (tmp_path / "other.json").write_text((tmp_path / "fig.json").read_text())
        with pytest.raises(ValueError):
            load_rows(tmp_path, "other")

    def test_row_file_bytes_equal_the_indented_document(self, tmp_path):
        # save_rows streams the JSON; the file still holds exactly the
        # one-string rendering, stringified values and float edge cases included.
        import json
        import math

        from repro.core.config import FeedbackMode

        rows = ROWS + [{"mode": FeedbackMode.VARIABLE, "nested": [1, {"b": None}], "x": math.inf, "y": 0.1}]
        save_rows(tmp_path, "fig", rows)
        expected = json.dumps({"figure": "fig", "rows": rows}, indent=2, default=str) + "\n"
        assert (tmp_path / "fig.json").read_bytes() == expected.encode()

    def test_unjsonable_values_are_stringified_not_fatal(self, tmp_path):
        from repro.core.config import FeedbackMode

        save_rows(tmp_path, "fig", [{"mode": FeedbackMode.VARIABLE}])
        (loaded,) = load_rows(tmp_path, "fig")
        assert isinstance(loaded["mode"], str)


class TestGitMetadata:
    def test_inside_a_checkout_names_the_commit(self):
        meta = git_metadata()
        if not meta:
            pytest.skip("not running from a git checkout")
        assert set(meta) == {"commit", "branch", "dirty"}
        assert len(meta["commit"]) == 40

    def test_outside_a_checkout_is_empty_not_fatal(self, tmp_path):
        assert git_metadata(tmp_path) == {}


class TestFormatRunAndCli:
    def test_format_run_renders_every_figure(self):
        text = format_run({"figA": ROWS, "figB": ROWS})
        assert "== figA (2 rows)" in text
        assert "== figB (2 rows)" in text

    def test_format_run_truncates_long_figures(self):
        rows = [{"i": i} for i in range(10)]
        text = format_run({"fig": rows}, max_rows=3)
        assert "... 7 more rows" in text

    def test_report_cli_prints_a_stored_run(self, tmp_path, capsys):
        save_run(
            {"fig": ROWS},
            tmp_path,
            metadata={"backend": "serial", "seeds": {"linear": [1, 2]}},
        )
        assert report_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== fig" in out
        assert "#   backend: serial" in out
        assert '#   seeds: {"linear": [1, 2]}' in out

    def test_non_object_manifest_rejected(self, tmp_path):
        save_rows(tmp_path, "fig", ROWS)
        (tmp_path / "manifest.json").write_text("[]")
        with pytest.raises(ValueError):
            load_run(tmp_path)
