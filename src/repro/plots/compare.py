"""Run-to-run regression comparison for stored run directories.

Two runs of the same commit, seeds and figure parameters must produce
identical rows — the harness is seed-deterministic — so any visible gap
between two stored runs is a behaviour change worth explaining.  This
module renders those gaps:

* :func:`compare_runs` loads two run directories, refuses to compare
  runs whose manifests disagree on what was simulated (seeds, base
  seed, per-figure parameters) unless ``force=True``, and emits two
  images per common figure: an **overlay** (both runs' series on the
  paper's axes, the comparison run in a second line style) and a
  **delta** panel set (B − A for every y column, matched point-by-point
  on the x value and series key).
* :func:`manifest_mismatches` is the comparison gate by itself — CI can
  call it to assert two artifacts are comparable before diffing rows.

The provenance fields the gate reads are exactly the ones
``run_paper(out_dir=…)`` writes into ``manifest.json`` (see
``docs/results.md``).  A run saved with other metadata (e.g.
``protocol_shootout.py --out``) may lack some of these keys; a key
missing from both runs compares as compatible, and the gate then relies
on the caller knowing the runs match.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.plots.render import DEFAULT_DPI, render_figure
from repro.plots.spec import AxesSpec, PlotSpec, is_plottable_number

PathLike = Union[str, Path]

#: Manifest metadata keys that must agree for two runs to be comparable:
#: together they pin *what* was simulated.  Execution details (backend,
#: workers, git commit, timestamps) are intentionally not gated — the
#: whole point of a regression compare is different code, same inputs.
COMPARE_KEYS: Tuple[str, ...] = ("seeds_arg", "seeds", "base_seed", "figure_params")

#: Column added to overlay rows to distinguish the two runs.
RUN_COLUMN = "run"


class RunMismatchError(ValueError):
    """Two run directories disagree on what was simulated.

    ``mismatches`` lists one human-readable line per disagreeing
    manifest key; pass ``force=True`` to compare anyway.
    """

    def __init__(self, mismatches: Sequence[str]):
        self.mismatches = list(mismatches)
        details = "; ".join(self.mismatches)
        super().__init__(
            f"run directories are not comparable ({details}); "
            "pass force=True / --force to overlay them anyway"
        )


def manifest_mismatches(metadata_a: Mapping[str, object], metadata_b: Mapping[str, object]) -> List[str]:
    """Disagreements between two runs' manifest metadata on :data:`COMPARE_KEYS`.

    Returns an empty list when the runs are comparable.  A key missing
    from both manifests is not a mismatch (writers other than
    ``run_paper`` record no provenance); a key present on one side only
    is.
    """
    mismatches: List[str] = []
    for key in COMPARE_KEYS:
        value_a, value_b = metadata_a.get(key), metadata_b.get(key)
        if value_a != value_b:
            mismatches.append(f"{key}: {value_a!r} != {value_b!r}")
    return mismatches


def _run_labels(dir_a: Path, dir_b: Path) -> Tuple[str, str]:
    if dir_a.name and dir_b.name and dir_a.name != dir_b.name:
        return dir_a.name, dir_b.name
    return f"a:{dir_a.name or dir_a}", f"b:{dir_b.name or dir_b}"


def _overlay_spec(spec: PlotSpec, label_a: str, label_b: str) -> PlotSpec:
    return replace(
        spec,
        series=spec.series + (RUN_COLUMN,),
        # Color stays keyed on the base series; the run column maps to
        # the *style* channel (solid baseline, dashed/hollow comparison)
        # so the two runs can never collide into one look even when the
        # color palette wraps.
        style_by=RUN_COLUMN,
        title=f"{spec.heading}: {label_a} vs {label_b}",
        # Exclusion labels are full series keys; re-suffix them per run
        # so Figure 8's marker row stays excluded in both overlays.
        exclude=tuple(
            f"{label}/{run}" for label in spec.exclude for run in (label_a, label_b)
        ),
    )


def _delta_spec(spec: PlotSpec, label_a: str, label_b: str) -> PlotSpec:
    panels = tuple(
        AxesSpec(
            y=f"delta_{panel.y}",
            ylabel=f"delta {panel.label}",
            # A difference can be zero or negative; log axes are for
            # magnitudes, not gaps.
            logy=False,
            kind=panel.kind,
        )
        for panel in spec.axes
    )
    return replace(
        spec,
        axes=panels,
        title=f"{spec.heading}: {label_b} - {label_a}",
        exclude=spec.exclude,
    )


def _delta_rows(
    rows_a: Sequence[Mapping[str, object]],
    rows_b: Sequence[Mapping[str, object]],
    spec: PlotSpec,
) -> List[Dict[str, object]]:
    """B − A rows matched on the x value plus the series key.

    Points present in only one run are dropped (a changed grid is
    already flagged by the manifest gate; under ``force`` the overlay
    still shows the extra points).  Repeated keys — trace series can
    revisit an x value — pair up in order of appearance.
    """
    def keyed(rows: Sequence[Mapping[str, object]]) -> Dict[Tuple[object, ...], List[Mapping[str, object]]]:
        table: Dict[Tuple[object, ...], List[Mapping[str, object]]] = {}
        for row in rows:
            key = (row.get(spec.x), *(str(row.get(column)) for column in spec.series))
            table.setdefault(key, []).append(row)
        return table

    table_b = keyed(rows_b)
    deltas: List[Dict[str, object]] = []
    consumed: Dict[Tuple[object, ...], int] = {}
    for row_a in rows_a:
        key = (row_a.get(spec.x), *(str(row_a.get(column)) for column in spec.series))
        matches = table_b.get(key, [])
        index = consumed.get(key, 0)
        if index >= len(matches):
            continue
        consumed[key] = index + 1
        row_b = matches[index]
        delta: Dict[str, object] = {spec.x: row_a.get(spec.x)}
        for column in spec.series:
            delta[column] = row_a.get(column)
        populated = False
        for panel in spec.axes:
            value_a, value_b = row_a.get(panel.y), row_b.get(panel.y)
            if is_plottable_number(value_a) and is_plottable_number(value_b):
                delta[f"delta_{panel.y}"] = float(value_b) - float(value_a)
                populated = True
        if populated:
            deltas.append(delta)
    return deltas


def compare_runs(
    dir_a: PathLike,
    dir_b: PathLike,
    out_dir: Optional[PathLike] = None,
    figures: Optional[Sequence[str]] = None,
    force: bool = False,
    specs: Optional[Mapping[str, PlotSpec]] = None,
    dpi: int = DEFAULT_DPI,
) -> Dict[str, Dict[str, Path]]:
    """Render overlay and delta regression plots for two stored runs.

    ``dir_a`` is the baseline, ``dir_b`` the comparison run.  Unless
    ``force`` is set, the manifests must agree on every
    :data:`COMPARE_KEYS` entry (:class:`RunMismatchError` otherwise) —
    overlaying runs with different seeds or figure parameters produces
    differences that mean nothing.  ``figures`` selects a subset
    (default: every figure stored in **both** runs that has a spec).
    ``out_dir`` defaults to ``<dir_b>/compare``.

    Returns ``{figure: {"overlay": path, "delta": path}}``; figures
    whose matched rows have no numeric overlap carry no ``"delta"``
    entry.
    """
    from repro.experiments.results import load_run
    from repro.plots.render import default_specs

    dir_a, dir_b = Path(dir_a), Path(dir_b)
    run_a, run_b = load_run(dir_a), load_run(dir_b)
    mismatches = manifest_mismatches(run_a.metadata, run_b.metadata)
    if mismatches and not force:
        raise RunMismatchError(mismatches)

    table = dict(specs) if specs is not None else default_specs()
    common = [name for name in run_a.rows if name in run_b.rows and name in table]
    if figures is None:
        selected = common
    else:
        unavailable = sorted(set(figures) - set(common))
        if unavailable:
            raise ValueError(
                f"figures {unavailable} are not present (with a PlotSpec) in both runs; "
                f"comparable figures: {common}"
            )
        selected = list(figures)

    label_a, label_b = _run_labels(dir_a, dir_b)
    out = Path(out_dir) if out_dir is not None else dir_b / "compare"
    written: Dict[str, Dict[str, Path]] = {}
    for name in selected:
        spec = table[name]
        rows_a, rows_b = run_a.rows[name], run_b.rows[name]
        overlay_rows = [
            {**row, RUN_COLUMN: label} for rows, label in ((rows_a, label_a), (rows_b, label_b)) for row in rows
        ]
        paths = {
            "overlay": render_figure(
                overlay_rows, _overlay_spec(spec, label_a, label_b), out / f"{name}.overlay.png", dpi=dpi
            ),
        }
        deltas = _delta_rows(rows_a, rows_b, spec)
        if deltas:
            paths["delta"] = render_figure(
                deltas, _delta_spec(spec, label_a, label_b), out / f"{name}.delta.png", dpi=dpi
            )
        written[name] = paths
    return written
