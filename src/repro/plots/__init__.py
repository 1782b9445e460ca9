"""Figure rendering for stored experiment runs.

``repro.plots`` is the last mile between the results store and the
paper's Section 4 figures: it turns the run directories that
``run_paper(out_dir=…)`` persists into one image per figure, and two
run directories into overlay/delta regression plots —
**re-simulating nothing**.

* :class:`~repro.plots.spec.PlotSpec` / :class:`~repro.plots.spec.AxesSpec`
  — the declarative description every figure carries (the ``plot``
  field of its :class:`~repro.experiments.presets.FigureJob` record).
* :func:`~repro.plots.render.render_figure` /
  :func:`~repro.plots.render.render_run` — the generic engine: any
  rows + spec → PNG, a whole run directory → one PNG per figure.
* :func:`~repro.plots.compare.compare_runs` — run-to-run regression
  images, gated on manifest compatibility
  (:class:`~repro.plots.compare.RunMismatchError`, ``force=True`` to
  override).
* ``python -m repro.plots <run_dir>`` — the CLI
  (:mod:`repro.plots.cli`).

Rendering is pure standard library (:mod:`repro.plots.mini_png`), so
the pipeline needs no third-party package.

This ``__init__`` re-exports lazily (PEP 562): the experiments package
imports :mod:`repro.plots.spec` for the spec dataclasses, and an eager
import of the render/compare machinery here would create an import
cycle through ``repro.experiments.presets``.
"""

from typing import TYPE_CHECKING

from repro.plots.spec import AxesSpec, PlotSpec

if TYPE_CHECKING:  # pragma: no cover - static names for type checkers
    from repro.plots.compare import RunMismatchError, compare_runs, manifest_mismatches
    from repro.plots.render import prepare_figure, render_figure, render_run

__all__ = [
    "AxesSpec",
    "PlotSpec",
    "RunMismatchError",
    "compare_runs",
    "manifest_mismatches",
    "prepare_figure",
    "render_figure",
    "render_run",
]

_LAZY = {
    "render_figure": "repro.plots.render",
    "render_run": "repro.plots.render",
    "prepare_figure": "repro.plots.render",
    "compare_runs": "repro.plots.compare",
    "manifest_mismatches": "repro.plots.compare",
    "RunMismatchError": "repro.plots.compare",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
