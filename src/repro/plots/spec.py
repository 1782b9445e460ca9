"""Declarative plot descriptions for figure rows.

A :class:`PlotSpec` says how one figure's tidy rows become an image —
which column is the x axis, how rows group into plotted series, which
columns hold the values and their 95% confidence half-widths, and where
the paper uses log scales — without naming any rendering library.  The
specs are plain frozen data, so every
:class:`~repro.experiments.presets.FigureJob` record can declare one
without importing the renderer, and the generic engine in
:mod:`repro.plots.render` can draw any spec.

One spec may hold several :class:`AxesSpec` panels: the paper's figures
frequently pair two quantities over the same x axis (Figure 3 plots
total energy *and* delivered data against network size; Figure 9 pairs
energy per bit with goodput), and a panel per quantity keeps each
figure one image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Mark kinds an :class:`AxesSpec` may request.
AXES_KINDS = ("line", "bar")


def is_plottable_number(value: object) -> bool:
    """A finite number a renderer can place on an axis.

    The shared predicate for the whole package: booleans are not
    plottable values, and neither are inf/nan — degenerate smoke runs
    legitimately produce ``inf`` (energy-per-bit with nothing
    delivered), which must read as "missing point", never as a
    coordinate or a delta operand.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class AxesSpec:
    """One panel of a figure: a y column plus how to draw it.

    ``y`` names the row column plotted on the panel's y axis; ``yerr``
    optionally names the column holding the 95% confidence half-width
    (drawn as symmetric error bars); ``kind`` selects the mark
    (``"line"`` or ``"bar"``); ``logy`` requests a logarithmic y axis.
    ``ylabel`` defaults to the ``y`` column name.
    """

    y: str
    yerr: Optional[str] = None
    ylabel: Optional[str] = None
    logy: bool = False
    kind: str = "line"

    def __post_init__(self) -> None:
        if not self.y:
            raise ValueError("an AxesSpec needs a y column name")
        if self.kind not in AXES_KINDS:
            raise ValueError(f"unknown axes kind {self.kind!r}; known: {AXES_KINDS}")

    @property
    def label(self) -> str:
        return self.ylabel if self.ylabel is not None else self.y


@dataclass(frozen=True)
class PlotSpec:
    """How one figure's rows become an image.

    * ``figure`` — the figure name (``"figure9"``); doubles as the
      default title and the output file stem.
    * ``x`` — the column providing x values.  Non-numeric values make
      the axis categorical (categories keep first-seen row order).
    * ``axes`` — one :class:`AxesSpec` per stacked panel, top to
      bottom; all panels share the x axis.
    * ``series`` — columns whose combined values group rows into one
      plotted series each (e.g. ``("protocol",)``); empty means the
      whole row list is a single anonymous series.
    * ``exclude`` — series labels dropped before plotting, for rows
      that encode markers rather than curves (Figure 8's
      ``flow2_interval`` row).
    * ``logx`` — logarithmic x axis (Figure 6's cache sizes, Figure
      11's node speeds).
    * ``style_by`` — one of the ``series`` columns whose value selects
      the *line style* (solid/dashed/…) instead of contributing to the
      color: series sharing every other column share a color.  This is
      the run-overlay channel — ``compare_runs`` sets it to the run
      column, so baseline and comparison render in the same color but
      different styles and a wrapped color palette can never pair
      unrelated series across runs.
    """

    figure: str
    x: str
    axes: Tuple[AxesSpec, ...]
    series: Tuple[str, ...] = ()
    xlabel: Optional[str] = None
    logx: bool = False
    title: Optional[str] = None
    exclude: Tuple[str, ...] = field(default=())
    style_by: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.figure:
            raise ValueError("a PlotSpec needs a figure name")
        if not self.x:
            raise ValueError("a PlotSpec needs an x column name")
        if not self.axes:
            raise ValueError("a PlotSpec needs at least one AxesSpec panel")
        if self.style_by is not None and self.style_by not in self.series:
            raise ValueError(
                f"style_by={self.style_by!r} must be one of the series columns {self.series}"
            )
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "series", tuple(self.series))
        object.__setattr__(self, "exclude", tuple(self.exclude))

    @property
    def heading(self) -> str:
        return self.title if self.title is not None else self.figure
