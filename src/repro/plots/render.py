"""The generic figure-rendering engine.

One code path turns *any* figure's tidy rows plus its declarative
:class:`~repro.plots.spec.PlotSpec` into an image:

* :func:`prepare_figure` groups rows into series, resolves the x axis
  (numeric or categorical) and extracts per-panel ``(x, y, ci)``
  points — pure data shaping.
* :func:`render_figure` draws one prepared figure to a PNG through the
  pure-stdlib canvas of :mod:`repro.plots.mini_png`, so rendering
  needs no third-party package.
* :func:`render_run` maps a stored run directory (written by
  ``run_paper(out_dir=…)`` or the benchmark harness) to one PNG per
  figure, re-simulating nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.plots import mini_png
from repro.plots.spec import AxesSpec, PlotSpec, is_plottable_number

PathLike = Union[str, Path]
Row = Mapping[str, object]

#: Pixel size of one panel.
PANEL_WIDTH = 880
PANEL_HEIGHT = 300


# -- data shaping ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesData:
    """One plotted series on one panel: positions, values, half-widths.

    ``color_index`` counts distinct series keys *excluding* the spec's
    ``style_by`` column and ``style_index`` counts that column's
    distinct values — run overlays share a color per base series and
    differ in style, so two runs can never collide into one look.
    Without ``style_by`` every series gets style 0 and its own color.
    """

    label: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    errs: Optional[Tuple[float, ...]]
    color_index: int = 0
    style_index: int = 0


@dataclass(frozen=True)
class PanelData:
    axes: AxesSpec
    series: Tuple[SeriesData, ...]


@dataclass(frozen=True)
class FigureData:
    """A spec resolved against concrete rows, ready to draw."""

    spec: PlotSpec
    panels: Tuple[PanelData, ...]
    #: Category labels when the x axis is categorical, else ``None``.
    categories: Optional[Tuple[str, ...]]

    @property
    def has_legend(self) -> bool:
        return bool(self.spec.series)


def _series_label(row: Row, spec: PlotSpec) -> str:
    return "/".join(str(row.get(column)) for column in spec.series)


def prepare_figure(rows: Sequence[Row], spec: PlotSpec) -> FigureData:
    """Group ``rows`` by the spec's series columns and extract the points.

    The x axis is categorical when any x value is non-numeric or any
    panel draws bars (grouped bars need discrete slots); categories and
    series keep first-seen row order, numeric series are sorted by x.
    Rows whose y value is missing or non-numeric are skipped per panel,
    so one sparse column cannot blank a whole figure.
    """
    kept = [row for row in rows if _series_label(row, spec) not in spec.exclude]
    categorical = any(panel.kind == "bar" for panel in spec.axes) or any(
        not is_plottable_number(row.get(spec.x)) for row in kept
    )

    categories: List[str] = []
    positions: List[float] = []
    for row in kept:
        if categorical:
            label = str(row.get(spec.x))
            if label not in categories:
                categories.append(label)
            positions.append(float(categories.index(label)))
        else:
            positions.append(float(row.get(spec.x)))  # type: ignore[arg-type]

    order: List[str] = []
    grouped: Dict[str, List[int]] = {}
    for index, row in enumerate(kept):
        label = _series_label(row, spec)
        grouped.setdefault(label, []).append(index)
        if label not in order:
            order.append(label)

    # Color by the series key without the style_by column, style by
    # that column's value (first-seen order for both).
    color_order: List[str] = []
    style_order: List[str] = []
    series_color: Dict[str, int] = {}
    series_style: Dict[str, int] = {}
    for label in order:
        first = kept[grouped[label][0]]
        color_key = "/".join(
            str(first.get(column)) for column in spec.series if column != spec.style_by
        )
        style_key = str(first.get(spec.style_by)) if spec.style_by else ""
        if color_key not in color_order:
            color_order.append(color_key)
        if style_key not in style_order:
            style_order.append(style_key)
        series_color[label] = color_order.index(color_key)
        series_style[label] = style_order.index(style_key)

    panels: List[PanelData] = []
    for panel in spec.axes:
        series: List[SeriesData] = []
        for label in order:
            points: List[Tuple[float, float, float]] = []
            has_err = False
            for index in grouped[label]:
                value = kept[index].get(panel.y)
                if not is_plottable_number(value):
                    continue
                err = kept[index].get(panel.yerr) if panel.yerr else None
                if is_plottable_number(err):
                    has_err = True
                points.append((positions[index], float(value), float(err) if is_plottable_number(err) else 0.0))
            if not categorical:
                points.sort(key=lambda point: point[0])
            series.append(SeriesData(
                label=label,
                xs=tuple(point[0] for point in points),
                ys=tuple(point[1] for point in points),
                errs=tuple(point[2] for point in points) if has_err else None,
                color_index=series_color[label],
                style_index=series_style[label],
            ))
        panels.append(PanelData(axes=panel, series=tuple(series)))

    return FigureData(
        spec=spec,
        panels=tuple(panels),
        categories=tuple(categories) if categorical else None,
    )


# -- stdlib renderer -------------------------------------------------------------------


_MARGIN_LEFT = 86
_MARGIN_RIGHT = 18
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 46


def _nice_ticks(low: float, high: float, count: int = 5) -> List[float]:
    if high <= low:
        high = low + (abs(low) or 1.0)
    span = high - low
    step = 10.0 ** math.floor(math.log10(span / count))
    for factor in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * factor) <= count:
            step *= factor
            break
    first = math.ceil(low / step) * step
    ticks = []
    tick = first
    while tick <= high + 1e-9 * span:
        ticks.append(round(tick, 12))
        tick += step
    return ticks or [low, high]


def _log_ticks(low: float, high: float) -> List[float]:
    ticks = [10.0 ** power for power in range(math.floor(math.log10(low)), math.ceil(math.log10(high)) + 1)]
    return [tick for tick in ticks if low <= tick <= high] or [low, high]


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 10000 or abs(value) < 0.01:
        return f"{value:.0e}"
    text = f"{value:.6g}"
    return text


class _Scale:
    """Maps one data axis onto a pixel interval, linear or log10."""

    def __init__(self, low: float, high: float, pixel_low: int, pixel_high: int, log: bool) -> None:
        self.log = log
        if log:
            low = max(low, 1e-12)
            high = max(high, low * 10.0)
            self.low, self.high = math.log10(low), math.log10(high)
        else:
            if high <= low:
                pad = abs(low) or 1.0
                low, high = low - 0.5 * pad, high + 0.5 * pad
            self.low, self.high = low, high
        self.pixel_low, self.pixel_high = pixel_low, pixel_high

    def __call__(self, value: float) -> Optional[int]:
        if self.log:
            if value <= 0:
                return None
            value = math.log10(value)
        fraction = (value - self.low) / (self.high - self.low)
        return round(self.pixel_low + fraction * (self.pixel_high - self.pixel_low))

    def data_range(self) -> Tuple[float, float]:
        if self.log:
            return 10.0 ** self.low, 10.0 ** self.high
        return self.low, self.high


def _x_range(data: FigureData) -> Tuple[float, float]:
    if data.categories is not None:
        return -0.6, len(data.categories) - 0.4
    values = [x for panel in data.panels for series in panel.series for x in series.xs]
    if not values:
        return 0.0, 1.0
    return min(values), max(values)


def _panel_y_range(panel: PanelData, log: bool) -> Tuple[float, float]:
    lows, highs = [], []
    for series in panel.series:
        for index, y in enumerate(series.ys):
            err = series.errs[index] if series.errs else 0.0
            lows.append(y - err)
            highs.append(y + err)
    if not lows:
        return (0.1, 1.0) if log else (0.0, 1.0)
    low, high = min(lows), max(highs)
    if log:
        positives = [value for value in lows + highs if value > 0]
        if not positives:
            return 0.1, 1.0
        return min(positives), max(positives)
    if panel.axes.kind == "bar":
        low = min(low, 0.0)
    pad = 0.06 * ((high - low) or abs(high) or 1.0)
    return low - pad if low != 0.0 else 0.0, high + pad


def _render_fallback(data: FigureData, path: Path) -> None:
    spec = data.spec
    n_panels = len(data.panels)
    width = PANEL_WIDTH
    height = n_panels * PANEL_HEIGHT + _MARGIN_TOP
    canvas = mini_png.Canvas(width, height)
    canvas.draw_text(_MARGIN_LEFT, 10, spec.heading, mini_png.BLACK, scale=2)

    x_low, x_high = _x_range(data)
    log_x = spec.logx and data.categories is None
    plot_left = _MARGIN_LEFT
    plot_right = width - _MARGIN_RIGHT

    for panel_index, panel in enumerate(data.panels):
        top = _MARGIN_TOP + panel_index * PANEL_HEIGHT + 12
        bottom = _MARGIN_TOP + (panel_index + 1) * PANEL_HEIGHT - _MARGIN_BOTTOM
        x_scale = _Scale(x_low, x_high, plot_left, plot_right, log_x)
        y_low, y_high = _panel_y_range(panel, panel.axes.logy)
        y_scale = _Scale(y_low, y_high, bottom, top, panel.axes.logy)

        # Frame, ticks, labels.
        canvas.draw_rect(plot_left, top, plot_right - plot_left, bottom - top, mini_png.BLACK)
        y_ticks = _log_ticks(*y_scale.data_range()) if panel.axes.logy else _nice_ticks(*y_scale.data_range())
        for tick in y_ticks:
            pixel = y_scale(tick)
            if pixel is None or not top <= pixel <= bottom:
                continue
            canvas.fill_rect(plot_left - 4, pixel, 4, 1, mini_png.BLACK)
            canvas.fill_rect(plot_left + 1, pixel, plot_right - plot_left - 2, 1, mini_png.LIGHT_GREY)
            label = _format_tick(tick)
            canvas.draw_text(plot_left - 8 - mini_png.text_width(label), pixel - 3, label, mini_png.GREY)
        if data.categories is not None:
            x_ticks: List[Tuple[float, str]] = [(i, name) for i, name in enumerate(data.categories)]
        elif log_x:
            x_ticks = [(tick, _format_tick(tick)) for tick in _log_ticks(*x_scale.data_range())]
        else:
            x_ticks = [(tick, _format_tick(tick)) for tick in _nice_ticks(*x_scale.data_range())]
        for tick, label in x_ticks:
            pixel = x_scale(tick)
            if pixel is None or not plot_left <= pixel <= plot_right:
                continue
            canvas.fill_rect(pixel, bottom, 1, 4, mini_png.BLACK)
            canvas.draw_text(pixel - mini_png.text_width(label) // 2, bottom + 7, label, mini_png.GREY)
        axis_label = panel.axes.label
        canvas.draw_text(plot_left, top - 10, axis_label, mini_png.BLACK)

        # Marks.
        n_series = max(1, len(panel.series))
        for series_index, series in enumerate(panel.series):
            color = mini_png.palette_color(series.color_index)
            dashes = mini_png.dash_pattern(series.style_index)
            if panel.axes.kind == "bar":
                slot = (plot_right - plot_left) / max(1.0, x_high - x_low)
                bar_width = max(2, int(0.8 * slot / n_series))
                for point_index, x in enumerate(series.xs):
                    center = x_scale(x - 0.4 + (0.8 / n_series) * (series_index + 0.5))
                    y_pixel = y_scale(series.ys[point_index])
                    base = y_scale(max(y_low, 0.0) if not panel.axes.logy else y_low)
                    if center is None or y_pixel is None or base is None:
                        continue
                    y0, y1 = min(y_pixel, base), max(y_pixel, base)
                    if series.style_index == 0:
                        canvas.fill_rect(center - bar_width // 2, y0, bar_width, max(1, y1 - y0), color)
                    else:
                        # Comparison-run bars: tinted fill + full-color
                        # outline, so overlaid runs stay tellable apart.
                        canvas.fill_rect(
                            center - bar_width // 2, y0, bar_width, max(1, y1 - y0),
                            mini_png.tint(color, 0.6),
                        )
                        canvas.draw_rect(center - bar_width // 2, y0, bar_width, max(2, y1 - y0), color)
            else:
                points = []
                for point_index, x in enumerate(series.xs):
                    x_pixel, y_pixel = x_scale(x), y_scale(series.ys[point_index])
                    if x_pixel is None or y_pixel is None:
                        continue
                    points.append((x_pixel, y_pixel))
                    if series.errs:
                        err = series.errs[point_index]
                        lo = y_scale(series.ys[point_index] - err)
                        hi = y_scale(series.ys[point_index] + err)
                        if lo is not None and hi is not None:
                            canvas.draw_line(x_pixel, lo, x_pixel, hi, color)
                            canvas.fill_rect(x_pixel - 2, lo, 5, 1, color)
                            canvas.fill_rect(x_pixel - 2, hi, 5, 1, color)
                if dashes is None:
                    for start, end in zip(points, points[1:], strict=False):
                        canvas.draw_line(*start, *end, color)
                else:
                    for x0, y0, x1, y1 in mini_png.dashed_segments(points, *dashes):
                        canvas.draw_line(x0, y0, x1, y1, color)
                for x_pixel, y_pixel in points:
                    if series.style_index == 0:
                        canvas.draw_marker(x_pixel, y_pixel, color)
                    else:
                        canvas.draw_rect(int(x_pixel) - 2, int(y_pixel) - 2, 5, 5, color)

        # Legend on the first panel only (shared across panels).
        if panel_index == 0 and data.has_legend:
            legend_x = plot_right - 12
            legend_y = top + 6
            for series in panel.series:
                color = mini_png.palette_color(series.color_index)
                label = series.label
                label_width = mini_png.text_width(label)
                swatch_x = legend_x - label_width - 16
                if series.style_index == 0:
                    canvas.fill_rect(swatch_x, legend_y + 1, 10, 5, color)
                else:
                    # Split swatch mirrors the dashed/outlined marks.
                    canvas.fill_rect(swatch_x, legend_y + 1, 4, 5, color)
                    canvas.fill_rect(swatch_x + 6, legend_y + 1, 4, 5, color)
                canvas.draw_text(legend_x - label_width, legend_y, label, mini_png.BLACK)
                legend_y += 11

    canvas.draw_text(
        (plot_left + plot_right) // 2 - mini_png.text_width(spec.xlabel or spec.x) // 2,
        height - 14,
        spec.xlabel or spec.x,
        mini_png.BLACK,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canvas.to_png())


# -- public entry points ---------------------------------------------------------------


def render_figure(
    rows: Sequence[Row],
    spec: PlotSpec,
    path: PathLike,
) -> Path:
    """Render one figure's rows to ``path`` (a PNG) and return the path."""
    path = Path(path)
    _render_fallback(prepare_figure(rows, spec), path)
    return path


def default_specs() -> Dict[str, PlotSpec]:
    """The repo's figure-name → :class:`PlotSpec` registry.

    Every paper figure and fault-injection workload family carries its
    spec on its :class:`~repro.experiments.presets.FigureJob` record, so
    a stored run holding any of their rows renders with the same engine.
    Imported lazily: :mod:`repro.experiments.presets` itself imports
    :mod:`repro.plots.spec`, and a module-level import here would tie
    the two packages into a cycle.
    """
    from repro.experiments.presets import ALL_FIGURES, WORKLOAD_JOBS

    return {job.name: job.plot for job in ALL_FIGURES + WORKLOAD_JOBS}


def render_run(
    run_dir: PathLike,
    out_dir: Optional[PathLike] = None,
    figures: Optional[Sequence[str]] = None,
    specs: Optional[Mapping[str, PlotSpec]] = None,
) -> Dict[str, Path]:
    """Render a stored run directory into one PNG per figure.

    Loads the rows that ``run_paper(out_dir=…)`` (or the benchmark
    harness) persisted — nothing is re-simulated.  ``figures`` selects a
    subset (default: every stored figure that has a spec; asking for a
    figure the run does not contain, or one without a spec, raises).
    ``out_dir`` defaults to ``<run_dir>/plots``.  Returns the written
    paths keyed by figure name, in the run's figure order.
    """
    from repro.experiments.results import load_run

    run = load_run(run_dir)
    table = dict(specs) if specs is not None else default_specs()
    if figures is None:
        selected = [name for name in run.rows if name in table]
    else:
        missing = sorted(set(figures) - set(run.rows))
        if missing:
            raise ValueError(f"run {run.directory} does not contain figures {missing}")
        unplottable = sorted(name for name in figures if name not in table)
        if unplottable:
            raise ValueError(f"no PlotSpec registered for {unplottable}; known: {sorted(table)}")
        selected = list(figures)
    out = Path(out_dir) if out_dir is not None else run.directory / "plots"
    written: Dict[str, Path] = {}
    for name in selected:
        written[name] = render_figure(run.rows[name], table[name], out / f"{name}.png")
    return written
