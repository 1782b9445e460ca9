"""Plain-text table rendering for experiment output.

The benchmark harness prints the same rows/series the paper's figures
plot; this module turns lists of row dictionaries into aligned text
tables so a bench run reads like the paper's tables.

It also renders **stored** runs: :func:`format_run` takes the
``{figure: rows}`` mapping that :func:`~repro.experiments.presets.run_paper`
returns (or that :func:`~repro.experiments.results.load_run` reads back
from a run directory) and renders every figure's table, and::

    python -m repro.experiments <run_dir>

prints a persisted run without re-running any simulation, and
``python -m repro.experiments --list-figures`` prints the index of
every figure ``run_paper()`` regenerates (name, metric/trace kind,
one-line description — the same index the README carries).

The module is also the command-line driver for *producing* runs::

    python -m repro.experiments <run_dir> --run --seeds smoke

calls :func:`~repro.experiments.presets.run_paper` with ``<run_dir>``
as the output directory, progress bars on stderr, and the incremental
cell cache enabled — rerunning the same command after an interruption
resumes from the completed cells (``--fresh`` discards them instead;
see ``docs/distributed.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import argparse


def format_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render ``rows`` (dicts) as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())  # repro: allow[DET002] column order = first row's insertion order, a documented contract pinned by test
    rendered: List[List[str]] = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(series: Sequence[tuple], label: str = "value", max_points: int = 20) -> str:
    """Render a (time, value) series compactly, sub-sampled to ``max_points``."""
    if not series:
        return f"{label}: (empty series)"
    step = max(1, len(series) // max_points)
    sampled = list(series)[::step]
    points = ", ".join(f"{t:.0f}s={_fmt(v)}" for t, v in sampled)
    return f"{label}: {points}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_run(
    results: Mapping[str, Sequence[Mapping[str, object]]],
    max_rows: int = 30,
) -> str:
    """Render a whole ``{figure: rows}`` mapping as one report.

    Accepts what :func:`~repro.experiments.presets.run_paper` returns
    and what :func:`~repro.experiments.results.load_run` loads back
    (``run.rows``).  Long time-series figures are truncated to
    ``max_rows`` rows per table with an elision note, so a stored trace
    figure does not drown the metric tables; ``max_rows <= 0`` means
    unlimited.
    """
    sections: List[str] = []
    for name, rows in results.items():
        rows = list(rows)
        shown = rows[:max_rows] if max_rows > 0 else rows
        table = format_table(shown, title=f"== {name} ({len(rows)} rows)")
        if len(rows) > len(shown):
            table += f"\n... {len(rows) - len(shown)} more rows"
        sections.append(table)
    return "\n\n".join(sections)


def format_figure_index() -> str:
    """The ``--list-figures`` listing: every figure, its kind, one line each.

    Sourced from :data:`repro.experiments.presets.ALL_FIGURES` (the
    same descriptions the README's paper-figure index carries), followed
    by the fault-injection workload families from
    :data:`repro.experiments.presets.WORKLOAD_JOBS` under their own
    heading (documented in ``docs/faults.md``).
    """
    from repro.experiments.presets import ALL_FIGURES, WORKLOAD_JOBS

    rows = [{"figure": job.name, "kind": job.kind, "description": job.description} for job in ALL_FIGURES]
    figures_block = format_table(rows, title="Figures regenerated by run_paper() (paper order)")
    workload_rows = [
        {"workload": job.name, "kind": job.kind, "description": job.description} for job in WORKLOAD_JOBS
    ]
    workloads_block = format_table(
        workload_rows, title="Fault-injection workloads (opt-in, docs/faults.md)"
    )
    return f"{figures_block}\n\n{workloads_block}"


def _parse_seeds(value: str) -> object:
    """``--seeds``: a preset name (``paper``/``smoke``) or a replication count."""
    try:
        return int(value)
    except ValueError:
        return value


def _run_command(args: "argparse.Namespace") -> int:
    """Execute ``--run``: regenerate figures into the run directory."""
    from repro.experiments.presets import run_paper
    from repro.experiments.progress import ProgressBars
    from repro.experiments.results import load_run

    figures = args.figures.split(",") if args.figures else None
    run_paper(
        figures=figures,
        seeds=_parse_seeds(args.seeds),
        workers=args.workers,
        base_seed=args.base_seed,
        out_dir=args.run_dir,
        resume=not args.fresh,
        progress=ProgressBars(),
    )
    run = load_run(args.run_dir)
    cells = run.metadata.get("cells", {})
    print(f"wrote {run.directory}: " + ", ".join(f"{name} ({len(rows)} rows)" for name, rows in run.rows.items()))
    if isinstance(cells, dict):
        print(f"cells reused from cache: {cells.get('reused', 0)}, computed: {cells.get('computed', 0)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: render a persisted run directory as paper-style tables.

    ``--list-figures`` instead prints every figure ``run_paper()``
    regenerates — name, kind (metric/trace) and a one-line
    description — without needing a run directory.  ``--run`` flips the
    CLI from rendering a run to producing one: it regenerates the
    selected figures into the run directory with the incremental cell
    cache enabled, so rerunning the same command resumes an interrupted
    sweep.
    """
    import argparse

    from repro.experiments.results import load_run

    parser = argparse.ArgumentParser(
        description="Render a stored experiment run (a run directory written "
        "by run_paper(out_dir=...)) as text tables, or produce one with --run."
    )
    parser.add_argument("run_dir", nargs="?", default=None,
                        help="run directory containing manifest.json and <figure>.json files")
    parser.add_argument("--max-rows", type=int, default=30,
                        help="rows shown per figure table (<= 0 = unlimited; default: 30)")
    parser.add_argument("--list-figures", action="store_true",
                        help="list every figure run_paper() regenerates, with descriptions, and exit")
    group = parser.add_argument_group("producing runs (--run)")
    group.add_argument("--run", action="store_true",
                       help="regenerate figures into run_dir via run_paper(out_dir=run_dir); "
                       "resumes from the directory's cell cache if interrupted")
    group.add_argument("--figures", default=None,
                       help="comma-separated figure subset (default: every figure)")
    group.add_argument("--seeds", default="paper",
                       help="seed preset ('paper'/'smoke') or replication count (default: paper)")
    group.add_argument("--workers", type=int, default=None,
                       help="worker count (default: one per CPU core; 0 or 1 = serial)")
    group.add_argument("--base-seed", type=int, default=0,
                       help="root seed for spawned seed lists (default: 0)")
    group.add_argument("--fresh", action="store_true",
                       help="ignore and discard any cached cells; recompute everything")
    args = parser.parse_args(argv)

    if args.list_figures:
        print(format_figure_index())
        return 0
    if args.run_dir is None:
        parser.error("a run directory is required (or pass --list-figures)")
    if args.run:
        return _run_command(args)

    run = load_run(args.run_dir)
    metadata = run.metadata
    if metadata:
        import json

        print(f"# {run.directory}")
        for key, value in metadata.items():
            rendered = value if isinstance(value, str) else json.dumps(value, default=str)
            print(f"#   {key}: {rendered}")
        print()
    print(format_run(run.rows, max_rows=args.max_rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
