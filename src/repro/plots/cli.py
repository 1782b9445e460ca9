"""``python -m repro.plots`` — render stored runs without re-simulating.

Render every figure of a run directory::

    python -m repro.plots RUN_DIR [--out DIR] [--figures NAME ...]

Regression-compare two runs (overlay + delta images)::

    python -m repro.plots RUN_DIR --compare OTHER_DIR [--force]

The run directory is whatever ``run_paper(out_dir=…)`` or
``protocol_shootout.py --out`` wrote (both through ``save_run``).
With matplotlib installed (``pip install -e '.[plots]'``) figures render
through the Agg canvas; otherwise the pure-stdlib fallback renderer is
used, so the command works in a dependency-free checkout too.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.plots.compare import RunMismatchError, compare_runs
    from repro.plots.render import DEFAULT_DPI, active_backend, matplotlib_available, render_run

    parser = argparse.ArgumentParser(
        prog="python -m repro.plots",
        description="Render a stored experiment run directory into figure images "
        "(or overlay/delta regression plots of two runs) without re-simulating.",
    )
    parser.add_argument("run_dir", help="run directory written by run_paper(out_dir=...) or the benchmark harness")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: <run_dir>/plots, or <compare_dir>/compare)")
    parser.add_argument("--figures", nargs="+", default=None, metavar="NAME",
                        help="subset of figures to render (default: every stored figure with a PlotSpec)")
    parser.add_argument("--compare", default=None, metavar="OTHER_DIR",
                        help="second run directory: render overlay + delta regression plots "
                             "of OTHER_DIR against run_dir instead of plain figures")
    parser.add_argument("--force", action="store_true",
                        help="compare runs even when their manifests disagree on seeds/params")
    parser.add_argument("--dpi", type=int, default=DEFAULT_DPI,
                        help=f"matplotlib output resolution (default: {DEFAULT_DPI}; "
                             "ignored by the fallback renderer)")
    args = parser.parse_args(argv)

    backend = active_backend()
    if backend == "fallback":
        if matplotlib_available():
            print("# REPRO_PLOTS_BACKEND=fallback - using the stdlib fallback renderer")
        else:
            print("# matplotlib not installed - using the stdlib fallback renderer "
                  "(pip install -e '.[plots]' for publication-quality figures)")

    if args.compare is not None:
        try:
            written = compare_runs(
                args.run_dir, args.compare,
                out_dir=args.out, figures=args.figures, force=args.force, dpi=args.dpi,
            )
        except RunMismatchError as error:
            parser.exit(2, f"error: {error}\n")
        for name, paths in written.items():
            for kind, path in paths.items():
                print(f"{name} [{kind}]: {path}")
        return 0

    written_paths = render_run(args.run_dir, out_dir=args.out, figures=args.figures, dpi=args.dpi)
    if not written_paths:
        print("(no stored figure has a registered PlotSpec; nothing rendered)")
    for name, path in written_paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
