"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures at a
reduced scale (the smoke preset: fewer seeds, shorter runs) and prints
the resulting rows or series, so the harness output reads like the
paper's evaluation section.  Every experiment function accepts the full
paper-scale parameters if you want the long version — the paper seed
counts live in :mod:`repro.experiments.presets` (``PAPER_LINEAR=20``,
``PAPER_RANDOM=10``).

Invocation (the ``bench_*.py`` names do not match pytest's default
``test_*.py`` collection pattern, so name the files explicitly)::

    python -m pytest benchmarks/bench_*.py -q -s

The tier-1 correctness gate stays ``python -m pytest -x -q`` from the
repository root; the benchmarks are additive.  Environment knobs:

``REPRO_WORKERS``
    Executor parallelism for the metric-only figure drivers.  Unset
    means the shared persistent process pool with one worker per core;
    ``0`` (or ``1``) means the serial backend — no pool at all.
``REPRO_SEEDS``
    Replication count per figure cell, overriding the smoke preset.
    Expanded deterministically via
    :func:`repro.experiments.parallel.spawn_seeds`.
``REPRO_BENCH_NO_ASSERT``
    When set (non-empty), ``bench_parallel_scaling.py`` skips its
    wall-clock assertions (CI noise) while keeping the bit-identity
    assertions — pool regressions still fail the run.
``REPRO_RUN_DIR``
    When set, every bench driver whose experiment returns row lists
    persists them into that run directory via the results store
    (:mod:`repro.experiments.results`), one ``<figure>.json``/``.csv``
    pair per driver, loadable with
    :func:`repro.experiments.results.load_run` and renderable with
    ``python -m repro.experiments $REPRO_RUN_DIR``.
``REPRO_PLOTS_DIR``
    When set, each persisted or returned row list that has a registered
    :class:`~repro.plots.spec.PlotSpec` is additionally rendered to
    ``$REPRO_PLOTS_DIR/<figure>.png`` through :mod:`repro.plots`
    (matplotlib when the ``[plots]`` extra is installed, the stdlib
    fallback renderer otherwise).  Experiments without a spec — the
    ablations — are skipped silently.
``REPRO_PROFILE``
    When set (non-empty, not ``0``), every driver run through
    :func:`run_once` executes under the simulation-core profiler
    (:mod:`repro.sim.profile`) and prints a uniform events/sec line
    via :func:`events_per_sec_report`.  Expect roughly 2x wall-clock
    while profiling; simulation results are unchanged.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional, Tuple

from repro.experiments.backends import workers_from_env
from repro.experiments.presets import preset_seeds
from repro.experiments.results import save_rows
from repro.sim.profile import profile_from_env, profiled


def bench_workers() -> Optional[int]:
    """Worker count for the parallel figure drivers (``REPRO_WORKERS``).

    Unset means ``None`` — the figures then use the shared persistent
    process pool with one worker per core.  ``0`` and ``1`` both select
    the serial backend; the rows are bit-identical either way, only the
    wall-clock changes.
    """
    return workers_from_env(default=None)


def seeds_from_env() -> Optional[int]:
    """The ``REPRO_SEEDS`` replication override, or ``None`` when unset."""
    value = os.environ.get("REPRO_SEEDS", "").strip()
    return int(value) if value else None


def no_assert_from_env() -> bool:
    """Whether ``REPRO_BENCH_NO_ASSERT`` disables wall-clock assertions."""
    return bool(os.environ.get("REPRO_BENCH_NO_ASSERT", "").strip())


def run_dir_from_env() -> Optional[Path]:
    """The ``REPRO_RUN_DIR`` persistence target, or ``None`` when unset."""
    value = os.environ.get("REPRO_RUN_DIR", "").strip()
    return Path(value) if value else None


def plots_dir_from_env() -> Optional[Path]:
    """The ``REPRO_PLOTS_DIR`` render target, or ``None`` when unset."""
    value = os.environ.get("REPRO_PLOTS_DIR", "").strip()
    return Path(value) if value else None


def bench_seeds(family: str = "linear") -> Tuple[int, ...]:
    """Seed list for a figure driver: the smoke preset, or ``REPRO_SEEDS``.

    The smoke preset mirrors the paper's 20:10 linear-to-random
    replication ratio at CI scale (2 seeds for linear figures, 1 for
    random/mobile/testbed ones).  Set ``REPRO_SEEDS=N`` to replicate
    every cell over ``N`` deterministically-derived seeds instead.
    """
    count = seeds_from_env()
    if count is not None:
        return preset_seeds(count, family=family)
    return preset_seeds("smoke", family=family)


def bench_no_assert() -> bool:
    """Whether wall-clock assertions are disabled (``REPRO_BENCH_NO_ASSERT``)."""
    return no_assert_from_env()


def bench_host() -> dict:
    """Where a bench record was measured: ``{"hostname", "cpu_count"}``.

    Embedded in every committed ``BENCH_*.json`` so a number recorded
    on a 1-CPU container is self-describing — a reader (or a CI
    comparison) can see at a glance that e.g. process-pool speedups
    from such a host say nothing about real hardware.  ``cpu_count``
    honours cgroup/affinity limits where the platform exposes them.
    """
    import platform

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        cpus = os.cpu_count() or 1
    return {"hostname": platform.node(), "cpu_count": cpus}


def bench_run_dir() -> Optional[Path]:
    """Run directory for persisted bench rows (``REPRO_RUN_DIR``), or ``None``."""
    return run_dir_from_env()


def bench_plots_dir() -> Optional[Path]:
    """Directory for rendered bench figures (``REPRO_PLOTS_DIR``), or ``None``."""
    return plots_dir_from_env()


def events_per_sec_report(name: str, events: int, seconds: float) -> float:
    """Print one uniform events/sec line and return the rate.

    Every bench driver that reports simulation-core throughput goes
    through this helper so the lines are grep-able across drivers and
    PRs (``<name>: <events> events in <s> s -> <rate> events/s``).
    """
    rate = events / seconds if seconds > 0 else 0.0
    print(f"{name}: {events:,} events in {seconds:.3f} s -> {rate:,.0f} events/s")
    return rate


def throughput_regression(measured: dict, committed: dict, bound: float) -> Optional[str]:
    """Why ``measured`` regressed by more than ``bound`` against ``committed``, or ``None``.

    Both are best-of-repeats records with ``events``, ``wall_s`` and
    ``events_per_sec``.  While the event counts match, the gate is on
    events/sec.  A change that adds or removes engine events makes
    events/sec compare unlike work (one fused event per delivered frame
    lowers it while the run gets faster), so then the gate is on
    ``wall_s`` with the same bound instead.
    """
    if measured["events"] == committed["events"]:
        now, before = measured["events_per_sec"], committed["events_per_sec"]
        if now < (1.0 - bound) * before:
            return f"{now:,.0f} vs {before:,.0f} events/s"
        return None
    now, before = measured["wall_s"], committed["wall_s"]
    if now > (1.0 + bound) * before:
        return (
            f"{now:.4f} vs {before:.4f} s wall "
            f"({measured['events']:,} vs {committed['events']:,} events, so gated on wall_s)"
        )
    return None


def run_once(benchmark, experiment: Callable, *args, **kwargs):
    """Run ``experiment`` exactly once under pytest-benchmark timing.

    The experiments are full simulations taking hundreds of milliseconds
    to a few seconds each; a single round keeps the whole harness fast
    while still recording the wall-clock cost of regenerating the figure.

    With ``REPRO_RUN_DIR`` set, a row-list result (every metric figure,
    ``figure7`` and ``table1``) is also persisted into that run
    directory under the experiment's name; series-shaped results are
    left to the driver to rowify first.  With ``REPRO_PLOTS_DIR`` set,
    row lists whose experiment has a PlotSpec in
    :func:`~repro.plots.render.default_specs` are rendered to
    ``<figure>.png`` there as well.  With ``REPRO_PROFILE`` set, the
    simulation-core profiler runs for the experiment and every driver
    prints the same events/sec line via :func:`events_per_sec_report`
    (in-process simulations only — use ``REPRO_WORKERS=0`` for full
    attribution).
    """
    name = getattr(experiment, "__name__", "experiment")
    if profile_from_env():
        with profiled() as profiler:
            result = benchmark.pedantic(experiment, args=args, kwargs=kwargs, rounds=1, iterations=1)
        if profiler.wall_s > 0:
            events_per_sec_report(name, profiler.events, profiler.wall_s)
    else:
        result = benchmark.pedantic(experiment, args=args, kwargs=kwargs, rounds=1, iterations=1)
    run_dir = bench_run_dir()
    if run_dir is not None and _looks_like_rows(result):
        save_rows(run_dir, name, result)
    plots_dir = bench_plots_dir()
    if plots_dir is not None and _looks_like_rows(result):
        from repro.plots.render import default_specs, render_figure

        spec = default_specs().get(name)
        if spec is not None:
            render_figure(result, spec, plots_dir / f"{name}.png")
    return result


def _looks_like_rows(result) -> bool:
    return isinstance(result, list) and all(isinstance(row, dict) for row in result)
