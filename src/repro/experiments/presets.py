"""The figure registry, paper-scale presets and the full-paper driver.

:data:`ALL_FIGURES` and :data:`WORKLOAD_JOBS` are the one table of
everything the harness can regenerate: one :class:`FigureJob` record
per figure of the paper and per fault-injection workload family,
declaring its scenario family, plot spec, smoke shrinkage and
description once.  :func:`run_paper`, ``--list-figures``, the plot
renderer and the direct-call functions (``figures.figure9``, built by
:func:`entry_point`) all read these records.

The paper averages every linear-topology figure over **twenty**
independent runs and every random/mobile/testbed figure over **ten**
(Section 4).  The direct-call functions default to much smaller,
laptop-sized seed lists, so the paper-scale counts live here as named
presets instead of being re-hardcoded by every driver:

* :data:`PAPER_LINEAR` / :data:`PAPER_RANDOM` — the paper's replication
  counts, expanded into concrete seed lists with
  :func:`~repro.experiments.parallel.spawn_seeds`.
* :data:`SMOKE_LINEAR` / :data:`SMOKE_RANDOM` — the scaled-down counts
  used by CI and the benchmark harness, mirroring the paper's 20:10
  linear-to-random replication ratio.  Smoke seed lists are small
  literal seeds (``(1, 2)`` / ``(1,)``) in the style the bench drivers
  have always used, rather than spawned seeds.
* :func:`preset_seeds` — turn a preset name (or an explicit count) plus
  a scenario family into the seed list.
* :func:`run_paper` — regenerate **every** figure of the paper in one
  call.  Every figure is planned up front
  (:class:`~repro.experiments.figures.FigurePlan`) and all their grids
  are submitted as **one batched, interleaved stream** over a single
  shared executor backend
  (:meth:`~repro.experiments.parallel.ParallelRunner.run_grids`), so
  short cells from one figure keep workers busy while another figure's
  long cells run and the pool never drains at a figure boundary.  The
  trace figures (3c, 5, 7, 8) are grids like the rest, of one run per
  configuration at the figure's own ``seed``.  With ``out_dir=`` the
  whole run — rows, seeds, preset, backend, git provenance — is
  persisted as a run directory via :mod:`repro.experiments.results`, loadable with
  :func:`~repro.experiments.results.load_run` and renderable with
  ``python -m repro.experiments <run_dir>``.

``run_paper(seeds="smoke", workers=2, out_dir="smoke-run")`` is the CI
smoke invocation: it shrinks every figure to its smoke parameters,
finishes in well under a minute on two workers, and leaves a loadable
run directory behind as the job's artifact.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.backends import ExecutorBackend, SerialBackend, resolve_backend
from repro.experiments.parallel import ParallelRunner, ScenarioRecord, ScenarioSpec, spawn_seeds
from repro.experiments.results import CellStore, PathLike, cell_key, git_metadata, save_run
from repro.plots.spec import AxesSpec, PlotSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.experiments.figures import FigurePlan

#: Replications per figure cell in the paper's evaluation (Section 4).
PAPER_LINEAR = 20
#: Replications for the random/mobile/testbed figures in the paper.
PAPER_RANDOM = 10
#: Scaled-down replication counts for CI smoke runs and the benchmarks.
SMOKE_LINEAR = 2
SMOKE_RANDOM = 1

#: Seed-count presets by (preset name, scenario family).
PRESETS: Dict[str, Dict[str, int]] = {
    "paper": {"linear": PAPER_LINEAR, "random": PAPER_RANDOM},
    "smoke": {"linear": SMOKE_LINEAR, "random": SMOKE_RANDOM},
}

SeedsLike = Union[str, int, Sequence[int]]


def preset_seeds(
    seeds: SeedsLike,
    family: str = "linear",
    base_seed: int = 0,
) -> Tuple[int, ...]:
    """Resolve a preset name, count or explicit seed list into seeds.

    ``"paper"`` expands the paper's replication count for the scenario
    family (``"linear"`` or ``"random"``) via :func:`spawn_seeds`;
    ``"smoke"`` returns small literal seed lists (``(1, 2)`` for linear
    figures, ``(1,)`` for random ones) in the bench drivers' historical
    style; an ``int`` is a replication count expanded via
    :func:`spawn_seeds`; and an explicit sequence passes through.
    """
    if isinstance(seeds, str):
        try:
            count = PRESETS[seeds][family]
        except KeyError:
            raise ValueError(
                f"unknown preset {seeds!r} or family {family!r}; "
                f"presets: {sorted(PRESETS)}, families: ['linear', 'random']"
            ) from None
        if seeds == "smoke":
            return tuple(range(1, count + 1))
        return tuple(spawn_seeds(base_seed, count))
    if isinstance(seeds, int):
        return tuple(spawn_seeds(base_seed, seeds))
    return tuple(seeds)


@dataclass(frozen=True)
class FigureJob:
    """One figure of the paper (or one fault-injection workload family).

    The record is the figure's single declaration: how to run it, how to
    shrink it for CI, how to describe it and how to plot it.  Every job
    exposes a ``<name>_plan()`` builder whose grid joins the batched
    pool submission.
    """

    name: str
    family: str
    #: How the job's rows become an image (``python -m repro.plots``):
    #: axes columns, series grouping, 95%-CI error bars and log scales,
    #: mirroring the paper's presentation.
    plot: PlotSpec
    #: Parameter overrides applied for ``seeds="smoke"`` so a full smoke
    #: sweep stays CI-sized; paper runs use the figure defaults.
    smoke_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Descriptive only: ``"trace"`` means one run per configuration at
    #: the figure's own ``seed`` parameter (its plan pins its seeds),
    #: ``"metric"`` a grid replicated over the preset seeds.
    kind: str = "metric"
    #: One-line description of what the figure shows in the paper —
    #: printed by ``python -m repro.experiments --list-figures`` and the
    #: README's figure index (tests pin the two against this field).
    description: str = ""
    #: The module exposing the job's ``<name>_plan`` builder.  Paper
    #: figures live in :mod:`repro.experiments.figures`; the
    #: fault-injection workload families live in
    #: :mod:`repro.experiments.workloads`.
    module: str = "repro.experiments.figures"

    def planner(self) -> Callable[..., "FigurePlan"]:
        """The figure's ``<name>_plan()`` builder."""
        return getattr(importlib.import_module(self.module), f"{self.name}_plan")


#: Every figure :func:`run_paper` regenerates, in paper order.
ALL_FIGURES: Tuple[FigureJob, ...] = (
    FigureJob(
        "figure3",
        "linear",
        plot=PlotSpec(
            figure="figure3",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="total_energy_J", yerr="total_energy_ci", ylabel="total energy [J]"),
                AxesSpec(y="data_delivered_kB", yerr="data_delivered_ci", ylabel="data delivered [kB]"),
            ),
            title="Figure 3 - adjustable reliability: energy and delivered data",
        ),
        smoke_kwargs={"net_sizes": (3, 5), "tolerances": (0.0, 0.10), "transfer_bytes": 40_000, "duration": 400},
        description="Total energy and data delivered vs. net size for jtp0/jtp10/jtp20",
    ),
    FigureJob(
        "figure3c",
        "linear",
        plot=PlotSpec(
            figure="figure3c",
            x="time",
            xlabel="time [s]",
            series=("protocol",),
            axes=(AxesSpec(y="attempts", ylabel="attempt bound"),),
            title="Figure 3(c) - iJTP per-packet attempt bound at the third node",
        ),
        smoke_kwargs={"num_nodes": 4, "tolerances": (0.10, 0.20), "transfer_bytes": 40_000, "duration": 400},
        description="Per-packet link-layer attempt bound over time at the third node",
        kind="trace",
    ),
    FigureJob(
        "figure4",
        "linear",
        plot=PlotSpec(
            figure="figure4",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="energy_per_bit_uJ", yerr="energy_per_bit_ci", ylabel="energy per bit [uJ]"),
                AxesSpec(y="source_rtx", ylabel="source retransmissions"),
            ),
            title="Figure 4(a) - caching gain: JTP vs JNC",
        ),
        smoke_kwargs={"net_sizes": (3, 5), "transfer_bytes": 50_000, "duration": 500},
        description="Energy per bit, JTP vs. JNC, vs. net size (linear topologies)",
    ),
    FigureJob(
        "figure4b",
        "linear",
        plot=PlotSpec(
            figure="figure4b",
            x="node",
            xlabel="node index",
            series=("protocol",),
            axes=(AxesSpec(y="energy_J", ylabel="energy [J]", kind="bar"),),
            title="Figure 4(b) - per-node energy, 7-node chain",
        ),
        smoke_kwargs={"num_nodes": 5, "transfer_bytes": 50_000, "duration": 500},
        description="Per-node energy in a 7-node linear topology, JTP vs. JNC",
    ),
    FigureJob(
        "figure5",
        "linear",
        plot=PlotSpec(
            figure="figure5",
            x="time",
            xlabel="time [s]",
            series=("variant", "series"),
            axes=(AxesSpec(y="rate_pps", ylabel="reception rate [pkt/s]"),),
            title="Figure 5 - competing flows with source back-off on/off",
        ),
        smoke_kwargs={"num_nodes": 5, "duration": 300, "transfer_bytes": 100_000},
        description="Reception-rate time series of two competing flows, back-off on/off",
        kind="trace",
    ),
    FigureJob(
        "figure6",
        "linear",
        plot=PlotSpec(
            figure="figure6",
            x="cache_size",
            xlabel="cache size [pkts]",
            series=("netSize",),
            logx=True,
            axes=(
                AxesSpec(y="source_rtx", ylabel="source retransmissions"),
                AxesSpec(y="cache_recoveries", ylabel="cache recoveries"),
            ),
            title="Figure 6 - effect of in-network cache size",
        ),
        smoke_kwargs={"cache_sizes": (2, 10), "net_sizes": (5,), "transfer_bytes": 50_000, "duration": 400},
        description="Source retransmissions vs. in-network cache size for several net sizes",
    ),
    FigureJob(
        "figure7",
        "linear",
        plot=PlotSpec(
            figure="figure7",
            x="feedback",
            xlabel="feedback mode",
            axes=(
                AxesSpec(y="energy_mJ", ylabel="energy [mJ]", kind="bar"),
                AxesSpec(y="queue_drops", ylabel="queue drops", kind="bar"),
            ),
            title="Figure 7 - constant vs variable feedback rate",
        ),
        smoke_kwargs={
            "feedback_rates": (0.1, 0.5),
            "num_nodes": 5,
            "duration": 300,
            "long_transfer_bytes": 120_000,
            "short_transfer_bytes": 15_000,
            "num_short_flows": 2,
        },
        description="Energy and queue drops vs. feedback rate, constant vs. variable",
        kind="trace",
    ),
    FigureJob(
        "figure8",
        "linear",
        plot=PlotSpec(
            figure="figure8",
            x="time",
            xlabel="time [s]",
            series=("series",),
            # The flow2_interval row is a (start, end) annotation, not a
            # series; plotting it as a curve would draw a meaningless point.
            exclude=("flow2_interval",),
            axes=(AxesSpec(y="value", ylabel="rate [pkt/s] / monitor level"),),
            title="Figure 8 - rate adaptation of two competing JTP flows",
        ),
        smoke_kwargs={"num_nodes": 4, "duration": 400, "flow2_start": 120.0, "flow2_duration": 120.0},
        description="Rate adaptation of two competing JTP flows (flip-flop monitor)",
        kind="trace",
    ),
    FigureJob(
        "figure9",
        "linear",
        plot=PlotSpec(
            figure="figure9",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="energy_per_bit_uJ", yerr="energy_per_bit_ci", ylabel="energy per bit [uJ]"),
                AxesSpec(y="goodput_kbps", yerr="goodput_ci", ylabel="goodput [kbit/s]"),
            ),
            title="Figure 9 - JTP vs ATP vs TCP, linear topologies",
        ),
        smoke_kwargs={"net_sizes": (3, 5), "transfer_bytes": 60_000, "duration": 400},
        description="Energy per bit and goodput vs. net size, JTP vs. ATP vs. TCP (linear)",
    ),
    FigureJob(
        "figure10",
        "random",
        plot=PlotSpec(
            figure="figure10",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="energy_per_bit_uJ", yerr="energy_per_bit_ci", ylabel="energy per bit [uJ]"),
                AxesSpec(y="goodput_kbps", yerr="goodput_ci", ylabel="goodput [kbit/s]"),
            ),
            title="Figure 10 - JTP vs ATP vs TCP, static random topologies",
        ),
        smoke_kwargs={"net_sizes": (10,), "num_flows": 3, "transfer_bytes": 30_000, "duration": 400},
        description="Energy per bit and goodput on static random topologies",
    ),
    FigureJob(
        "figure11",
        "random",
        plot=PlotSpec(
            figure="figure11",
            x="speed_mps",
            xlabel="node speed [m/s]",
            series=("protocol",),
            logx=True,
            axes=(
                AxesSpec(y="energy_per_bit_uJ", ylabel="energy per bit [uJ]"),
                AxesSpec(y="goodput_kbps", ylabel="goodput [kbit/s]"),
                AxesSpec(y="source_rtx_per_kpkt", ylabel="source rtx / kpkt"),
                AxesSpec(y="cache_hits_per_kpkt", ylabel="cache hits / kpkt"),
            ),
            title="Figure 11 - mobility: energy, goodput and recovery split",
        ),
        smoke_kwargs={"speeds": (1.0,), "num_nodes": 10, "num_flows": 3, "transfer_bytes": 30_000, "duration": 400},
        description="Energy per bit, goodput and recovery split under mobility",
    ),
    FigureJob(
        "table2",
        "random",
        plot=PlotSpec(
            figure="table2",
            x="protocol",
            xlabel="protocol",
            axes=(
                AxesSpec(y="energy_per_bit_mJ", ylabel="energy per bit [mJ]", kind="bar"),
                AxesSpec(y="goodput_kbps", ylabel="goodput [kbit/s]", kind="bar"),
            ),
            title="Table 2 - testbed-like comparison",
        ),
        smoke_kwargs={"num_nodes": 8, "duration": 300},
        description="Testbed-like comparison over stable links with a Poisson workload",
    ),
)

#: The two panels every fault-injection workload plots.
_RESILIENCE_AXES = (
    AxesSpec(y="goodput_kbps", yerr="goodput_ci", ylabel="goodput [kbit/s]"),
    AxesSpec(y="delivered_frac", yerr="delivered_ci", ylabel="delivered fraction"),
)

#: The fault-injection workload families (:mod:`repro.experiments.workloads`).
#: They are jobs like the figures in every respect — planned grids,
#: batched cells, cell-cache resume — but are listed separately from the
#: paper figures:
#: :func:`run_paper` accepts their names alongside figure names, while
#: the default run (and the README's paper-figure index) stays exactly
#: the paper's figures.
WORKLOAD_JOBS: Tuple[FigureJob, ...] = (
    FigureJob(
        "churn",
        "random",
        plot=PlotSpec(
            figure="churn",
            x="churn_rate",
            xlabel="crash rate [1/s]",
            series=("protocol",),
            axes=_RESILIENCE_AXES,
            title="Node churn: goodput and delivery vs. crash rate",
        ),
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "churn_rates": (0.0, 0.02),
            "num_nodes": 10,
            "num_flows": 2,
            "mean_downtime": 20.0,
            "transfer_bytes": 30_000,
            "duration": 300,
        },
        description="Goodput and delivery under Poisson node crash/recover churn",
        module="repro.experiments.workloads",
    ),
    FigureJob(
        "partition_heal",
        "linear",
        plot=PlotSpec(
            figure="partition_heal",
            x="outage_s",
            xlabel="partition outage [s]",
            series=("protocol",),
            axes=_RESILIENCE_AXES,
            title="Partition & heal: goodput and delivery vs. outage length",
        ),
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "outages": (0.0, 20.0),
            "num_nodes": 5,
            "fault_start": 30.0,
            "transfer_bytes": 60_000,
            "duration": 240,
        },
        description="Resilience across a clean network partition that heals mid-run",
        module="repro.experiments.workloads",
    ),
    FigureJob(
        "flapping_links",
        "linear",
        plot=PlotSpec(
            figure="flapping_links",
            x="flap_rate",
            xlabel="link-outage rate [1/s]",
            series=("protocol",),
            axes=_RESILIENCE_AXES,
            title="Flapping links: goodput and delivery vs. outage rate",
        ),
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "flap_rates": (0.0, 0.04),
            "num_nodes": 5,
            "transfer_bytes": 60_000,
            "duration": 240,
        },
        description="Resilience under Poisson forced link outages on every chain link",
        module="repro.experiments.workloads",
    ),
    FigureJob(
        "blackout",
        "linear",
        plot=PlotSpec(
            figure="blackout",
            x="outage_s",
            xlabel="blackout length [s]",
            series=("protocol",),
            axes=_RESILIENCE_AXES,
            title="Channel blackout: goodput and delivery vs. blackout length",
        ),
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "outages": (0.0, 30.0),
            "num_nodes": 5,
            "fault_start": 30.0,
            "transfer_bytes": 60_000,
            "duration": 240,
        },
        description="Resilience while every link is forced into its bad loss regime",
        module="repro.experiments.workloads",
    ),
)

_JOBS_BY_NAME: Dict[str, FigureJob] = {job.name: job for job in ALL_FIGURES + WORKLOAD_JOBS}


def entry_point(name: str) -> Callable[..., List[dict]]:
    """The direct-call function of job ``name``, built from its record.

    ``figures.figure9(workers=4)`` and friends are these functions: every
    keyword other than ``seeds``/``workers``/``backend`` goes to the
    job's ``<name>_plan()`` builder, so the plan signature is the only
    place a figure's parameter defaults are written.  ``seeds`` defaults
    to the job family's smoke preset; an empty list raises
    ``ValueError``, as it does for :func:`run_paper`.  A plan that pins
    its seeds (a trace figure) runs at those and rejects ``seeds`` with
    ``ValueError``: its replication seed is its ``seed`` parameter.  The
    builder is looked up at call time, like :meth:`FigureJob.planner`.
    """
    job = _JOBS_BY_NAME[name]

    def run(
        *,
        seeds: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
        backend: Optional[ExecutorBackend] = None,
        **params: Any,
    ) -> List[dict]:
        plan = job.planner()(**params)
        if plan.seeds is not None:
            if seeds is not None:
                raise ValueError(f"{name} runs once per configuration at its seed= parameter; it takes no seeds=")
            seeds = plan.seeds
        elif seeds is None:
            seeds = preset_seeds("smoke", job.family)
        return plan.run(seeds, workers, backend)

    run.__name__ = run.__qualname__ = job.name
    run.__module__ = job.module
    run.__doc__ = job.description
    return run


#: Signature of the ``run_paper(progress=…)`` callback: called as
#: ``progress(figure_name, completed_cells, total_cells)``.
ProgressCallback = Callable[[str, int, int], None]


def run_paper(
    figures: Optional[Sequence[str]] = None,
    backend: Optional[ExecutorBackend] = None,
    seeds: SeedsLike = "paper",
    workers: Optional[int] = None,
    base_seed: int = 0,
    overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
    out_dir: Optional[PathLike] = None,
    resume: bool = True,
    progress: Optional[ProgressCallback] = None,
    profile: Optional[bool] = None,
) -> Dict[str, List[dict]]:
    """Regenerate the paper's figures — one batched submission, one call.

    ``figures`` names a subset (default: all of :data:`ALL_FIGURES`);
    fault-injection workload names from :data:`WORKLOAD_JOBS`
    (``"churn"``, ``"partition_heal"``, …) may be mixed in and run like
    any figure — the default all-figures run regenerates the paper only
    and leaves the workloads opt-in.
    ``seeds`` is a preset name (``"paper"``/``"smoke"``), a replication
    count, or an explicit seed list; it does not apply to the trace
    figures (3c, 5, 7, 8), whose plans pin their replication seed to the
    figure's ``seed`` parameter (override it via ``overrides``).
    ``backend``/``workers`` select the executor exactly as in
    :class:`~repro.experiments.parallel.ParallelRunner` (pass at most
    one — the default is the shared persistent process pool).
    ``overrides`` maps figure names to extra keyword arguments, applied
    on top of the smoke shrinkage when ``seeds="smoke"``; a key naming
    no registered figure or workload raises :class:`ValueError`, while
    registered names outside ``figures`` are ignored.

    Every figure is planned before anything runs, so a bad parameter
    fails before the first simulation.  All their cells are then
    submitted to the backend as **one** interleaved task stream
    (:meth:`~repro.experiments.parallel.ParallelRunner.run_grids`), so
    the pool never drains between figures; each figure's rows are then
    aggregated from its demultiplexed slice — bit-identical to calling
    the figure functions one at a time.  A cell that several figures
    plan (the same scenario, parameters and seed — figure4b's cells are
    all figure4's, say) is simulated **at most once** per call and its
    record handed to each figure; the ``progress`` events and the
    persisted cells are exactly those of simulating it per figure.

    ``progress`` streams per-cell completion: the callback is invoked
    as ``progress(figure_name, completed, total)`` — once with
    ``completed=0`` when a figure's work is announced, then once per
    finished cell.  ``total`` is the figure's ``cells × seeds`` task
    count and completions arrive during the batched submission (in
    submission order, so a paper-scale run reports every figure's
    percentage while the pool is busy).  The callback runs on the
    calling thread and an exception it raises aborts the run.

    ``profile`` (default: the ``REPRO_PROFILE`` environment variable)
    turns on the simulation-core profiler (:mod:`repro.sim.profile`)
    for the whole run: aggregate events/sec, per-callback-class time
    attribution and the event-heap high-water mark.  The profiler sees
    only simulations executed *in this process*, so profiling needs the
    serial backend (``workers=0``); on a worker pool it raises
    :class:`ValueError` before anything runs.  The report is stored under
    ``core_profile`` (with ``out_dir``) or summarised to stderr
    (without).  Expect roughly 2x wall-clock while profiling; results
    are unaffected.

    Returns ``{figure name: rows}`` in paper order.  With ``out_dir``
    the same mapping is persisted as a run directory
    (:func:`~repro.experiments.results.save_run`) whose manifest records
    the preset, resolved per-family seed lists, backend, base seed, git
    provenance, the cell-cache hit/store counts and (when profiling)
    the core profile.

    With ``out_dir`` the run is also **incremental**: every finished
    cell is persisted into ``<out_dir>/cells/``
    (:class:`~repro.experiments.results.CellStore`) as it completes, and
    a rerun pointed at the same directory loads already-computed cells
    from the cache instead of re-simulating them — so an interrupted
    paper-scale sweep resumes where it died.  Cells are keyed on the
    figure, scenario, parameters and seed
    (:func:`~repro.experiments.results.cell_key`), and a cell shared by
    several figures is persisted under each figure's key, so resuming
    any one of them hits the cache; a shared cell is served from the
    cache when any of its figures' keys is there.  The cache as a whole
    is invalidated when the run-level provenance (seed policy, base
    seed, figure parameters) differs from the cached run's.  Cached
    cells are reported through ``progress`` as an up-front burst of
    completions.  ``resume=False`` discards any cached cells and
    recomputes everything (the fresh results are still persisted for
    the next run).  See ``docs/distributed.md`` for the full semantics.
    """
    if figures is None:
        jobs = list(ALL_FIGURES)
    else:
        unknown = sorted(set(figures) - set(_JOBS_BY_NAME))
        if unknown:
            raise ValueError(f"unknown figures {unknown}; known: {sorted(_JOBS_BY_NAME)}")
        if len(set(figures)) != len(list(figures)):
            # Duplicates would be simulated in full and then silently
            # collapsed into one results entry — reject them instead.
            raise ValueError(f"duplicate figure names in {list(figures)}")
        jobs = [_JOBS_BY_NAME[name] for name in figures]
    if overrides:
        # A misspelled key would otherwise run its figure at defaults.
        unknown = sorted(set(overrides) - set(_JOBS_BY_NAME))
        if unknown:
            raise ValueError(f"unknown figures in overrides {unknown}; known: {sorted(_JOBS_BY_NAME)}")
    resolved = resolve_backend(workers=workers, backend=backend)

    from repro.sim import profile as core_profile

    if profile is None:
        profile = core_profile.profile_from_env()
    if profile and not isinstance(resolved, SerialBackend):
        # The profiler sees only simulations run in this process; on a
        # worker pool that is none of them.
        raise ValueError(f"profiling needs workers=0; the {resolved.name} backend runs every cell in a worker")
    profiler = core_profile.CoreProfiler() if profile else None

    def job_kwargs(job: FigureJob) -> Dict[str, object]:
        kwargs: Dict[str, object] = {}
        if seeds == "smoke":
            kwargs.update(job.smoke_kwargs)
        if overrides and job.name in overrides:
            kwargs.update(overrides[job.name])
        return kwargs

    # Plan every figure up front, submit all their grids as one
    # interleaved batch, then aggregate each figure from its own slice.
    plans = [job.planner()(**job_kwargs(job)) for job in jobs]
    seed_lists = [
        plan.seeds if plan.seeds is not None else preset_seeds(seeds, family=job.family, base_seed=base_seed)
        for job, plan in zip(jobs, plans, strict=True)
    ]
    names = [job.name for job in jobs]

    store: Optional[CellStore] = None
    provenance: Dict[str, object] = {}
    if out_dir is not None:
        # The run-level provenance the cell cache is gated on — the same
        # fields compare_runs keys on, and verbatim what the manifest
        # metadata records below, so "cache valid" and "runs comparable"
        # can never drift apart.
        provenance = {
            "seeds_arg": seeds if isinstance(seeds, (str, int)) else list(seeds),
            "seeds": {
                family: list(preset_seeds(seeds, family=family, base_seed=base_seed))
                for family in ("linear", "random")
            },
            "base_seed": base_seed,
            # Effective per-figure parameters (smoke shrinkage plus
            # overrides; empty = figure defaults), so an overridden run
            # is distinguishable from a default one when loaded back.
            "figure_params": {job.name: job_kwargs(job) for job in jobs},
        }
        store = CellStore(out_dir, provenance, resume=resume)

    reuse = None
    on_result = None
    if store is not None:
        cache = store

        def _cache_key(grid_index: int, spec: ScenarioSpec, seed: int) -> str:
            return cell_key(names[grid_index], spec.scenario, spec.params, seed)

        def reuse(grid_index: int, spec: ScenarioSpec, seed: int) -> Optional[ScenarioRecord]:
            record = cache.get(_cache_key(grid_index, spec, seed))
            return record if isinstance(record, ScenarioRecord) else None

        def on_result(grid_index: int, spec: ScenarioSpec, seed: int, record: ScenarioRecord) -> None:
            cache.put(_cache_key(grid_index, spec, seed), record)

    grid_progress = None
    if progress is not None:
        for name, plan, seed_list in zip(names, plans, seed_lists, strict=True):
            progress(name, 0, len(plan.specs) * len(seed_list))

        def grid_progress(grid_index: int, completed: int, total: int) -> None:
            progress(names[grid_index], completed, total)

    profile_context = nullcontext() if profiler is None else core_profile.profiled(profiler)
    with profile_context:
        grouped = ParallelRunner(backend=resolved).run_grids(
            [(plan.specs, seed_list) for plan, seed_list in zip(plans, seed_lists, strict=True)],
            progress=grid_progress,
            reuse=reuse,
            on_result=on_result,
        )
    results = {name: plan.aggregate(groups) for name, plan, groups in zip(names, plans, grouped, strict=True)}
    if out_dir is not None:
        metadata = {
            "driver": "run_paper",
            "seeds_arg": provenance["seeds_arg"],
            "seeds": provenance["seeds"],
            "base_seed": base_seed,
            "backend": resolved.name,
            "workers": resolved.workers,
            "figure_params": provenance["figure_params"],
            "git": git_metadata(),
        }
        if store is not None:
            # How much of the run came from the resume cache: reused =
            # cells loaded from cells/, computed = cells persisted by this
            # invocation.  A cell several figures share is simulated once
            # but persisted (and counted) under each figure's key.
            metadata["cells"] = {"reused": store.hits, "computed": store.stored}
        if profiler is not None:
            metadata["core_profile"] = profiler.report(top=20)
        save_run(results, out_dir, metadata)
    elif profiler is not None:
        print(profiler.summary(), file=sys.stderr)
    return results
