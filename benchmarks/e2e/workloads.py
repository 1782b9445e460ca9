"""The workloads of the end-to-end ``run_paper`` benchmark.

Every workload is one call of the public :func:`repro.experiments.run_paper`
API, so what is timed is what a user of the reproduction waits for.  The
four workloads stress different layers (see ``README.md`` for the
measured layer shares behind each choice):

* ``paper_static`` — the static linear-topology figures at paper-default
  parameters, serial: the ``mac``/``core``/``sim.engine``/``transport``
  stack, no mobility.
* ``paper_random`` — Figures 10 and 11 at paper defaults, serial: random
  topologies under random-waypoint mobility, where ``sim.channel``
  (neighbour recomputes) and ``routing`` (Dijkstra) dominate.
* ``faults`` — the four fault-injection families at defaults, serial:
  the same simulation stack under crashes, cuts and regime forcing.
* ``sweep_resume`` — every figure and family at its smoke parameters on
  two workers, resumed from a half-filled cell cache and rendered: the
  executor, the results store and the plot renderer.

The workload seed ``S`` is the benchmark's only input: metric figures
replicate over ``preset_seeds(count, base_seed=S)`` and every trace
figure runs at ``spawn_seeds(S, 1)[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.experiments import ALL_FIGURES, WORKLOAD_JOBS, preset_seeds, spawn_seeds

#: Every job ``run_paper`` accepts, by name.
JOBS = {job.name: job for job in ALL_FIGURES + WORKLOAD_JOBS}

#: Figures 6 and Table 2 are left out of ``paper_static``: at one
#: replication their cost swings by a fifth with the seed (event-count
#: CV 0.22 and 0.21 over seeds 0-9), against 0.01-0.04 for the others.
STATIC_FIGURES = tuple(
    job.name for job in ALL_FIGURES if job.name not in ("figure6", "figure10", "figure11", "table2")
)
RANDOM_FIGURES = ("figure10", "figure11")
FAULT_FAMILIES = tuple(job.name for job in WORKLOAD_JOBS)


def metric_seeds(seed: int, count: int) -> Tuple[int, ...]:
    """Replication seeds of every metric figure for workload seed ``seed``."""
    return preset_seeds(count, base_seed=seed)


def trace_seed(seed: int) -> int:
    """The seed every trace figure runs at for workload seed ``seed``."""
    return spawn_seeds(seed, 1)[0]


@dataclass(frozen=True)
class Workload:
    """One named ``run_paper`` invocation, parameterised by the workload seed."""

    name: str
    figures: Tuple[str, ...]
    #: Replications per metric-figure cell.
    seeds: int
    #: Passed to ``resolve_backend(workers=...)``; 0 is the serial backend.
    workers: int
    why: str
    #: Run every figure at its ``FigureJob.smoke_kwargs`` instead of the
    #: paper defaults.
    smoke: bool = False
    #: Time a resumed run over a half-deleted cell cache plus ``render_run``
    #: instead of a fresh run.
    resume: bool = False

    def overrides(self, seed: int) -> Dict[str, Dict[str, object]]:
        """Per-figure keyword arguments of the workload at ``seed``."""
        overrides: Dict[str, Dict[str, object]] = {}
        for name in self.figures:
            job = JOBS[name]
            params: Dict[str, object] = dict(job.smoke_kwargs) if self.smoke else {}
            if job.kind == "trace":
                params["seed"] = trace_seed(seed)
            if params:
                overrides[name] = params
        return overrides

    def run_kwargs(self, seed: int) -> Dict[str, object]:
        """The ``run_paper`` keyword arguments, minus backend and ``out_dir``."""
        return {
            "figures": list(self.figures),
            "seeds": metric_seeds(seed, self.seeds),
            "overrides": self.overrides(seed),
            "profile": False,
        }

    def operations(self, seed: int) -> Dict[str, int]:
        """Operations per figure: metric cells × seeds, or one trace-figure run."""
        overrides: Mapping[str, Mapping[str, object]] = self.overrides(seed)
        counts: Dict[str, int] = {}
        for name in self.figures:
            job = JOBS[name]
            if job.kind == "trace":
                counts[name] = 1
            else:
                plan = job.planner()(**overrides.get(name, {}))
                counts[name] = len(plan.specs) * self.seeds
        return counts


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper_static",
            STATIC_FIGURES,
            seeds=1,
            workers=0,
            why="static linear-topology figures at paper defaults, serial: the mac/core/engine/transport stack",
        ),
        Workload(
            "paper_random",
            RANDOM_FIGURES,
            seeds=4,
            workers=0,
            why="figures 10 and 11 at paper defaults, serial: mobility drives sim.channel and routing",
        ),
        Workload(
            "faults",
            FAULT_FAMILIES,
            seeds=3,
            workers=0,
            why="the four fault-injection families at defaults, serial: crashes, cuts and regime forcing",
        ),
        Workload(
            "sweep_resume",
            tuple(job.name for job in ALL_FIGURES) + FAULT_FAMILIES,
            seeds=16,
            workers=2,
            smoke=True,
            resume=True,
            why="smoke sweep on 2 workers resumed from a half-filled cell cache, then rendered",
        ),
    )
}
