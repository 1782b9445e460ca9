"""One experiment definition per figure and table of the paper.

Every function returns plain data (lists of row dictionaries) so it can
be used three ways: printed by the benchmark harness, asserted on by the
integration tests, and post-processed by anyone who wants to plot the
curves.  Default parameters are scaled down from the paper's (fewer
seeds, shorter runs, smaller transfers) so a full regeneration finishes
in minutes on a laptop; every parameter can be turned back up.

Every figure is written once, as a ``figureN_plan()`` builder returning
a :class:`FigurePlan` — the figure's grid of
:class:`~repro.experiments.parallel.ScenarioSpec` cells plus an
``aggregate`` turning record groups into rows.  The plan split is what
lets :func:`~repro.experiments.presets.run_paper` batch **every**
figure's cells into one interleaved pool submission
(:meth:`~repro.experiments.parallel.ParallelRunner.run_grids`) instead
of draining the pool once per figure.  The direct-call ``figureN()``
functions are generated from the figure's
:class:`~repro.experiments.presets.FigureJob` record
(:func:`~repro.experiments.presets.entry_point`): they take the plan's
parameters as keywords plus ``seeds`` (default: the smoke preset),
``workers`` (default: the shared persistent process pool; ``0`` or
``1`` run serially) and ``backend=`` (any
:class:`~repro.experiments.backends.ExecutorBackend` — pass one of
``workers``/``backend``, not both).  Either way the rows are
bit-identical, because every run is fully determined by its seed.

The figures that read live simulator state during the run (3c, 5, 7, 8)
are drawn from one run per configuration.  Each of their cells is one
of the trace scenarios of :mod:`repro.experiments.scenarios`, whose
record carries the figure's tidy rows, and the aggregate concatenates
those rows in spec order.  Their plans pin the replication seeds to the
figure's own ``seed`` parameter (:attr:`FigurePlan.seeds`), so the
``seeds`` preset never applies to them.

What each figure shows in the paper, its plot spec and its CI-sized
smoke parameters are declared once, on its record in
:data:`~repro.experiments.presets.ALL_FIGURES`; ``python -m
repro.experiments --list-figures`` prints the mapping.  ``table1``
(the default parameter values) needs no simulation grid and is a plain
function here.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import JTPConfig
from repro.experiments.backends import ExecutorBackend
from repro.experiments.parallel import ParallelRunner, ScenarioRecord, ScenarioSpec
from repro.experiments.presets import entry_point
from repro.experiments.runner import mean_ci
from repro.experiments.scenarios import LOSSY_LINK_QUALITY

Row = Dict[str, object]


@dataclass(frozen=True)
class FigurePlan:
    """A figure split into its grid and its aggregation.

    ``specs`` lists one :class:`ScenarioSpec` per figure cell and
    ``aggregate`` turns the per-spec record groups that
    :meth:`~repro.experiments.parallel.ParallelRunner.run_grids` returns
    for the plan's grid into the figure's rows.  The split is what lets
    :func:`~repro.experiments.presets.run_paper` batch every figure's
    grid into **one** pool submission: plans are built up front, every
    plan's specs go down together via
    :meth:`~repro.experiments.parallel.ParallelRunner.run_grids`, and
    each figure's ``aggregate`` consumes its own demultiplexed slice —
    producing rows bit-identical to a standalone figure call.

    ``seeds`` is ``None`` for a figure replicated over the preset seeds.
    A figure drawn from one run per configuration (3c, 5, 7, 8) pins it
    to ``(seed,)`` from its own ``seed`` parameter instead.

    Every ``figureN_plan()`` builder takes the figure's simulation
    parameters (everything except ``seeds``/``workers``/``backend``,
    which belong to execution, not to the figure).
    """

    name: str
    specs: Tuple[ScenarioSpec, ...]
    aggregate: Callable[[Sequence[Sequence[ScenarioRecord]]], List[Row]]
    seeds: Optional[Tuple[int, ...]] = None

    def run(
        self,
        seeds: Sequence[int],
        workers: Optional[int] = None,
        backend: Optional[ExecutorBackend] = None,
    ) -> List[Row]:
        """Execute the plan's grid on one backend and aggregate the rows."""
        groups = ParallelRunner(workers, backend).run_grids([(self.specs, seeds)])[0]
        return self.aggregate(groups)


# ---------------------------------------------------------------------------
# Figure 3 — adjustable reliability levels
# ---------------------------------------------------------------------------

def figure3_plan(
    net_sizes: Sequence[int] = (3, 5, 7, 9),
    tolerances: Sequence[float] = (0.0, 0.10, 0.20),
    transfer_bytes: float = 120_000.0,
    duration: float = 900.0,
) -> FigurePlan:
    """Figures 3(a) and 3(b): energy and delivered data per reliability level."""
    cells = [(size, tolerance) for size in net_sizes for tolerance in tolerances]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": f"jtp{int(round(tolerance * 100))}" if tolerance > 0 else "jtp",
            "jtp_config": JTPConfig(loss_tolerance=tolerance),
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
        })
        for size, tolerance in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (size, tolerance), records in zip(cells, groups, strict=True):
            energies = [r.metrics.energy_joules for r in records]
            delivered = [r.metrics.delivered_bytes / 1e3 for r in records]
            energy_mean, energy_ci = mean_ci(energies)
            data_mean, data_ci = mean_ci(delivered)
            rows.append({
                "netSize": size,
                "protocol": f"jtp{int(round(tolerance * 100))}",
                "loss_tolerance": tolerance,
                "total_energy_J": energy_mean,
                "total_energy_ci": energy_ci,
                "data_delivered_kB": data_mean,
                "data_delivered_ci": data_ci,
                "requirement_kB": transfer_bytes * (1.0 - tolerance) / 1e3,
            })
        return rows

    return FigurePlan("figure3", specs, aggregate)


figure3 = entry_point("figure3")


def _trace_aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
    """A trace figure's aggregate: every cell's rows, in spec order."""
    return [row for records in groups for record in records for row in record.rows]


def figure3c_plan(
    num_nodes: int = 4,
    tolerances: Sequence[float] = (0.10, 0.20),
    transfer_bytes: float = 120_000.0,
    duration: float = 900.0,
    seed: int = 1,
) -> FigurePlan:
    """Figure 3(c): iJTP's per-packet attempt bound over time at the third node."""
    specs = tuple(
        ScenarioSpec("attempt_bound", {
            "num_nodes": num_nodes,
            "loss_tolerance": tolerance,
            "transfer_bytes": transfer_bytes,
            "duration": duration,
        })
        for tolerance in tolerances
    )
    return FigurePlan("figure3c", specs, _trace_aggregate, seeds=(seed,))


figure3c = entry_point("figure3c")


# ---------------------------------------------------------------------------
# Figure 4 — caching gain (JTP vs JNC)
# ---------------------------------------------------------------------------

def figure4_plan(
    net_sizes: Sequence[int] = (3, 5, 7, 9),
    transfer_bytes: float = 150_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 4(a): energy per delivered bit, JTP vs. JNC, vs. path length."""
    cells = [(size, name) for size in net_sizes for name in ("jtp", "jnc")]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "link_quality": LOSSY_LINK_QUALITY,
        })
        for size, name in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (size, name), records in zip(cells, groups, strict=True):
            mean, ci = mean_ci([r.metrics.energy_per_bit_microjoules for r in records])
            rows.append({
                "netSize": size,
                "protocol": name,
                "energy_per_bit_uJ": mean,
                "energy_per_bit_ci": ci,
                "source_rtx": statistics.fmean(r.metrics.source_retransmissions for r in records),
            })
        return rows

    return FigurePlan("figure4", specs, aggregate)


figure4 = entry_point("figure4")


def figure4b_plan(
    num_nodes: int = 7,
    transfer_bytes: float = 150_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 4(b): per-node energy in a 7-node chain, JTP vs. JNC."""
    names = ("jtp", "jnc")
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": num_nodes,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "link_quality": LOSSY_LINK_QUALITY,
        })
        for name in names
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for name, records in zip(names, groups, strict=True):
            per_node: Dict[int, List[float]] = {i: [] for i in range(num_nodes)}
            for record in records:
                for node_id, joules in record.metrics.per_node_energy.items():
                    per_node[node_id].append(joules)
            for node_id in range(num_nodes):
                rows.append({
                    "protocol": name,
                    "node": node_id,
                    "energy_J": statistics.fmean(per_node[node_id]) if per_node[node_id] else 0.0,
                })
        return rows

    return FigurePlan("figure4b", specs, aggregate)


figure4b = entry_point("figure4b")


# ---------------------------------------------------------------------------
# Figure 5 — fairness of in-network caching (source back-off)
# ---------------------------------------------------------------------------

def figure5_plan(
    num_nodes: int = 6,
    duration: float = 900.0,
    transfer_bytes: float = 400_000.0,
    seed: int = 2,
    short_window: float = 20.0,
    long_window: float = 120.0,
) -> FigurePlan:
    """Figure 5: reception-rate series of two competing flows, back-off on/off."""
    specs = tuple(
        ScenarioSpec("backoff", {
            "num_nodes": num_nodes,
            "backoff_enabled": backoff,
            "duration": duration,
            "transfer_bytes": transfer_bytes,
            "short_window": short_window,
            "long_window": long_window,
        })
        for backoff in (True, False)
    )
    return FigurePlan("figure5", specs, _trace_aggregate, seeds=(seed,))


figure5 = entry_point("figure5")


# ---------------------------------------------------------------------------
# Figure 6 — effect of cache size
# ---------------------------------------------------------------------------

def figure6_plan(
    cache_sizes: Sequence[int] = (2, 5, 10, 20, 50, 100),
    net_sizes: Sequence[int] = (5, 8),
    transfer_bytes: float = 200_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 6: source retransmissions vs. in-network cache size."""
    cells = [(size, cache_size) for size in net_sizes for cache_size in cache_sizes]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": "jtp",
            "jtp_config": JTPConfig(cache_size=cache_size),
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "link_quality": LOSSY_LINK_QUALITY,
        })
        for size, cache_size in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (size, cache_size), records in zip(cells, groups, strict=True):
            rows.append({
                "netSize": size,
                "cache_size": cache_size,
                "source_rtx": statistics.fmean(r.metrics.source_retransmissions for r in records),
                "cache_recoveries": statistics.fmean(r.metrics.cache_recoveries for r in records),
            })
        return rows

    return FigurePlan("figure6", specs, aggregate)


figure6 = entry_point("figure6")


# ---------------------------------------------------------------------------
# Figure 7 — variable vs constant feedback rate
# ---------------------------------------------------------------------------

def figure7_plan(
    feedback_rates: Sequence[float] = (0.05, 0.1, 0.2, 0.33, 0.5),
    num_nodes: int = 8,
    duration: float = 900.0,
    long_transfer_bytes: float = 600_000.0,
    short_transfer_bytes: float = 40_000.0,
    num_short_flows: int = 3,
    seed: int = 1,
) -> FigurePlan:
    """Figure 7: energy and queue drops vs. feedback rate, plus the variable point.

    Slow feedback lets the long-lived sender keep transmitting into a
    congested path (queue drops) while fast feedback burns energy on
    acknowledgments.  Variable-rate feedback should sit near the
    bottom-left of both curves.
    """
    specs = tuple(
        ScenarioSpec("feedback_rate", {
            "num_nodes": num_nodes,
            "feedback_rate": rate,
            "duration": duration,
            "long_transfer_bytes": long_transfer_bytes,
            "short_transfer_bytes": short_transfer_bytes,
            "num_short_flows": num_short_flows,
        })
        for rate in (*feedback_rates, None)
    )
    return FigurePlan("figure7", specs, _trace_aggregate, seeds=(seed,))


figure7 = entry_point("figure7")


# ---------------------------------------------------------------------------
# Figure 8 — rate adaptation of competing flows
# ---------------------------------------------------------------------------

def figure8_plan(
    num_nodes: int = 6,
    duration: float = 900.0,
    flow2_start: float = 300.0,
    flow2_duration: float = 250.0,
    seed: int = 4,
    window: float = 30.0,
) -> FigurePlan:
    """Figure 8: two competing JTP flows and the long-lived flow's path monitor."""
    spec = ScenarioSpec("rate_adaptation", {
        "num_nodes": num_nodes,
        "duration": duration,
        "flow2_start": flow2_start,
        "flow2_duration": flow2_duration,
        "window": window,
    })
    return FigurePlan("figure8", (spec,), _trace_aggregate, seeds=(seed,))


figure8 = entry_point("figure8")


# ---------------------------------------------------------------------------
# Figures 9-11 and Table 2 — protocol comparisons
# ---------------------------------------------------------------------------

def _comparison_aggregate(
    cells: Sequence[Tuple[object, str]],
    cell_key: str,
) -> Callable[[Sequence[Sequence[ScenarioRecord]]], List[Row]]:
    """Shared aggregation for the figure 9/10 protocol-comparison grids."""

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (cell_value, name), records in zip(cells, groups, strict=True):
            energy_mean, energy_ci = mean_ci([r.metrics.energy_per_bit_microjoules for r in records])
            goodput_mean, goodput_ci = mean_ci([r.metrics.goodput_kbps for r in records])
            rows.append({
                cell_key: cell_value,
                "protocol": name,
                "energy_per_bit_uJ": energy_mean,
                "energy_per_bit_ci": energy_ci,
                "goodput_kbps": goodput_mean,
                "goodput_ci": goodput_ci,
            })
        return rows

    return aggregate


def figure9_plan(
    net_sizes: Sequence[int] = (3, 5, 7, 9),
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    transfer_bytes: float = 300_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 9: energy per bit and goodput on linear topologies."""
    cells = [(size, name) for size in net_sizes for name in protocols]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 2,
            "duration": duration,
        })
        for size, name in cells
    )
    return FigurePlan("figure9", specs, _comparison_aggregate(cells, "netSize"))


figure9 = entry_point("figure9")


def figure10_plan(
    net_sizes: Sequence[int] = (10, 15, 20),
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    num_flows: int = 5,
    transfer_bytes: float = 100_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 10: energy per bit and goodput on static random topologies."""
    cells = [(size, name) for size in net_sizes for name in protocols]
    specs = tuple(
        ScenarioSpec("random", {
            "num_nodes": size,
            "protocol": name,
            "num_flows": num_flows,
            "transfer_bytes": transfer_bytes,
            "duration": duration,
        })
        for size, name in cells
    )
    return FigurePlan("figure10", specs, _comparison_aggregate(cells, "netSize"))


figure10 = entry_point("figure10")


def figure11_plan(
    speeds: Sequence[float] = (0.1, 1.0, 5.0),
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    num_nodes: int = 15,
    num_flows: int = 5,
    transfer_bytes: float = 80_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 11(a,b): energy per bit and goodput under random-waypoint mobility.

    For JTP the rows also carry the Figure 11(c) quantities: source
    retransmissions and cache recoveries, normalised by delivered
    packets.
    """
    cells = [(speed, name) for speed in speeds for name in protocols]
    specs = tuple(
        ScenarioSpec("mobile", {
            "num_nodes": num_nodes,
            "protocol": name,
            "speed": speed,
            "num_flows": num_flows,
            "transfer_bytes": transfer_bytes,
            "duration": duration,
        })
        for speed, name in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (speed, name), records in zip(cells, groups, strict=True):
            delivered = [max(1.0, r.metrics.delivered_bytes / 800.0) for r in records]
            rtx = [r.metrics.source_retransmissions for r in records]
            recoveries = [r.metrics.cache_recoveries for r in records]
            rows.append({
                "speed_mps": speed,
                "protocol": name,
                "energy_per_bit_uJ": statistics.fmean(r.metrics.energy_per_bit_microjoules for r in records),
                "goodput_kbps": statistics.fmean(r.metrics.goodput_kbps for r in records),
                "source_rtx_per_kpkt": 1e3 * statistics.fmean(r / d for r, d in zip(rtx, delivered, strict=True)),
                "cache_hits_per_kpkt": 1e3 * statistics.fmean(c / d for c, d in zip(recoveries, delivered, strict=True)),
            })
        return rows

    return FigurePlan("figure11", specs, aggregate)


figure11 = entry_point("figure11")


def table1() -> List[Row]:
    """Table 1: the default parameter values used throughout the evaluation."""
    config = JTPConfig()
    return [
        {"parameter": "MAX_ATTEMPTS", "value": config.max_attempts},
        {"parameter": "JTP Pkt Size", "value": f"{config.packet_size_bytes:.0f} bytes"},
        {"parameter": "Cache Size", "value": f"{config.cache_size} pkts"},
        {"parameter": "T_Lower_bound", "value": f"{config.t_lower_bound:.0f} s"},
        {"parameter": "JTP header", "value": f"{config.header_bytes:.0f} bytes"},
        {"parameter": "JTP ACK header", "value": f"{config.ack_header_bytes:.0f} bytes"},
    ]


def table2_plan(
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    duration: float = 1800.0,
    num_nodes: int = 14,
) -> FigurePlan:
    """Table 2: testbed-like comparison over stable, low-loss links."""
    protocols = tuple(protocols)
    specs = tuple(
        ScenarioSpec("testbed", {"protocol": name, "num_nodes": num_nodes, "duration": duration})
        for name in protocols
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for name, records in zip(protocols, groups, strict=True):
            rows.append({
                "protocol": name,
                "energy_per_bit_mJ": statistics.fmean(r.metrics.energy_per_bit_millijoules for r in records),
                "goodput_kbps": statistics.fmean(r.metrics.goodput_kbps for r in records),
            })
        return rows

    return FigurePlan("table2", specs, aggregate)


table2 = entry_point("table2")
