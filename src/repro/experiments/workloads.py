"""Failure-scenario workload families (fault-injection resilience studies).

The paper's evaluation keeps the network fixed for the lifetime of a
run; this module asks the complementary robustness question — how do
JTP/iJTP and the baselines behave when the network *itself* fails — by
pairing the scenario grids of :mod:`repro.experiments.figures` with
declarative :class:`~repro.sim.faults.FaultPlan` schedules.  Four
workload families are registered:

=================  ==========================================================
``churn``          Poisson node crash/recover churn on a random topology;
                   crashed nodes lose their MAC queue and iJTP cache.
``partition_heal`` A clean network partition on a linear chain that heals
                   after a configurable outage.
``flapping_links`` Poisson forced link outages over every chain link.
``blackout``       Every Gilbert–Elliott link forced into its bad state
                   for a configurable window.
=================  ==========================================================

Every family follows the figure conventions exactly: a ``<name>_plan()``
builder returns a :class:`~repro.experiments.figures.FigurePlan` whose
grid is plain :class:`~repro.experiments.parallel.ScenarioSpec` cells
(the fault plan travels *inside* the cell params, so cell-cache keys
and process workers both see it).  The family's record in
:data:`~repro.experiments.presets.WORKLOAD_JOBS` declares its plot
spec, smoke parameters and description, and generates the direct-call
``<name>()`` function that runs the plan.  Each grid includes a
fault-free baseline column (fault intensity 0) so the aggregation can
report goodput degradation as a ratio against the same protocol under
no faults.  Replication, confidence intervals, run persistence and
plotting are all inherited: ``run_paper(figures=["partition_heal"],
...)`` treats a workload like any metric figure.

Resilience columns emitted per cell (beyond the usual goodput/delivery
pair): ``outage_delivery_ratio`` (delivery rate while a fault was
active relative to the run's overall rate), ``post_heal_recovery_s``
(mean wait from each heal instant to the next delivery anywhere in the
system) and ``goodput_vs_baseline`` (this cell's mean goodput over the
protocol's fault-free mean).
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence, Tuple

from repro.experiments.figures import FigurePlan, Row
from repro.experiments.parallel import ScenarioRecord, ScenarioSpec
from repro.experiments.presets import entry_point
from repro.experiments.runner import mean_ci
from repro.sim.faults import FaultPlan

#: Protocols compared by every workload unless overridden: the full
#: JTP/iJTP stack, the caching-free variant and the end-to-end baseline.
DEFAULT_PROTOCOLS: Tuple[str, ...] = ("jtp", "jnc", "tcp")


def _resilience_aggregate(
    cells: Sequence[Tuple[float, str]],
    cell_key: str,
) -> Callable[[Sequence[Sequence[ScenarioRecord]]], List[Row]]:
    """Shared aggregation for the workload grids.

    Cells are ``(fault intensity, protocol)`` pairs; intensity ``0``
    marks the fault-free baseline the degradation ratio is computed
    against.
    """

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        baseline_goodput: Dict[str, float] = {}
        for (value, name), records in zip(cells, groups, strict=True):
            if value == 0:
                baseline_goodput[name] = statistics.fmean(
                    r.metrics.goodput_kbps for r in records
                )
        rows: List[Row] = []
        for (value, name), records in zip(cells, groups, strict=True):
            goodput_mean, goodput_ci = mean_ci([r.metrics.goodput_kbps for r in records])
            delivered_mean, delivered_ci = mean_ci(
                [r.metrics.delivered_fraction for r in records]
            )
            outage_mean, outage_ci = mean_ci(
                [r.metrics.outage_delivery_ratio for r in records]
            )
            recovery_mean, recovery_ci = mean_ci(
                [r.metrics.post_heal_recovery_seconds for r in records]
            )
            base = baseline_goodput.get(name, 0.0)
            rows.append({
                cell_key: value,
                "protocol": name,
                "goodput_kbps": goodput_mean,
                "goodput_ci": goodput_ci,
                "delivered_frac": delivered_mean,
                "delivered_ci": delivered_ci,
                "outage_delivery_ratio": outage_mean,
                "outage_delivery_ci": outage_ci,
                "post_heal_recovery_s": recovery_mean,
                "recovery_ci": recovery_ci,
                "goodput_vs_baseline": (goodput_mean / base) if base > 0 else 0.0,
                "fault_events": statistics.fmean(r.metrics.fault_events for r in records),
                "outage_seconds": statistics.fmean(
                    r.metrics.fault_outage_seconds for r in records
                ),
            })
        return rows

    return aggregate


def _chain_links(num_nodes: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(num_nodes - 1))


# ---------------------------------------------------------------------------
# churn — Poisson node crash/recover on a random topology
# ---------------------------------------------------------------------------

def churn_plan(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    churn_rates: Sequence[float] = (0.0, 0.005, 0.02),
    num_nodes: int = 12,
    mean_downtime: float = 30.0,
    num_flows: int = 3,
    transfer_bytes: float = 80_000.0,
    duration: float = 900.0,
) -> FigurePlan:
    """Grid + aggregation for the node-churn workload.

    Every node — relays and endpoints alike — is a churn candidate;
    crashes strike from ``t=0`` until 80% of the run so late heals are
    still observable inside the measurement window.
    """
    cells = [(rate, name) for rate in churn_rates for name in protocols]
    specs = tuple(
        ScenarioSpec("random", {
            "num_nodes": num_nodes,
            "protocol": name,
            "num_flows": num_flows,
            "transfer_bytes": transfer_bytes,
            "duration": duration,
            "fault_plan": (
                FaultPlan.node_churn(
                    tuple(range(num_nodes)), rate, mean_downtime, until=duration * 0.8
                )
                if rate > 0
                else None
            ),
        })
        for rate, name in cells
    )
    return FigurePlan("churn", specs, _resilience_aggregate(cells, "churn_rate"))


churn = entry_point("churn")


# ---------------------------------------------------------------------------
# partition_heal — one clean partition on a chain, healed after the outage
# ---------------------------------------------------------------------------

def partition_heal_plan(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    outages: Sequence[float] = (0.0, 20.0, 60.0),
    num_nodes: int = 6,
    fault_start: float = 60.0,
    transfer_bytes: float = 150_000.0,
    duration: float = 600.0,
) -> FigurePlan:
    """Grid + aggregation for the partition-and-heal workload.

    The first half of the chain (source side) is cut off from the rest
    at ``fault_start`` and rejoined ``outage`` seconds later; outage 0
    is the fault-free baseline cell.
    """
    group = tuple(range(max(1, num_nodes // 2)))
    cells = [(outage, name) for outage in outages for name in protocols]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": num_nodes,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "fault_plan": (
                FaultPlan.single_partition(group, fault_start, outage) if outage > 0 else None
            ),
        })
        for outage, name in cells
    )
    return FigurePlan("partition_heal", specs, _resilience_aggregate(cells, "outage_s"))


partition_heal = entry_point("partition_heal")


# ---------------------------------------------------------------------------
# flapping_links — Poisson forced link outages over every chain link
# ---------------------------------------------------------------------------

def flapping_links_plan(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    flap_rates: Sequence[float] = (0.0, 0.01, 0.04),
    num_nodes: int = 6,
    mean_outage: float = 5.0,
    transfer_bytes: float = 150_000.0,
    duration: float = 600.0,
) -> FigurePlan:
    """Grid + aggregation for the flapping-links workload."""
    links = _chain_links(num_nodes)
    cells = [(rate, name) for rate in flap_rates for name in protocols]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": num_nodes,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "fault_plan": (
                FaultPlan.link_flapping(links, rate, mean_outage, until=duration * 0.8)
                if rate > 0
                else None
            ),
        })
        for rate, name in cells
    )
    return FigurePlan("flapping_links", specs, _resilience_aggregate(cells, "flap_rate"))


flapping_links = entry_point("flapping_links")


# ---------------------------------------------------------------------------
# blackout — every link forced into its Gilbert–Elliott bad state
# ---------------------------------------------------------------------------

def blackout_plan(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    outages: Sequence[float] = (0.0, 30.0, 90.0),
    num_nodes: int = 6,
    fault_start: float = 60.0,
    transfer_bytes: float = 150_000.0,
    duration: float = 600.0,
) -> FigurePlan:
    """Grid + aggregation for the channel-blackout workload.

    Unlike a partition, a blackout degrades every link at once without
    disconnecting the topology, so routing keeps its paths while the
    loss process turns hostile — the regime the paper's bounded
    link-layer attempts (Section 4) were designed for.
    """
    cells = [(outage, name) for outage in outages for name in protocols]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": num_nodes,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "fault_plan": (
                FaultPlan.blackout(fault_start, outage) if outage > 0 else None
            ),
        })
        for outage, name in cells
    )
    return FigurePlan("blackout", specs, _resilience_aggregate(cells, "outage_s"))


blackout = entry_point("blackout")
