"""One experiment definition per figure and table of the paper.

Every function returns plain data (lists of row dictionaries or time
series) so it can be used three ways: printed by the benchmark harness,
asserted on by the integration tests, and post-processed by anyone who
wants to plot the curves.  Default parameters are scaled down from the
paper's (fewer seeds, shorter runs, smaller transfers) so a full
regeneration finishes in minutes on a laptop; every parameter can be
turned back up.

The figures that only need per-run metrics (3, 4, 4b, 6, 9, 10, 11 and
Table 2) are written once, as a ``figureN_plan()`` builder returning a
:class:`FigurePlan` — the figure's grid of
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

The figures that inspect live simulator state after the run (3c, 5, 7,
8) always execute serially in-process and return series-shaped
dictionaries; their ``figureNc_rows``-style adapters re-express those
series as flat row lists with a stable schema so ``run_paper`` and the
on-disk results store (:mod:`repro.experiments.results`) can treat all
figures uniformly.

What each figure shows in the paper, its plot spec and its CI-sized
smoke parameters are declared once, on its record in
:data:`~repro.experiments.presets.ALL_FIGURES`; ``python -m
repro.experiments --list-figures`` prints the mapping.  ``table1``
(the default parameter values) and the ablations need no simulation
grid and are plain functions here.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.core.config import CachePolicy, FeedbackMode, JTPConfig
from repro.experiments.backends import ExecutorBackend
from repro.experiments.parallel import ParallelRunner, ScenarioRecord, ScenarioSpec
from repro.experiments.presets import entry_point
from repro.experiments.runner import mean_ci
from repro.experiments.scenarios import (
    LOSSY_LINK_QUALITY,
    PAPER_LINK_QUALITY,
    linear_scenario,
)
from repro.transport.registry import make_protocol
from repro.transport.udp import UdpConfig, UdpProtocol

Row = Dict[str, object]


@dataclass(frozen=True)
class FigurePlan:
    """A metric figure split into its grid and its aggregation.

    ``specs`` lists one :class:`ScenarioSpec` per figure cell and
    ``aggregate`` turns the per-spec record groups that
    :meth:`~repro.experiments.parallel.ParallelRunner.run_grid` returns
    into the figure's rows.  The split is what lets
    :func:`~repro.experiments.presets.run_paper` batch every figure's
    grid into **one** pool submission: plans are built up front, every
    plan's specs go down together via
    :meth:`~repro.experiments.parallel.ParallelRunner.run_grids`, and
    each figure's ``aggregate`` consumes its own demultiplexed slice —
    producing rows bit-identical to a standalone figure call.

    Every ``figureN_plan()`` builder takes the figure's simulation
    parameters (everything except ``seeds``/``workers``/``backend``,
    which belong to execution, not to the figure).
    """

    name: str
    specs: Tuple[ScenarioSpec, ...]
    aggregate: Callable[[Sequence[Sequence[ScenarioRecord]]], List[Row]]

    def run(
        self,
        seeds: Sequence[int],
        workers: Optional[int] = None,
        backend: Optional[ExecutorBackend] = None,
    ) -> List[Row]:
        """Execute the plan's grid on one backend and aggregate the rows."""
        groups = ParallelRunner(workers, backend).run_grid(list(self.specs), list(seeds))
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


def figure3c(
    num_nodes: int = 4,
    tolerances: Sequence[float] = (0.10, 0.20),
    transfer_bytes: float = 120_000.0,
    duration: float = 900.0,
    seed: int = 1,
) -> Dict[str, List[Tuple[float, int]]]:
    """Figure 3(c): iJTP's per-packet attempt bound over time at the third node.

    Returns, per reliability label, the ``(time, attempts)`` series
    recorded at node index 2 (the third node of the chain), exactly the
    quantity plotted in the paper.
    """
    series: Dict[str, List[Tuple[float, int]]] = {}
    for tolerance in tolerances:
        label = f"jtp{int(round(tolerance * 100))}"
        result = linear_scenario(
            num_nodes,
            protocol=label,
            jtp_config=JTPConfig(loss_tolerance=tolerance),
            transfer_bytes=transfer_bytes,
            num_flows=1,
            duration=duration,
            seed=seed,
            trace_enabled=True,
        )
        events = result.network.trace.events("ijtp_attempts", node=2)
        series[label] = [(event.time, int(event["attempts"])) for event in events]
    return series


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

def figure5(
    num_nodes: int = 6,
    duration: float = 900.0,
    transfer_bytes: float = 400_000.0,
    seed: int = 2,
    short_window: float = 20.0,
    long_window: float = 120.0,
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Figure 5: reception-rate series of two competing flows, back-off on/off.

    Flow 1 is a UDP-like flow (no retransmission requests); flow 2 is a
    fully reliable JTP flow that exercises the in-network caches.  The
    result maps "with_backoff"/"without_backoff" to per-flow short- and
    long-term reception-rate time series.
    """
    output: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for backoff in (True, False):
        jtp_config = JTPConfig(backoff_enabled=backoff)
        jtp = make_protocol("jtp", jtp_config)
        udp = UdpProtocol(UdpConfig(rate_pps=2.0))
        result_key = "with_backoff" if backoff else "without_backoff"

        network_result = linear_scenario(
            num_nodes,
            protocol=jtp,
            transfer_bytes=transfer_bytes,
            num_flows=1,
            duration=1.0,  # run() is called again below once both flows exist
            seed=seed,
            jtp_config=jtp_config,
            link_quality=LOSSY_LINK_QUALITY,
        )
        network = network_result.network
        udp_flow = udp.create_flow(network, 0, num_nodes - 1, transfer_bytes, start_time=0.0)
        network.run(duration)

        end = network.sim.now
        jtp_flow = network_result.flows[0]
        output[result_key] = {
            "flow1_short": udp_flow.stats.reception_rate_series(short_window, short_window / 2, end),
            "flow1_long": udp_flow.stats.reception_rate_series(long_window, long_window / 2, end),
            "flow2_short": jtp_flow.stats.reception_rate_series(short_window, short_window / 2, end),
            "flow2_long": jtp_flow.stats.reception_rate_series(long_window, long_window / 2, end),
        }
    return output


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

def figure7(
    feedback_rates: Sequence[float] = (0.05, 0.1, 0.2, 0.33, 0.5),
    num_nodes: int = 8,
    duration: float = 900.0,
    long_transfer_bytes: float = 600_000.0,
    short_transfer_bytes: float = 40_000.0,
    num_short_flows: int = 3,
    seed: int = 1,
) -> List[Row]:
    """Figure 7: energy and queue drops vs. feedback rate, plus the variable point.

    One long-lived flow spans the whole chain while several short-lived
    flows come and go, so slow feedback lets the long-lived sender keep
    transmitting into a congested path (queue drops) while fast feedback
    burns energy on acknowledgments.  Variable-rate feedback should sit
    near the bottom-left of both curves.
    """
    rows: List[Row] = []
    configurations: List[Tuple[str, JTPConfig]] = [
        (f"constant_{rate:g}", JTPConfig(feedback_mode=FeedbackMode.CONSTANT,
                                         constant_feedback_period=1.0 / rate))
        for rate in feedback_rates
    ]
    configurations.append(("variable", JTPConfig(feedback_mode=FeedbackMode.VARIABLE)))

    for label, config in configurations:
        protocol = make_protocol("jtp", config)
        base = linear_scenario(
            num_nodes,
            protocol=protocol,
            jtp_config=config,
            transfer_bytes=long_transfer_bytes,
            num_flows=1,
            duration=1.0,
            seed=seed,
        )
        network = base.network
        flows = list(base.flows)
        for index in range(num_short_flows):
            start = 100.0 + index * (duration / (num_short_flows + 1))
            flows.append(protocol.create_flow(network, 1, num_nodes - 2, short_transfer_bytes, start_time=start))
        network.run(duration)
        stats = network.stats
        rows.append({
            "feedback": label,
            "feedback_rate_pps": (1.0 / config.constant_feedback_period
                                  if config.feedback_mode is FeedbackMode.CONSTANT else None),
            "energy_mJ": stats.total_energy_joules() * 1e3,
            "queue_drops": network.total_queue_drops(),
            "acks": sum(f.stats.acks_sent for f in flows),
            "delivered_fraction": statistics.fmean(f.delivered_fraction for f in flows),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — rate adaptation of competing flows
# ---------------------------------------------------------------------------

def figure8(
    num_nodes: int = 6,
    duration: float = 900.0,
    flow2_start: float = 300.0,
    flow2_duration: float = 250.0,
    seed: int = 4,
    window: float = 30.0,
) -> Dict[str, object]:
    """Figure 8: two competing JTP flows, one long-lived and one short-lived.

    Returns the reception-rate series of both flows plus flow 1's path
    monitor readings (reported available rate, filtered mean and control
    limits) so the flip-flop behaviour around the arrival and departure
    of flow 2 can be inspected.
    """
    protocol = make_protocol("jtp")
    base = linear_scenario(
        num_nodes,
        protocol=protocol,
        transfer_bytes=2_000_000.0,
        num_flows=1,
        duration=1.0,
        seed=seed,
        trace_enabled=True,
    )
    network = base.network
    flow1 = base.flows[0]
    flow2_bytes = 800.0 * 3.0 * flow2_duration  # roughly 3 pkt/s for its lifetime
    flow2 = protocol.create_flow(network, 0, num_nodes - 1, flow2_bytes, start_time=flow2_start)
    network.run(duration)
    end = network.sim.now

    monitor_events = network.trace.events("jtp_receive", flow=flow1.flow_id)
    return {
        "flow1_rate": flow1.stats.reception_rate_series(window, window / 2, end),
        "flow2_rate": flow2.stats.reception_rate_series(window, window / 2, end),
        "flow1_reported_rate": [(e.time, e["rate_stamp"]) for e in monitor_events],
        "flow1_monitor_mean": [(e.time, e["monitor_mean"]) for e in monitor_events],
        "flow1_control_limits": [(e.time, e["monitor_lcl"], e["monitor_ucl"]) for e in monitor_events],
        "flow2_interval": (flow2_start, flow2_start + flow2_duration),
    }


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


# ---------------------------------------------------------------------------
# Tidy-row adapters for the serial trace figures (3c, 5, 7, 8)
# ---------------------------------------------------------------------------
#
# The trace figures inspect live simulator state (trace events, per-flow
# statistics objects) and therefore run serially in-process, returning
# series-shaped dictionaries.  The ``*_rows`` adapters below re-express
# each of them as a flat list of row dictionaries with a stable key set,
# which is the one shape the whole pipeline speaks: ``run_paper`` returns
# rows for every figure, the results store persists rows, and ``report``
# renders rows.  The raw series functions stay available unchanged.


def figure3c_rows(**kwargs: Any) -> List[Row]:
    """Figure 3(c) as tidy rows: ``protocol``, ``time``, ``attempts``.

    Accepts exactly the keyword arguments of :func:`figure3c`.
    """
    rows: List[Row] = []
    for label, points in figure3c(**kwargs).items():
        rows.extend(
            {"protocol": label, "time": time, "attempts": attempts}
            for time, attempts in points
        )
    return rows


def figure5_rows(**kwargs: Any) -> List[Row]:
    """Figure 5 as tidy rows: ``variant``, ``series``, ``time``, ``rate_pps``.

    ``variant`` is ``with_backoff``/``without_backoff`` and ``series``
    one of the four per-flow reception-rate series.  Accepts exactly the
    keyword arguments of :func:`figure5`.
    """
    rows: List[Row] = []
    for variant, series_map in figure5(**kwargs).items():
        for series, points in series_map.items():
            rows.extend(
                {"variant": variant, "series": series, "time": time, "rate_pps": rate}
                for time, rate in points
            )
    return rows


def figure7_rows(**kwargs: Any) -> List[Row]:
    """Figure 7 rows — :func:`figure7` already returns tidy rows."""
    return figure7(**kwargs)


def figure8_rows(**kwargs: Any) -> List[Row]:
    """Figure 8 as tidy rows: ``series``, ``time``, ``value``.

    The reception-rate and monitor series keep their names; the control
    limits become the ``flow1_lcl``/``flow1_ucl`` series, and flow 2's
    activity interval is one ``flow2_interval`` row whose ``time`` is
    the start and ``value`` the end.  Accepts exactly the keyword
    arguments of :func:`figure8`.
    """
    output = figure8(**kwargs)
    rows: List[Row] = []
    for series in ("flow1_rate", "flow2_rate", "flow1_reported_rate", "flow1_monitor_mean"):
        points = cast(List[Tuple[float, float]], output[series])
        rows.extend({"series": series, "time": time, "value": value} for time, value in points)
    for time, lcl, ucl in cast(List[Tuple[float, float, float]], output["flow1_control_limits"]):
        rows.append({"series": "flow1_lcl", "time": time, "value": lcl})
        rows.append({"series": "flow1_ucl", "time": time, "value": ucl})
    start, end = cast(Tuple[float, float], output["flow2_interval"])
    rows.append({"series": "flow2_interval", "time": start, "value": end})
    return rows


# ---------------------------------------------------------------------------
# Ablations called out in DESIGN.md
# ---------------------------------------------------------------------------

def ablation_cache_policy(
    num_nodes: int = 7,
    cache_size: int = 10,
    transfer_bytes: float = 200_000.0,
    duration: float = 1200.0,
    seeds: Sequence[int] = (1, 2),
) -> List[Row]:
    """LRU vs. FIFO cache eviction under a deliberately small cache."""
    rows: List[Row] = []
    for policy in (CachePolicy.LRU, CachePolicy.FIFO):
        rtx, recoveries = [], []
        for seed in seeds:
            result = linear_scenario(
                num_nodes,
                protocol="jtp",
                jtp_config=JTPConfig(cache_size=cache_size, cache_policy=policy),
                transfer_bytes=transfer_bytes,
                num_flows=1,
                duration=duration,
                seed=seed,
                link_quality=LOSSY_LINK_QUALITY,
            )
            rtx.append(result.metrics.source_retransmissions)
            recoveries.append(result.metrics.cache_recoveries)
        rows.append({
            "policy": policy.value,
            "source_rtx": statistics.fmean(rtx),
            "cache_recoveries": statistics.fmean(recoveries),
        })
    return rows


def ablation_mac_type(
    num_nodes: int = 6,
    transfer_bytes: float = 200_000.0,
    duration: float = 1200.0,
    seeds: Sequence[int] = (1,),
) -> List[Row]:
    """TDMA vs. CSMA/CA MAC under JTP (footnote 3 of the paper)."""
    rows: List[Row] = []
    from repro.sim.network import Network
    from repro.transport.registry import make_protocol as _mk

    for mac_type in ("tdma", "csma"):
        energy, goodput = [], []
        for seed in seeds:
            network = Network.linear(num_nodes, seed=seed, link_quality=PAPER_LINK_QUALITY, mac_type=mac_type)
            protocol = _mk("jtp")
            protocol.install(network)
            flows = [protocol.create_flow(network, 0, num_nodes - 1, transfer_bytes, start_time=5.0 * i)
                     for i in range(2)]
            network.run(duration)
            from repro.experiments.metrics import collect_metrics
            metrics = collect_metrics(network, flows, duration, f"jtp/{mac_type}")
            energy.append(metrics.energy_per_bit_microjoules)
            goodput.append(metrics.goodput_kbps)
        rows.append({
            "mac": mac_type,
            "energy_per_bit_uJ": statistics.fmean(energy),
            "goodput_kbps": statistics.fmean(goodput),
        })
    return rows
