"""Network assembly.

:class:`Network` wires the whole substrate together — simulator,
channel, MAC instances, routing, statistics and (optionally) mobility —
and exposes the handful of operations an experiment needs: build a
topology, install a transport protocol, run for a while, read the
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, List, Optional, Sequence

from repro.routing.link_state import LinkStateRouting
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.sim.random import RandomStreams
from repro.sim.stats import NetworkStats
from repro.sim.topology import (
    Position,
    field_size_for,
    linear_positions,
    random_positions,
)
from repro.sim.trace import TraceRecorder
from repro.util.validation import require_positive

if TYPE_CHECKING:  # imported for annotations only, to avoid a sim <-> mac import cycle
    from repro.mac.tdma import MacConfig, TdmaMac
    from repro.sim.faults import FaultInjector, FaultPlan


def _default_mac_config() -> "MacConfig":
    from repro.mac.tdma import MacConfig

    return MacConfig()


@dataclass
class NetworkConfig:
    """Everything needed to build a network substrate."""

    positions: Sequence[Position] = field(default_factory=list)
    radio_range: float = 50.0
    link_quality: LinkQuality = field(default_factory=LinkQuality)
    mac_config: "MacConfig" = field(default_factory=_default_mac_config)
    mac_type: str = "tdma"
    routing_update_period: float = 10.0
    seed: int = 0
    #: Trace event kinds to record (``repro.sim.trace``); empty records none.
    trace_kinds: AbstractSet[str] = frozenset()

    def __post_init__(self) -> None:
        require_positive(self.radio_range, "radio_range")
        if self.mac_type not in ("tdma", "csma"):
            raise ValueError(f"mac_type must be 'tdma' or 'csma', got {self.mac_type!r}")


class Network:
    """A fully wired simulated wireless network."""

    def __init__(self, config: NetworkConfig):
        if not config.positions:
            raise ValueError("NetworkConfig.positions must not be empty")
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.stats = NetworkStats()
        self.trace = TraceRecorder(config.trace_kinds)
        self.channel = Channel(
            config.positions,
            radio_range=config.radio_range,
            rng=self.streams.stream("channel"),
            default_quality=config.link_quality,
        )
        self.routing = LinkStateRouting(
            self.channel,
            self.sim,
            update_period=config.routing_update_period,
        )
        if config.mac_type == "csma":
            from repro.mac.csma import SharedMedium

            self._medium = SharedMedium()
        else:
            self._medium = None
        self.nodes: List[Node] = [self._build_node(i) for i in range(len(config.positions))]
        peers = [node.mac for node in self.nodes]
        for mac in peers:
            mac.peers = peers
        self.mobility = None
        self.fault_injector: Optional["FaultInjector"] = None
        self._started = False
        self._next_flow_id = 0

    # -- construction helpers -----------------------------------------------------------

    def _build_node(self, node_id: int) -> Node:
        from repro.mac.csma import CsmaMac
        from repro.mac.tdma import TdmaMac

        if self.config.mac_type == "csma":
            assert self._medium is not None
            mac: "TdmaMac" = CsmaMac(
                node_id,
                self.sim,
                self.channel,
                self.stats,
                medium=self._medium,
                config=self.config.mac_config,
                trace=self.trace,
                rng=self.streams.stream(f"csma-{node_id}"),
            )
        else:
            mac = TdmaMac(
                node_id,
                self.sim,
                self.channel,
                self.stats,
                config=self.config.mac_config,
                trace=self.trace,
            )
        return Node(node_id, self.sim, mac, self.routing, self.stats, trace=self.trace)

    @classmethod
    def linear(
        cls,
        num_nodes: int,
        spacing: float = 40.0,
        radio_range: float = 50.0,
        link_quality: Optional[LinkQuality] = None,
        mac_config: Optional["MacConfig"] = None,
        seed: int = 0,
        trace_kinds: AbstractSet[str] = frozenset(),
        mac_type: str = "tdma",
    ) -> "Network":
        """A chain of ``num_nodes`` nodes, each hearing only its neighbours."""
        config = NetworkConfig(
            positions=linear_positions(num_nodes, spacing),
            radio_range=radio_range,
            link_quality=link_quality or LinkQuality(),
            mac_config=mac_config or _default_mac_config(),
            seed=seed,
            trace_kinds=trace_kinds,
            mac_type=mac_type,
        )
        return cls(config)

    @classmethod
    def random(
        cls,
        num_nodes: int,
        radio_range: float = 50.0,
        field_size: Optional[float] = None,
        link_quality: Optional[LinkQuality] = None,
        mac_config: Optional["MacConfig"] = None,
        seed: int = 0,
        trace_kinds: AbstractSet[str] = frozenset(),
        mac_type: str = "tdma",
    ) -> "Network":
        """A connected random topology in a square field."""
        streams = RandomStreams(seed)
        size = field_size or field_size_for(num_nodes, radio_range)
        positions = random_positions(num_nodes, size, streams.stream("placement"), radio_range=radio_range)
        config = NetworkConfig(
            positions=positions,
            radio_range=radio_range,
            link_quality=link_quality or LinkQuality(),
            mac_config=mac_config or _default_mac_config(),
            seed=seed,
            trace_kinds=trace_kinds,
            mac_type=mac_type,
        )
        network = cls(config)
        network.field_size = size  # type: ignore[attr-defined]
        return network

    # -- lifecycle ------------------------------------------------------------------------

    def attach_mobility(self, mobility) -> None:
        """Attach a mobility model (must happen before :meth:`start`)."""
        if self._started:
            raise RuntimeError("cannot attach mobility after the network has started")
        self.mobility = mobility

    def install_fault_plan(self, plan: "FaultPlan") -> "FaultInjector":
        """Install a fault-injection plan (must happen before :meth:`start`).

        Materialises the plan's stochastic processes from the dedicated
        ``"faults"`` random stream and schedules every fault event on
        the simulator heap; the injector is kept on
        :attr:`fault_injector` for metrics collection.
        """
        from repro.sim.faults import FaultInjector

        if self._started:
            raise RuntimeError("cannot install a fault plan after the network has started")
        if self.fault_injector is not None:
            raise RuntimeError("a fault plan is already installed")
        injector = FaultInjector(self, plan)
        injector.install()
        self.fault_injector = injector
        return injector

    def start(self) -> None:
        """Start routing (and mobility, if attached); idempotent."""
        if self._started:
            return
        self.routing.start()
        if self.mobility is not None:
            self.mobility.start(self.sim)
        self._started = True

    def run(self, duration: float) -> None:
        """Run the simulation for ``duration`` more seconds."""
        require_positive(duration, "duration")
        self.start()
        self.sim.run(until=self.sim.now + duration)

    # -- conveniences -----------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def allocate_flow_id(self) -> int:
        """Hand out network-unique flow identifiers."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    def total_queue_drops(self) -> int:
        """Sum of MAC queue drops across all nodes (Figure 7b metric)."""
        return sum(node.mac.queue_drops for node in self.nodes)
