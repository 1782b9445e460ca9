"""Radio energy model.

The paper's energy monitor sits at the link layer and "computes the
energy spent for the transmission of each transport-layer packet based
on the transmission power, the radio's datarate and the packet's
length".  That is exactly what this model does, for both the
transmitting and the receiving radio.  Idle/sleep energy is not
charged: the JAVeLEN MAC turns radios off when not in use and the
paper explicitly excludes network-maintenance energy from the metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import transmission_time
from repro.util.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class RadioEnergyModel:
    """Energy accounting for one radio type.

    The defaults model a low-power JAVeLEN-class radio: a 250 kbit/s
    data rate with a 120 mW transmit draw and a 60 mW receive draw, plus
    a fixed per-transmission overhead (wake-up, preamble, turnaround) of
    15 ms.  The overhead term matters for the reproduction: the paper
    observes that acknowledgments "consume roughly as much energy as a
    data transmission" on this class of radio because the fixed
    per-packet cost dominates, which is precisely why JTP works so hard
    to minimise the ACK stream.  The absolute power values only scale
    the energy axis of every figure; the protocol comparisons depend on
    transmission *counts* and per-packet costs.
    """

    datarate_bps: float = 250_000.0
    tx_power_watts: float = 0.12
    rx_power_watts: float = 0.06
    per_packet_overhead_s: float = 0.015

    def __post_init__(self) -> None:
        require_positive(self.datarate_bps, "datarate_bps")
        require_non_negative(self.tx_power_watts, "tx_power_watts")
        require_non_negative(self.rx_power_watts, "rx_power_watts")
        require_non_negative(self.per_packet_overhead_s, "per_packet_overhead_s")

    def airtime(self, nbits: float) -> float:
        """Seconds of radio activity to send ``nbits`` (overhead included)."""
        return self.per_packet_overhead_s + transmission_time(nbits, self.datarate_bps)

    def transmit_energy(self, nbits: float) -> float:
        """Joules drawn by the transmitter to send ``nbits`` once."""
        return self.tx_power_watts * self.airtime(nbits)

    def receive_energy(self, nbits: float) -> float:
        """Joules drawn by the receiver to successfully receive ``nbits``."""
        return self.rx_power_watts * self.airtime(nbits)

    def round_trip_energy(self, nbits: float) -> float:
        """Energy of one successful hop: one transmission plus one reception."""
        return self.transmit_energy(nbits) + self.receive_energy(nbits)
