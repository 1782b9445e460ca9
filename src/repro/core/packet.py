"""JTP packet formats (Figure 2).

Data packets carry the three novel JTP header fields — **available
rate**, **loss tolerance** and **energy budget** — plus the running
**energy used** counter and a deadline field reserved for real-time
traffic.  Feedback packets additionally carry the ACK header: a
cumulative positive acknowledgment, a selective negative acknowledgment
(SNACK) list, the **locally-recovered** list that intermediate caches
fill in, the allowed sending rate, the energy budget and the sender
timeout (the receiver's feedback period T).

The in-simulator representation is a mutable :class:`Packet` object so
that iJTP's per-hop soft-state operations (Algorithms 1 and 2) can
update header fields in place, exactly as Dynamic-Packet-State style
protocols do.  Nothing is serialised: the MAC charges airtime and
energy for :attr:`Packet.size_bits`, header plus payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.util.units import bits_from_bytes


class PacketType(Enum):
    """JTP packet types."""

    DATA = 1
    ACK = 2


@dataclass
class AckInfo:
    """The optional ACK header of Figure 2(b).

    ``cumulative_ack`` is the positive cumulative acknowledgment,
    ``snack`` the selective *negative* acknowledgment (sequence numbers
    the receiver is still missing and still wants), ``highest_received``
    the largest sequence number seen so far (so the sender can treat
    un-SNACKed packets below it as implicitly delivered), and
    ``locally_recovered`` the SNACK entries already served by an
    in-network cache on the ACK's way upstream.
    """

    cumulative_ack: int = -1
    highest_received: int = -1
    snack: Tuple[int, ...] = ()
    locally_recovered: Tuple[int, ...] = ()
    rate_pps: float = 0.0
    energy_budget: float = 0.0
    sender_timeout: float = 0.0
    echo_timestamp: float = 0.0
    feedback_seq: int = 0

    def outstanding_snack(self) -> Tuple[int, ...]:
        """SNACK entries not already satisfied by an in-network cache."""
        recovered = set(self.locally_recovered)
        return tuple(seq for seq in self.snack if seq not in recovered)


@dataclass
class Packet:
    """A JTP packet travelling through the simulated network.

    ``payload_bytes`` is application data only; ``header_bytes`` covers
    the JTP header and, for ACKs, the ACK header as well.  The MAC uses
    :attr:`size_bits` for airtime and energy accounting.
    """

    flow_id: int
    seq: int
    packet_type: PacketType
    src: int
    dst: int
    payload_bytes: float = 0.0
    header_bytes: float = 28.0

    # JTP header fields (Figure 2a)
    loss_tolerance: float = 0.0
    energy_budget: float = float("inf")
    energy_used: float = 0.0
    available_rate_pps: float = float("inf")
    deadline: float = float("inf")
    created_at: float = 0.0
    timestamp: float = 0.0

    # Optional ACK header (Figure 2b)
    ack: Optional[AckInfo] = None

    # Soft state manipulated hop-by-hop (not carried on the wire)
    max_link_attempts: Optional[int] = None
    is_retransmission: bool = False
    recovered_by: Optional[int] = None
    hops_travelled: int = 0

    @property
    def size_bytes(self) -> float:
        """Total on-air size of the packet."""
        return self.payload_bytes + self.header_bytes

    @property
    def size_bits(self) -> float:
        """Total on-air size in bits (what the MAC charges energy for).

        Evaluates `bits_from_bytes(size_bytes)` without the extra
        property hop — the MAC reads this on every transmission attempt.
        """
        return bits_from_bytes(self.payload_bytes + self.header_bytes)

    def __post_init__(self) -> None:
        # Plain attributes rather than properties: the MAC, iJTP and the
        # caches branch on these for every packet event, and
        # ``packet_type`` never changes after construction.
        self.is_data = self.packet_type is PacketType.DATA
        self.is_ack = self.packet_type is PacketType.ACK

    def cache_key(self) -> Tuple[int, int]:
        """Key under which iJTP caches this packet."""
        return (self.flow_id, self.seq)

    def clone_for_retransmission(self, recovered_by: Optional[int] = None) -> "Packet":
        """A fresh copy used for cache or source retransmissions.

        Per-hop soft state (attempt bound) is reset and the energy-used
        counter starts from zero: a retransmission is a new delivery
        attempt with its own energy budget.  The energy already spent on
        the original copy is not forgotten — it was charged to the node
        energy meters when it was spent — but carrying it forward would
        make an unlucky packet permanently over budget and turn every
        retransmission of it into an immediate drop.

        The loss tolerance is reset to zero: a packet is only ever
        retransmitted because the destination explicitly asked for it in
        a SNACK, i.e. the application still needs it, so half-hearted
        redelivery attempts would just trigger another round of recovery.
        """
        return Packet(
            flow_id=self.flow_id,
            seq=self.seq,
            packet_type=self.packet_type,
            src=self.src,
            dst=self.dst,
            payload_bytes=self.payload_bytes,
            header_bytes=self.header_bytes,
            loss_tolerance=0.0,
            energy_budget=self.energy_budget,
            energy_used=0.0,
            available_rate_pps=float("inf"),
            deadline=self.deadline,
            created_at=self.created_at,
            timestamp=self.timestamp,
            ack=None,
            is_retransmission=True,
            recovered_by=recovered_by,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.packet_type.name
        return f"<Packet {kind} flow={self.flow_id} seq={self.seq} {self.src}->{self.dst}>"

