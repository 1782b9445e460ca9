"""Packet model."""

from repro.core.packet import AckInfo, Packet, PacketType


def make_data_packet(**overrides):
    defaults = {"flow_id": 1, "seq": 7, "packet_type": PacketType.DATA, "src": 0, "dst": 4,
                    "payload_bytes": 800.0, "header_bytes": 28.0, "loss_tolerance": 0.1,
                    "energy_budget": 0.05, "energy_used": 0.01, "available_rate_pps": 3.5,
                    "timestamp": 12.5}
    defaults.update(overrides)
    return Packet(**defaults)


class TestPacketModel:
    def test_sizes(self):
        packet = make_data_packet()
        assert packet.size_bytes == 828.0
        assert packet.size_bits == 828.0 * 8

    def test_type_predicates(self):
        assert make_data_packet().is_data
        ack = make_data_packet(packet_type=PacketType.ACK, ack=AckInfo())
        assert ack.is_ack and not ack.is_data

    def test_cache_key(self):
        assert make_data_packet(flow_id=3, seq=9).cache_key() == (3, 9)

    def test_clone_resets_per_hop_state(self):
        original = make_data_packet(max_link_attempts=4, energy_used=0.02)
        clone = original.clone_for_retransmission(recovered_by=2)
        assert clone.seq == original.seq
        assert clone.is_retransmission
        assert clone.recovered_by == 2
        assert clone.energy_used == 0.0
        assert clone.max_link_attempts is None
        assert clone.available_rate_pps == float("inf")
        assert clone.ack is None

    def test_default_fields_are_permissive(self):
        packet = Packet(flow_id=0, seq=0, packet_type=PacketType.DATA, src=0, dst=1)
        assert packet.energy_budget == float("inf")
        assert packet.loss_tolerance == 0.0


class TestAckInfo:
    def test_outstanding_snack_excludes_recovered(self):
        ack = AckInfo(snack=(3, 5, 9), locally_recovered=(5,))
        assert ack.outstanding_snack() == (3, 9)

    def test_outstanding_snack_empty(self):
        assert AckInfo().outstanding_snack() == ()

