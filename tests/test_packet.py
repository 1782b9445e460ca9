"""Packet model."""

import ast
from pathlib import Path

from repro.core.packet import AckInfo, Packet, PacketType
from repro.util.units import bits_from_bytes

SRC = Path(__file__).resolve().parents[1] / "src"

#: The fields ``Packet.size_bits`` is computed from, once, at construction.
SIZE_FIELDS = {"payload_bytes", "header_bytes"}


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

    def test_size_bits_is_the_size_of_header_plus_payload(self):
        data = make_data_packet(payload_bytes=800.0, header_bytes=28.0)
        ack = Packet(flow_id=1, seq=0, packet_type=PacketType.ACK, src=4, dst=0,
                     header_bytes=228.0, ack=AckInfo(snack=(2, 3)))
        clone = data.clone_for_retransmission(recovered_by=2)
        for packet in (data, ack, clone):
            assert packet.size_bits == bits_from_bytes(packet.payload_bytes + packet.header_bytes)
        assert clone.size_bits == data.size_bits

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



def size_field_writes(tree):
    """Line numbers of every write to a size field of an existing object.

    Assignment targets (plain, augmented, annotated, unpacked) and
    ``setattr``/``object.__setattr__`` calls with the field name as a
    literal.  Constructor keywords (``Packet(payload_bytes=...)``) and
    the dataclass's own field declarations are not writes.
    """
    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from targets(element)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            written = [target for each in node.targets for target in targets(each)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            written = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            written = list(targets(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            written = list(targets(node.optional_vars))
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if (
                name in {"setattr", "__setattr__"}
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in SIZE_FIELDS
            ):
                lines.append(node.lineno)
            continue
        else:
            continue
        lines.extend(
            target.lineno for target in written
            if isinstance(target, ast.Attribute) and target.attr in SIZE_FIELDS
        )
    return sorted(lines)


def test_no_code_writes_a_size_field_after_construction():
    """``size_bits`` is computed once in ``__post_init__``; nothing may change its inputs."""
    writes = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := size_field_writes(ast.parse(path.read_text(), filename=str(path))))
    }
    assert writes == {}


def test_size_field_scan_catches_every_write_form():
    tree = ast.parse(
        "packet.payload_bytes = 1.0\n"
        "packet.header_bytes += 2.0\n"
        "a.payload_bytes, b = 3.0, 4\n"
        "setattr(packet, 'header_bytes', 5.0)\n"
        "object.__setattr__(packet, 'payload_bytes', 6.0)\n"
        "Packet(flow_id=0, seq=0, packet_type=None, src=0, dst=1, payload_bytes=7.0)\n"
        "size = packet.payload_bytes + packet.header_bytes\n"
    )
    assert size_field_writes(tree) == [1, 2, 3, 4, 5]
