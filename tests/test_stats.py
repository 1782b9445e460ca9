"""Energy meters, flow statistics and network-wide aggregation."""

import pytest

from repro.sim.stats import EnergyMeter, FlowStats, NetworkStats


class TestEnergyMeter:
    def test_tx_rx_accounting(self):
        meter = EnergyMeter(3)
        meter.record_tx(0, 0.5)
        meter.record_tx(0, 0.25)
        meter.record_tx(1, 1.0)
        meter.rx_joules += 0.25  # the MAC charges receptions inline
        assert meter.tx_joules == pytest.approx(1.75)
        assert meter.total_joules == pytest.approx(2.0)
        assert meter.per_flow == {0: 0.75, 1: 1.0}


class TestFlowStats:
    def test_send_and_delivery_counters(self):
        flow = FlowStats(0, 0, 3, transfer_bytes=1600)
        flow.record_send(1.0, 800)
        flow.record_send(2.0, 800, retransmission=True)
        flow.record_delivery(3.0, 800)
        flow.record_delivery(4.0, 800)
        flow.record_delivery(5.0, 800, duplicate=True)
        assert flow.data_packets_sent == 2
        assert flow.source_retransmissions == 1
        assert flow.unique_bytes_delivered == 1600
        assert flow.duplicate_packets == 1
        assert flow.delivery_fraction() == pytest.approx(1.0)

    def test_goodput_over_duration(self):
        stats = NetworkStats()
        flow = stats.register_flow(FlowStats(0, 0, 1))
        flow.record_delivery(1.0, 1000)
        assert stats.aggregate_goodput_bps(8.0) == pytest.approx(1000.0)
        assert stats.aggregate_goodput_bps(0.0) == 0.0

    def test_flow_goodput_uses_completion_time(self):
        flow = FlowStats(0, 0, 1, transfer_bytes=1000)
        flow.start_time = 10.0
        flow.record_delivery(20.0, 1000)
        flow.completion_time = 20.0
        # 8000 bits over 10 active seconds, not over the whole run.
        assert flow.flow_goodput_bps(end_time=1000.0) == pytest.approx(800.0)

    def test_active_duration_without_completion(self):
        flow = FlowStats(0, 0, 1)
        flow.start_time = 5.0
        assert flow.active_duration(25.0) == pytest.approx(20.0)

    def test_reception_rate_series(self):
        flow = FlowStats(0, 0, 1)
        for t in range(10):
            flow.record_delivery(float(t), 100)
        series = flow.reception_rate_series(window=5.0, step=5.0, until=10.0)
        # Deliveries at t=0..5 fall inside the first window of length 5.
        assert series[0][1] == pytest.approx(6 / 5)
        assert series[-1][0] == pytest.approx(10.0)

    def test_reception_rate_series_validates_args(self):
        flow = FlowStats(0, 0, 1)
        with pytest.raises(ValueError):
            flow.reception_rate_series(window=0, step=1, until=10)

    def test_record_ack(self):
        flow = FlowStats(0, 0, 1)
        flow.record_ack(228)
        flow.record_ack(228)
        assert flow.acks_sent == 2
        assert flow.ack_bytes_sent == 456


class TestNetworkStats:
    def test_energy_per_delivered_bit(self):
        stats = NetworkStats()
        stats.register_node(0).record_tx(0, 1.0)
        flow = stats.register_flow(FlowStats(0, 0, 1))
        flow.record_delivery(1.0, 125)  # 1000 bits
        assert stats.energy_per_delivered_bit() == pytest.approx(1e-3)

    def test_energy_per_bit_with_no_delivery_is_infinite(self):
        stats = NetworkStats()
        stats.register_node(0).record_tx(0, 1.0)
        assert stats.energy_per_delivered_bit() == float("inf")

    def test_register_node_idempotent(self):
        stats = NetworkStats()
        assert stats.register_node(1) is stats.register_node(1)

    def test_link_attempt_counters(self):
        stats = NetworkStats()
        stats.record_link_attempt(True)
        stats.record_link_attempt(False)
        stats.record_link_attempt(True)
        assert stats.link_transmissions == 3
        assert stats.link_successes == 2

    def test_aggregate_counters(self):
        stats = NetworkStats()
        a = stats.register_flow(FlowStats(0, 0, 2))
        b = stats.register_flow(FlowStats(1, 1, 2))
        a.source_retransmissions = 3
        b.cache_recoveries = 4
        stats.record_queue_drop(2)
        stats.record_routing_drop()
        assert stats.total_source_retransmissions() == 3
        assert stats.total_cache_recoveries() == 4
        assert stats.queue_drops == 2
        assert stats.routing_drops == 1

    def test_per_node_energy(self):
        stats = NetworkStats()
        stats.register_node(0).record_tx(0, 2.0)
        stats.register_node(1).record_tx(0, 1.0)
        assert stats.per_node_energy() == {0: 2.0, 1: 1.0}

    def test_goodput_aggregation(self):
        stats = NetworkStats()
        flow = stats.register_flow(FlowStats(0, 0, 1))
        flow.start_time = 0.0
        flow.record_delivery(10.0, 1250)
        assert stats.aggregate_goodput_bps(100.0) == pytest.approx(100.0)
        assert flow.flow_goodput_bps(100.0) == pytest.approx(100.0)
