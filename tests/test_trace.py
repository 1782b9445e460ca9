"""Trace recorder behaviour."""

import pytest

from repro.sim.trace import TraceRecorder


def test_disabled_recorder_records_nothing():
    trace = TraceRecorder()
    trace.record("x", 1.0, a=1)
    assert len(trace.events()) == 0
    assert trace.kinds == frozenset()


def test_enabled_recorder_records():
    trace = TraceRecorder({"x", "y"})
    trace.record("x", 1.0, a=1)
    trace.record("y", 2.0, a=2)
    assert len(trace.events()) == 2


def test_empty_enabled_recorder_is_still_usable_in_boolean_context():
    """Regression test: an empty recorder must not be treated as 'missing'."""
    trace = TraceRecorder({"x"})
    chosen = trace if trace is not None else TraceRecorder()
    chosen.record("x", 0.0)
    assert len(trace.events()) == 1


def test_kind_filter():
    trace = TraceRecorder({"a", "b"})
    trace.record("a", 1.0, node=1)
    trace.record("b", 2.0, node=1)
    trace.record("a", 3.0, node=2)
    assert len(trace.events("a")) == 2
    assert len(trace.events("a", node=2)) == 1


def test_field_filter_none_matches_only_explicit_none():
    """Regression test: a ``field=None`` filter used to match every event
    *lacking* the field (``e.get(key) == None``); absent fields must
    never match."""
    trace = TraceRecorder({"k"})
    trace.record("k", 0.0, node=None)
    trace.record("k", 1.0)  # no 'node' field at all
    trace.record("k", 2.0, node=3)
    assert [e.time for e in trace.events("k", node=None)] == [0.0]
    assert [e.time for e in trace.events("k", node=3)] == [2.0]


def test_field_filter_excludes_events_lacking_the_field():
    trace = TraceRecorder({"k"})
    trace.record("k", 0.0, other=1)
    assert trace.events("k", node=None) == []
    assert trace.events("k", node=1) == []


def test_kinds_whitelist():
    trace = TraceRecorder({"keep"})
    trace.record("keep", 1.0)
    trace.record("discard", 2.0)
    assert [e.kind for e in trace.events()] == ["keep"]


def test_a_single_kind_string_is_rejected():
    # frozenset("fault") would silently trace the kinds "f", "a", "u", ...
    with pytest.raises(TypeError):
        TraceRecorder("fault")


def test_event_get_and_getitem():
    trace = TraceRecorder({"k"})
    trace.record("k", 0.0, field=5)
    event = trace.events("k")[0]
    assert event["field"] == 5
    with pytest.raises(KeyError):
        event["missing"]


#: Every kind a JTP run over the TDMA MAC can emit.
JTP_KINDS = frozenset({
    "mac_attempt", "mac_drop", "routing_drop", "orphan_packet", "fault",
    "energy_budget_drop", "ijtp_attempts", "cache_recovery",
    "jtp_receive", "jtp_feedback", "jtp_send", "jtp_ack", "jtp_backoff",
    "jtp_feedback_timeout", "jtp_complete",
})


def _lossy_jtp_run(trace_kinds):
    from repro.experiments.scenarios import LOSSY_LINK_QUALITY, linear_scenario

    return linear_scenario(5, protocol="jtp", transfer_bytes=20_000, num_flows=2, duration=300.0,
                           seed=3, link_quality=LOSSY_LINK_QUALITY, trace_kinds=trace_kinds)


def test_untraced_run_never_calls_record(monkeypatch):
    calls = []
    real_record = TraceRecorder.record

    def spy(self, kind, time, **fields):
        calls.append(kind)
        real_record(self, kind, time, **fields)

    monkeypatch.setattr(TraceRecorder, "record", spy)
    untraced = _lossy_jtp_run(frozenset())
    assert calls == []

    traced = _lossy_jtp_run(JTP_KINDS)
    # The spy sees the sites the untraced run skipped, including the
    # formerly unguarded per-packet and cache-recovery ones ...
    assert {"jtp_receive", "jtp_send", "cache_recovery", "mac_attempt", "ijtp_attempts"} <= set(calls)
    assert len(traced.network.trace.events()) == len(calls)
    # ... and tracing them changes nothing the run computes.
    assert traced.metrics == untraced.metrics
    assert traced.network.sim.events_processed == untraced.network.sim.events_processed


def test_figure3c_scenario_traces_only_attempt_bounds():
    from repro.experiments.scenarios import attempt_bound_scenario

    result = attempt_bound_scenario(4, loss_tolerance=0.1, transfer_bytes=20_000, duration=200.0, seed=1)
    trace = result.network.trace
    assert trace.kinds == {"ijtp_attempts"}
    assert {event.kind for event in trace.events()} == {"ijtp_attempts"}
    assert result.rows


def test_figure8_scenario_traces_only_receptions():
    from repro.experiments.scenarios import rate_adaptation_scenario

    result = rate_adaptation_scenario(4, duration=200.0, flow2_start=60.0, flow2_duration=60.0, window=30.0, seed=1)
    trace = result.network.trace
    assert trace.kinds == {"jtp_receive"}
    assert {event.kind for event in trace.events()} == {"jtp_receive"}
    assert any(row["series"] == "flow1_monitor_mean" for row in result.rows)


def test_figure8_run_traces_only_flow1():
    from repro.experiments.scenarios import rate_adaptation_scenario

    result = rate_adaptation_scenario(4, duration=200.0, flow2_start=60.0, flow2_duration=60.0, window=30.0, seed=1)
    flow1, flow2 = result.flows
    # Flow 2 ran and delivered data, but its receiver recorded nothing:
    # the figure reads only flow 1's monitor.
    assert flow2.stats.data_packets_delivered > 0
    events = result.network.trace.events()
    assert events
    assert {event["flow"] for event in events} == {flow1.flow_id}
