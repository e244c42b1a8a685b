"""Unit tests for simulation tracing."""

import pytest

from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern
from repro.routing.base import compute_route
from repro.routing.dimension_order import dimension_order_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.trace import SimTrace
from repro.sim.traffic import pairs_traffic


def test_trace_records_packet_lifecycle():
    net = build()
    tables = dimension_order_tables(net)
    trace = SimTrace()
    sim = make_sim(net, tables, pairs_traffic([("n0", "n3")], 4), trace=trace)
    sim.run(100, drain=True)
    kinds = [e.kind for e in trace.for_packet(0)]
    assert kinds[0] == "inject"
    assert kinds[-1] == "deliver"
    assert kinds.count("traverse") == len(
        compute_route(net, tables, "n0", "n3").links
    )


def test_packet_path_matches_route():
    net = build()
    tables = dimension_order_tables(net)
    trace = SimTrace()
    sim = make_sim(net, tables, pairs_traffic([("n0", "n3")], 4), trace=trace)
    sim.run(100, drain=True)
    route = compute_route(net, tables, "n0", "n3")
    assert trace.packet_path(0) == list(route.links)


def test_deadlock_event_recorded():
    net = build()
    trace = SimTrace()
    sim = make_sim(
        net,
        clockwise_tables(net),
        pairs_traffic(figure1_pattern(net), 16),
        SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=16),
        trace=trace,
    )
    sim.run(500, drain=True)
    assert len(trace.deadlock_events()) == 1


def test_bounded_buffer_drops():
    net = build()
    tables = dimension_order_tables(net)
    trace = SimTrace(max_events=3)
    sim = make_sim(
        net, tables, pairs_traffic(figure1_pattern(net), 4), trace=trace
    )
    sim.run(100, drain=True)
    assert len(trace) == 3
    assert trace.dropped > 0
    assert "dropped" in trace.render()


def test_ring_keeps_most_recent_events():
    trace = SimTrace(max_events=3)
    for cycle in range(5):
        trace.record(cycle, "traverse", cycle, f"link{cycle}")
    # oldest two evicted; the retained window is the most recent three
    assert [e.cycle for e in trace.events()] == [2, 3, 4]
    assert trace.dropped == 2
    assert "2 older events dropped" in trace.render()


def test_render_filters_and_limits():
    net = build()
    tables = dimension_order_tables(net)
    trace = SimTrace()
    sim = make_sim(
        net, tables, pairs_traffic(figure1_pattern(net), 4), trace=trace
    )
    sim.run(100, drain=True)
    text = trace.render(packet_id=1)
    assert "p1" in text and "p0" not in text
    short = trace.render(limit=2)
    assert "more events" in short


def test_render_limit_keeps_newest_events_with_elision_at_head():
    # the tail of an overflowing trace is what debugging needs (the
    # cycles just before a deadlock), so the limit keeps the *newest*
    # events and notes the elision up front
    trace = SimTrace()
    for cycle in range(10):
        trace.record(cycle, "traverse", cycle, f"link{cycle}")
    lines = trace.render(limit=3).splitlines()
    assert "7 more events" in lines[0]
    assert len(lines) == 4
    assert "link7" in lines[1] and "link9" in lines[3]
    assert all("link0" not in line for line in lines)


def test_at_cycle():
    net = build()
    tables = dimension_order_tables(net)
    trace = SimTrace()
    sim = make_sim(net, tables, pairs_traffic([("n0", "n3")], 2), trace=trace)
    sim.run(100, drain=True)
    inject = trace.for_packet(0)[0]
    assert inject in trace.at_cycle(inject.cycle)


def test_bad_max_events():
    with pytest.raises(ValueError):
        SimTrace(max_events=0)
