"""The zero-load latency model must match the simulator exactly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.latency_model import (
    latency_table,
    zero_load_latency_cycles,
    zero_load_latency_us,
)
from repro.routing.base import compute_route
from repro.routing.dimension_order import dimension_order_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import pairs_traffic
from repro.topology.mesh import mesh


@pytest.fixture(scope="module")
def net():
    return mesh((4, 4), nodes_per_router=1)


@pytest.fixture(scope="module")
def tables(net):
    return dimension_order_tables(net)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_model_matches_simulation_exactly(src_i, dst_i, flits):
    """Zero-load: model cycles == simulated latency, for any pair/size."""
    if src_i == dst_i:
        return
    net = mesh((4, 4), nodes_per_router=1)
    tables = dimension_order_tables(net)
    src, dst = f"n{src_i}", f"n{dst_i}"
    route = compute_route(net, tables, src, dst)
    model = zero_load_latency_cycles(route, flits)
    sim = make_sim(net, tables, pairs_traffic([(src, dst)], flits), SimConfig())
    stats = sim.run(model + 50, drain=True)
    assert stats.latencies == [model]


def test_wormhole_distance_insensitivity(net, tables):
    """The wormhole signature: for long packets, near and far latencies
    differ only by the extra head hops."""
    near = compute_route(net, tables, "n0", "n1")
    far = compute_route(net, tables, "n0", "n15")
    flits = 100
    delta = zero_load_latency_cycles(far, flits) - zero_load_latency_cycles(near, flits)
    assert delta == len(far.links) - len(near.links)
    assert delta < flits / 10  # small relative to serialization


def test_microseconds_scale(net, tables):
    route = compute_route(net, tables, "n0", "n15")
    # 50 bytes at 50 MB/s = 1 us of serialization plus head propagation
    us = zero_load_latency_us(route, packet_bytes=50)
    assert us == pytest.approx((len(route.links) + 50 - 2) / 50.0)


def test_latency_table(net, tables):
    est = latency_table(net, tables, packet_flits=8)
    assert est.min_cycles == 3 + 8 - 2  # adjacent routers: 3 links
    assert est.max_cycles == 8 + 8 - 2  # corner to corner: 8 links
    assert est.min_cycles <= est.mean_cycles <= est.max_cycles
    lo, hi, mean = est.us()
    assert lo < mean < hi


def test_bad_flits():
    route = compute_route(
        mesh((2, 2), nodes_per_router=1),
        dimension_order_tables(mesh((2, 2), nodes_per_router=1)),
        "n0",
        "n1",
    )
    with pytest.raises(ValueError):
        zero_load_latency_cycles(route, 0)


@given(st.integers(0, 15), st.integers(1, 8), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_model_matches_simulation_with_router_delay(dst_i, flits, delay):
    """The pipeline-delay extension of the model stays exact."""
    if dst_i == 0:
        return
    net = mesh((4, 4), nodes_per_router=1)
    tables = dimension_order_tables(net)
    route = compute_route(net, tables, "n0", f"n{dst_i}")
    model = zero_load_latency_cycles(route, flits, router_delay=delay)
    sim = make_sim(
        net,
        tables,
        pairs_traffic([("n0", f"n{dst_i}")], flits),
        SimConfig(router_delay=delay, buffer_depth=64),
    )
    stats = sim.run(model + 100, drain=True)
    assert stats.latencies == [model]
