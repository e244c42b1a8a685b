"""Router pipeline delay: timing, credits and safety."""

import pytest

from repro.routing.dimension_order import dimension_order_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import pairs_traffic, uniform_traffic
from repro.topology.mesh import mesh


@pytest.fixture(scope="module")
def net():
    return mesh((3, 3), nodes_per_router=1)


@pytest.fixture(scope="module")
def tables(net):
    return dimension_order_tables(net)


def test_delay_adds_per_fabric_hop(net, tables):
    def latency(delay):
        sim = make_sim(
            net,
            tables,
            pairs_traffic([("n0", "n8")], 4),
            SimConfig(router_delay=delay, buffer_depth=32),
        )
        return sim.run(500, drain=True).latencies[0]

    base = latency(0)
    # the n0 -> n8 route crosses 4 fabric links (4 router-to-router hops)
    assert latency(2) == base + 2 * 4
    assert latency(5) == base + 5 * 4


def test_shallow_buffers_add_credit_bubbles(net, tables):
    """With buffer_depth <= router_delay the credit loop stalls the
    stream -- latency exceeds the deep-buffer ideal (real hardware)."""

    def latency(depth):
        sim = make_sim(
            net,
            tables,
            pairs_traffic([("n0", "n8")], 12),
            SimConfig(router_delay=4, buffer_depth=depth),
        )
        return sim.run(2000, drain=True).latencies[0]

    assert latency(2) > latency(64)


def test_throughput_conserved_under_delay(net, tables):
    traffic = uniform_traffic(net.end_node_ids(), 0.05, 4, seed=2)
    sim = make_sim(
        net, tables, traffic, SimConfig(router_delay=3, stall_threshold=128)
    )
    stats = sim.run(400, drain=True)
    assert stats.packets_delivered == stats.packets_offered
    assert not stats.deadlocked
    assert sim.finalize().in_order_violations == []
    assert stats.peak_occupied_buffers > 0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        SimConfig(router_delay=-1)


def test_unknown_traffic_node_rejected(net, tables):
    sim = make_sim(net, tables, pairs_traffic([("n0", "ghost")], 2), SimConfig())
    with pytest.raises(ValueError, match="unknown end node"):
        sim.run(5)


def test_duplicate_packet_ids_rejected(net, tables):
    from repro.sim.traffic import merge_traffic, permutation_traffic

    # two generators with *independent* counters collide on packet ids
    bad = merge_traffic(
        permutation_traffic([("n0", "n8")], 1.0, seed=1),
        permutation_traffic([("n1", "n7")], 1.0, seed=2),
    )
    sim = make_sim(net, tables, bad, SimConfig())
    with pytest.raises(ValueError, match="duplicate packet id"):
        sim.run(5)
