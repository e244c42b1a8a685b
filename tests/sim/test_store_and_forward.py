"""Store-and-forward switching: the baseline wormhole replaced (§2.0)."""

import pytest

from repro.metrics.latency_model import zero_load_latency_cycles
from repro.routing.base import compute_route
from repro.routing.dimension_order import dimension_order_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import pairs_traffic, uniform_traffic
from repro.topology.mesh import mesh


@pytest.fixture(scope="module")
def net():
    return mesh((4, 4), nodes_per_router=1)


@pytest.fixture(scope="module")
def tables(net):
    return dimension_order_tables(net)


def _latency(net, tables, switching, src, dst, size, depth=32):
    sim = make_sim(
        net,
        tables,
        pairs_traffic([(src, dst)], size),
        SimConfig(buffer_depth=depth, switching=switching),
    )
    stats = sim.run(2000, drain=True)
    assert stats.packets_delivered == 1
    return stats.latencies[0]


def test_saf_latency_multiplies_by_hops(net, tables):
    """SAF pays the serialization at *every* hop; wormhole pays it once.
    This is why §2.0 networks use wormhole routing."""
    size = 16
    route = compute_route(net, tables, "n0", "n15")
    hops = len(route.links)
    wormhole = _latency(net, tables, "wormhole", "n0", "n15", size)
    saf = _latency(net, tables, "store_and_forward", "n0", "n15", size)
    assert wormhole == zero_load_latency_cycles(route, size)
    # SAF: roughly size cycles per link
    assert saf >= hops * size - hops
    assert saf > 2.5 * wormhole


def test_saf_and_wormhole_agree_for_single_flit(net, tables):
    """With one-flit packets the two disciplines coincide."""
    w = _latency(net, tables, "wormhole", "n0", "n15", 1)
    s = _latency(net, tables, "store_and_forward", "n0", "n15", 1)
    assert w == s


def test_saf_requires_big_enough_buffers(net, tables):
    sim = make_sim(
        net,
        tables,
        pairs_traffic([("n0", "n15")], 8),
        SimConfig(buffer_depth=4, switching="store_and_forward"),
    )
    with pytest.raises(ValueError, match="buffer_depth"):
        sim.run(100)


def test_saf_delivers_under_load(net, tables):
    traffic = uniform_traffic(net.end_node_ids(), rate=0.03, packet_size=4, seed=9)
    sim = make_sim(
        net,
        tables,
        traffic,
        SimConfig(buffer_depth=8, switching="store_and_forward", stall_threshold=128),
    )
    stats = sim.run(400, drain=True)
    assert not stats.deadlocked
    assert stats.packets_delivered == stats.packets_offered
    assert sim.finalize().in_order_violations == []


def test_bad_switching_mode_rejected():
    with pytest.raises(ValueError, match="switching"):
        SimConfig(switching="cut-through")


def test_saf_never_holds_two_fabric_links(net, tables):
    """The defining property: a SAF packet occupies one buffer at a time
    (plus the link it is crossing), never a multi-router worm."""
    sim = make_sim(
        net,
        tables,
        pairs_traffic([("n0", "n15")], 8),
        SimConfig(buffer_depth=16, switching="store_and_forward"),
    )
    max_spread = 0
    for _ in range(600):
        sim.step()
        holding = {
            key[0]
            for key, buf in sim.buffers.items()
            if any(f.packet_id == 0 for f in buf.fifo)
        }
        max_spread = max(max_spread, len(holding))
        if sim.stats.packets_delivered:
            break
    assert sim.stats.packets_delivered == 1
    assert max_spread <= 2  # mid-transfer a packet spans at most 2 buffers
