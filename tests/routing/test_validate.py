"""Unit tests for routing validation."""

import pytest

from repro.network.builder import NetworkBuilder
from repro.routing.base import RoutingTable
from repro.routing.shortest_path import shortest_path_tables
from repro.routing.validate import sample_pairs, validate_routing
from repro.topology.ring import ring


def test_valid_routing_reports_ok():
    net = ring(4, nodes_per_router=1)
    report = validate_routing(net, shortest_path_tables(net))
    assert report.ok
    assert report.pairs_checked == 4 * 3
    assert report.max_router_hops == 3  # opposite side of a 4-ring


def test_missing_entries_reported():
    net = ring(4, nodes_per_router=1)
    report = validate_routing(net, RoutingTable(net))
    assert not report.ok
    assert len(report.failures) == 12


def test_hop_bound_enforced():
    net = ring(6, nodes_per_router=1)
    report = validate_routing(net, shortest_path_tables(net), max_router_hops=2)
    assert not report.ok
    assert any("exceeds bound" in f for f in report.failures)


def test_pairs_subset():
    net = ring(4, nodes_per_router=1)
    report = validate_routing(
        net, shortest_path_tables(net), pairs=[("n0", "n2")]
    )
    assert report.pairs_checked == 1
    assert report.ok


def test_revisit_detected():
    b = NetworkBuilder("diamond")
    for r in ("A", "B", "C"):
        b.router(r)
    b.cable("A", "B")
    b.cable("B", "C")
    b.cable("A", "C")
    b.end_node("n0")
    b.cable("n0", "A")
    b.end_node("n1")
    b.cable("n1", "C")
    net = b.net
    t = RoutingTable(net)
    # n0 -> n1 detours A -> B -> A?? cannot revisit via table (same entry)...
    # instead: A -> B -> C with C fine, but B -> C goes through A first is
    # impossible with dest-only tables; a genuine revisit needs a loop,
    # which compute_route flags as a loop. So check the simple-path flag
    # via a route that bounces: A->B, B->A would loop forever; ensure the
    # validator reports it as a failure rather than hanging.
    t.set("A", "n1", net.links_between("A", "B")[0].src_port)
    t.set("B", "n1", net.links_between("B", "A")[0].src_port)
    t.set("C", "n1", net.links_between("C", "n1")[0].src_port)
    report = validate_routing(net, t, pairs=[("n0", "n1")])
    assert not report.ok


def test_sample_pairs_deterministic_and_valid():
    net = ring(6, nodes_per_router=2)
    pairs = sample_pairs(net, 10, seed=42)
    assert pairs == sample_pairs(net, 10, seed=42)
    assert pairs != sample_pairs(net, 10, seed=43)
    assert len(pairs) == 10
    assert len(set(pairs)) == 10
    ends = set(net.end_node_ids())
    for src, dst in pairs:
        assert src in ends and dst in ends and src != dst


def test_sample_pairs_covers_every_index():
    # the arithmetic pair indexing must enumerate exactly the ordered pairs
    net = ring(3, nodes_per_router=1)
    pairs = sample_pairs(net, 6, seed=0)
    assert sorted(pairs) == sorted(
        (s, d) for s in net.end_node_ids() for d in net.end_node_ids() if s != d
    )


def test_sample_pairs_bounds():
    net = ring(3, nodes_per_router=1)
    # oversized counts clamp to the full population
    assert len(sample_pairs(net, 100)) == 6
    with pytest.raises(ValueError):
        sample_pairs(net, 0)


def test_sampled_validation_reproducible():
    net = ring(8, nodes_per_router=2)
    tables = shortest_path_tables(net)
    a = validate_routing(net, tables, sample=12, seed=5)
    b = validate_routing(net, tables, sample=12, seed=5)
    assert a.ok and b.ok
    assert a.pairs_checked == b.pairs_checked == 12
    assert a.max_router_hops == b.max_router_hops


def test_sampled_validation_catches_missing_entries():
    net = ring(4, nodes_per_router=1)
    report = validate_routing(net, RoutingTable(net), sample=5, seed=1)
    assert not report.ok
    assert len(report.failures) == 5


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("count", [1, 9, 55, 56, 500])
def test_sampled_indices_walk_the_sampled_string_pairs(count, broken):
    # the sample drawn as end indices must be the pairs sample_pairs lists,
    # with the same report: counts, hops, failure texts and their order
    net = ring(8, nodes_per_router=1)
    tables = shortest_path_tables(net)
    if broken:
        tables.ports[2] = -1  # pairs routed through router 2 fail
    by_index = validate_routing(net, tables, sample=count, seed=3)
    by_id = validate_routing(net, tables, pairs=sample_pairs(net, count, seed=3))
    assert by_index == by_id and by_index.ok is not broken
    assert by_index.walk.ok.tolist() == by_id.walk.ok.tolist()
    assert by_index.walk.router_hops.tolist() == by_id.walk.router_hops.tolist()
    assert by_index.walk.channels.tolist() == by_id.walk.channels.tolist()
    assert by_index.walk.dependencies.tolist() == by_id.walk.dependencies.tolist()
