"""The array route walker agrees with the per-pair ``compute_route`` walk.

Validation and channel-order certification take the array walk for exact
``RoutingTable`` objects and the per-pair walk for anything else.  A do-nothing subclass therefore *is* the oracle: the same
entries, forced down the per-pair path.  Every field of the
``RoutingReport`` and ``OrderCertification`` must match, including the
failure messages, their order, and any error a broken table raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deadlock.certifier import certify_channel_order
from repro.experiments.fig1_deadlock import build, clockwise_tables
from repro.metrics.hops import hop_stats_sampled
from repro.network.graph import NetworkError
from repro.routing.base import RoutingError, RoutingTable, all_pairs_routes
from repro.routing.cache import RoutingTableCache, cached_tables
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.validate import validate_routing
from repro.routing.walk import walk_all_pairs, walkable
from repro.topology.mesh import mesh
from repro.topology.registry import available_topologies, build_topology

#: One small instance of every registered topology (the CI smoke's map).
PARAMS = {
    "mesh": {"shape": (3, 3)},
    "torus": {"shape": (4, 4)},
    "ring": {"num_routers": 6},
    "star": {"num_leaves": 5},
    "binary_tree": {"depth": 3},
    "butterfly": {"arity": 2, "stages": 3},
    "kary_tree": {"arity": 3, "depth": 2},
    "hypercube": {"dimensions": 3},
    "ccc": {"dimensions": 3},
    "shuffle_exchange": {"dimensions": 3},
    "fully_connected": {"num_routers": 5},
    "hyperx": {"shape": (3, 3)},
    "dragonfly": {"groups": 5, "routers_per_group": 2, "global_per_router": 2},
    "fat_tree": {"height": 3, "down": 4, "up": 2},
    "thin_fractahedron": {"levels": 2},
    "fat_fractahedron": {"levels": 2},
}


class _Slow(RoutingTable):
    """Same port matrix, not an exact type: forces the per-pair walk."""


def oracle(net, tables: RoutingTable) -> RoutingTable:
    return _Slow(net, {r: tables.entries(r) for r in tables.routers()})


def outcome(fn, *args, **kwargs):
    """A call's result, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (NetworkError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same(net, tables, **kwargs):
    slow = oracle(net, tables)
    assert walkable(tables) and not walkable(slow)
    assert outcome(validate_routing, net, tables, **kwargs) == outcome(
        validate_routing, net, slow, **kwargs
    )
    kwargs.pop("max_router_hops", None)
    fast = outcome(certify_channel_order, net, tables, **kwargs)
    assert fast == outcome(certify_channel_order, net, slow, **kwargs)
    return fast


def test_params_cover_every_topology():
    assert set(PARAMS) == set(available_topologies())


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_registered_topologies(name):
    net = build_topology(name, **PARAMS[name])
    tables = cached_tables(net)
    cert = assert_same(net, tables)
    assert cert.deliverable
    assert_same(net, tables, max_router_hops=2)
    assert_same(net, tables, sample=25, seed=11)


@pytest.mark.parametrize("name", sorted(PARAMS))
@pytest.mark.parametrize("max_pairs", [40, 2000])
def test_sampled_hop_stats(name, max_pairs):
    # 40 pairs take the seeded sample on every topology; 2000 cover every
    # ordered pair of the smaller ones
    net = build_topology(name, **PARAMS[name])
    tables = cached_tables(net)
    fast = hop_stats_sampled(net, tables, max_pairs=max_pairs, seed=7)
    slow = hop_stats_sampled(net, oracle(net, tables), max_pairs=max_pairs, seed=7)
    assert fast == slow


def test_walk_fields_match_the_route_set():
    net = build_topology("fat_fractahedron", levels=1)
    tables = cached_tables(net)
    walk = walk_all_pairs(net, tables)
    routes = list(all_pairs_routes(net, tables))
    link_ids = net.indices().link_ids
    assert walk.ok.all()
    assert walk.router_hops.tolist() == [r.router_hops for r in routes]
    assert walk.link_counts.tolist() == [len(r.links) for r in routes]
    assert [link_ids[c] for c in walk.channels] == sorted({l for r in routes for l in r.links})
    deps = {(link_ids[h], link_ids[w]) for h, w in walk.dependencies.tolist()}
    assert deps == {d for r in routes for d in zip(r.links, r.links[1:])}
    assert walk.dependencies.tolist() == sorted(walk.dependencies.tolist())


def test_fig1_clockwise_ring_counterexample():
    net = build()
    cert = assert_same(net, clockwise_tables(net))
    assert cert.deliverable and not cert.deadlock_free
    assert cert.counterexample


def test_array_tables_are_never_lowered(monkeypatch):
    # certification walks the port matrix itself: it never asks the cache
    # for the engines' route-lookup pair
    net = build_topology("fat_fractahedron", levels=2)
    tables = cached_tables(net)

    def refuse(*args, **kwargs):
        raise AssertionError("certification requested the engines' route lookup")

    monkeypatch.setattr(RoutingTableCache, "get_or_lower", refuse)
    assert certify_channel_order(net, tables).certified


# -- hand-broken tables ------------------------------------------------


def _mesh():
    net = mesh((3, 3), nodes_per_router=1)
    return net, dimension_order_tables(net)


def _first_hop(net, tables, src, dst):
    router = net.attached_router(src)
    return router, tables.lookup(router, dst)


def test_missing_entry():
    net, tables = _mesh()
    ends = net.end_node_ids()
    router, _ = _first_hop(net, tables, ends[0], ends[-1])
    entries = {r: tables.entries(r) for r in tables.routers()}
    del entries[router][ends[-1]]
    broken = RoutingTable(net, entries)
    report = assert_same(net, broken)
    assert not report.deliverable and "no entry" in report.failures[0]
    errors = []
    for table in (broken, oracle(net, broken)):
        with pytest.raises(RoutingError) as exc:
            hop_stats_sampled(net, table)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and "no entry" in errors[0]


def test_loop():
    net, tables = _mesh()
    ends = net.end_node_ids()
    broken = tables.copy()
    # bounce the packet between the source's router and its next router
    router, port = _first_hop(net, tables, ends[0], ends[-1])
    nxt = net.out_link_on_port(router, port)
    back = next(l for l in net.out_links(nxt.dst) if l.dst == router)
    broken.set(nxt.dst, ends[-1], back.src_port)
    report = assert_same(net, broken)
    assert any("routing loop" in f for f in report.failures)


def test_uncabled_port():
    net, tables = _mesh()
    ends = net.end_node_ids()
    broken = tables.copy()
    router, _ = _first_hop(net, tables, ends[0], ends[-1])
    assert net.used_ports(router) < net.node(router).num_ports
    broken.set(router, ends[-1], net.node(router).num_ports - 1)
    got = assert_same(net, broken)
    assert got[0] is NetworkError


def test_wrong_end_node():
    net, tables = _mesh()
    ends = net.end_node_ids()
    broken = tables.copy()
    # the source's router ejects traffic for ends[-1] back to the source
    other = net.attached_router(ends[0])
    wrong = next(l for l in net.out_links(other) if l.dst == ends[0])
    broken.set(other, ends[-1], wrong.src_port)
    report = assert_same(net, broken)
    assert any("non-router, non-destination" in f for f in report.failures)


def test_hop_bound_violation():
    net, tables = _mesh()
    for bound in (0, 1, 2, 3):
        assert_same(net, tables, max_router_hops=bound)
    report = validate_routing(net, tables, max_router_hops=2)
    assert any("exceeds bound 2" in f for f in report.failures)


def test_explicit_pairs_with_unknown_ids_and_routers():
    net, tables = _mesh()
    ends, routers = net.end_node_ids(), net.router_ids()
    pairs = [(ends[0], ends[1]), (routers[0], ends[1]), (ends[2], ends[2]), (ends[3], routers[4])]
    assert_same(net, tables, pairs=pairs)
    assert outcome(validate_routing, net, tables, pairs=[("nope", ends[0])])[0] is NetworkError


@settings(max_examples=40, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(-1, 7)),
        min_size=1,
        max_size=6,
    ),
)
def test_random_corruptions_agree(edits):
    net, tables = _mesh()
    routers, ends = net.router_ids(), net.end_node_ids()
    entries = {r: tables.entries(r) for r in routers}
    for r, e, port in edits:
        if port < 0:
            entries[routers[r]].pop(ends[e], None)
        else:
            entries[routers[r]][ends[e]] = port
    assert_same(net, RoutingTable(net, entries))
