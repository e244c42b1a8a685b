"""The engines' route lookup ``lut[r, ports[r, e]]`` matches a per-entry walk.

``reference_channels`` is the per-entry reference: it resolves every
entry's port to its outgoing link one ``out_link_on_port`` call at a time,
dropping entries whose router or destination the network does not index
and entries that name an uncabled port.  The ``(ports, lut)`` pair that
``RoutingTableCache.get_or_lower`` hands the engines must give the same
base channel for every (router, destination) cell -- through the vector
lookup ``next_channel`` of the vectorized engine and the array route walk,
and through the scalar ``lut.item(r, ports.item(r, e))`` of the compiled
engine -- for every registered topology, for hand-broken tables, and for
tables built before the network grew or shrank.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.graph import NetworkError
from repro.routing.base import RoutingError, RoutingTable, compute_route, next_channel
from repro.routing.cache import RoutingTableCache, cached_tables
from repro.topology.registry import build_topology
from tests.routing.test_walk import PARAMS, _first_hop, _mesh


def reference_channels(net, tables: RoutingTable, vc_count: int) -> np.ndarray:
    idx = net.indices()
    rows = np.full((len(idx.router_ids), len(idx.end_ids)), -1, dtype=np.int64)
    for router, dest, port in tables.items():
        r, e = idx.router_index.get(router), idx.end_index.get(dest)
        if r is None or e is None:
            continue
        try:
            link = net.out_link_on_port(router, port)
        except NetworkError:
            continue
        rows[r, e] = idx.link_index[link.link_id] * vc_count
    return rows


def engine_channels(ports: np.ndarray, lut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's next channel, read the vectorized and the scalar way."""
    R, E = ports.shape
    r, e = np.divmod(np.arange(R * E), E)
    vector = next_channel(lut, ports, r, e).reshape(R, E)
    scalar = np.array(
        [[lut.item(i, ports.item(i, j)) for j in range(E)] for i in range(R)],
        dtype=np.int64,
    ).reshape(R, E)
    return vector, scalar


def port_dtype(net, tables: RoutingTable):
    """The dtype rule: one byte while the widest router has at most 127
    ports and no entry names a port above 127, two bytes otherwise."""
    widest = max((net.node(r).num_ports for r in net.router_ids()), default=0)
    narrow = widest <= 127 and int(tables.ports.max(initial=-1)) <= 127
    return np.int8 if narrow else np.int16


def assert_routes_like_reference(net, tables, cache=None):
    cache = cache or RoutingTableCache()
    for vc_count in (1, 2):
        ports, lut = cache.get_or_lower(net, tables, vc_count)
        assert not ports.flags.writeable and not lut.flags.writeable
        assert ports.dtype == tables.ports.dtype == port_dtype(net, tables)
        assert lut.dtype == np.int32
        want = reference_channels(net, tables, vc_count)
        vector, scalar = engine_channels(ports, lut)
        assert np.array_equal(vector, want)
        assert np.array_equal(scalar, want)


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_registered_topologies(name):
    net = build_topology(name, **PARAMS[name])
    cache = RoutingTableCache()
    tables = cache.get_or_build(net)
    assert_routes_like_reference(net, tables, cache)
    ports, _ = cache.get_or_lower(net, tables)
    assert ports is tables.ports  # a cached table's own matrix, no copy


def _broken():
    """The hand-broken mesh tables of the route-walk tests, by name."""
    net, tables = _mesh()
    ends = net.end_node_ids()
    router, port = _first_hop(net, tables, ends[0], ends[-1])
    out = {}

    missing = tables.copy()
    entries = {r: missing.entries(r) for r in missing.routers()}
    del entries[router][ends[-1]]
    out["missing_entry"] = RoutingTable(net, entries)

    uncabled = tables.copy()
    uncabled.set(router, ends[-1], net.node(router).num_ports - 1)
    out["uncabled_port"] = uncabled

    loop = tables.copy()
    nxt = net.out_link_on_port(router, port)
    back = next(l for l in net.out_links(nxt.dst) if l.dst == router)
    loop.set(nxt.dst, ends[-1], back.src_port)
    out["loop"] = loop

    wrong = tables.copy()
    eject = next(l for l in net.out_links(router) if l.dst == ends[0])
    wrong.set(router, ends[-1], eject.src_port)
    out["wrong_end_node"] = wrong
    return net, out


@pytest.mark.parametrize("kind", ["missing_entry", "uncabled_port", "loop", "wrong_end_node"])
def test_hand_broken_tables(kind):
    net, broken = _broken()
    assert_routes_like_reference(net, broken[kind])


def test_ports_past_the_widest_router():
    # every torus router cables its last port, so a lookup clamped onto
    # the last real column instead of a -1 one would route onto a live link
    net = build_topology("torus", **PARAMS["torus"])
    tables = RoutingTableCache().get_or_build(net).copy()
    dest = net.end_node_ids()[-1]
    for router in net.router_ids():
        tables.set(router, dest, 32767)
    assert tables.ports.dtype == np.int16  # widened by the first port above 127
    assert_routes_like_reference(net, tables)
    _, lut = RoutingTableCache().get_or_lower(net, tables)
    assert lut.shape[1] == 32769  # every port in the table, plus the -1 column


def test_unfrozen_tables_are_read_through_a_read_only_view():
    net, tables = _mesh()
    assert tables.ports.flags.writeable
    ports, _ = RoutingTableCache().get_or_lower(net, tables)
    assert np.shares_memory(ports, tables.ports)
    assert tables.ports.flags.writeable  # the caller's table stays editable


def test_tables_built_before_the_network_grew():
    net, tables = _mesh()
    before = net.indices()
    net.add_router("R.extra", num_ports=4)
    net.add_end_node("n.extra")
    net.connect_next_free("n.extra", "R.extra")
    net.connect_next_free(net.router_ids()[0], "R.extra")
    assert net.indices().router_ids != before.router_ids
    assert_routes_like_reference(net, tables)
    ports, lut = RoutingTableCache().get_or_lower(net, tables)
    vector, _ = engine_channels(ports, lut)
    assert (vector[-1] == -1).all() and (vector[:, -1] == -1).all()


def test_tables_built_before_the_network_shrank():
    net, tables = _mesh()
    gone_end = net.end_node_ids()[3]
    gone_router = net.router_ids()[4]
    for end in net.attached_end_nodes(gone_router):
        net.remove_node(end)
    net.remove_node(gone_router)
    net.remove_node(gone_end)
    assert_routes_like_reference(net, tables)


def test_cached_tables_are_frozen_so_their_route_lookup_never_goes_stale():
    net, _ = _mesh()
    cache = RoutingTableCache()
    tables = cached_tables(net, cache=cache)
    pair = cache.get_or_lower(net, tables)
    ends = net.end_node_ids()
    router, port = _first_hop(net, tables, ends[0], ends[-1])
    other = next(l.src_port for l in net.out_links(router) if l.src_port != port)
    with pytest.raises(RoutingError, match=r"\.copy\(\)"):
        tables.set(router, ends[-1], other)
    with pytest.raises(ValueError):
        tables.ports[0, 0] = other
    assert cache.get_or_lower(net, tables) is pair
    assert np.array_equal(engine_channels(*pair)[0], reference_channels(net, tables, 1))

    edited = tables.copy()
    edited.set(router, ends[-1], other)
    assert compute_route(net, edited, ends[0], ends[-1]).links[1] != (
        compute_route(net, tables, ends[0], ends[-1]).links[1]
    )
    got = engine_channels(*cache.get_or_lower(net, edited))[0]
    assert np.array_equal(got, reference_channels(net, edited, 1))
