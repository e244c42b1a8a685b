"""DisableSet enforcement against the routing table's port matrix.

``disables_respected`` walks ``tables.items()``, which the int16 port
matrix derives from its nonzero cells, so the §2.4 enforcement contract
needs its own coverage there -- for tables rebuilt from their entries
and through the cache's disable-keyed entries.
"""

import pytest

from repro.routing.base import RoutingError, RoutingTable
from repro.routing.cache import RoutingTableCache, cached_tables
from repro.routing.disables import DisableSet, disables_respected
from repro.routing.shortest_path import shortest_path_tables
from repro.routing.validate import validate_routing
from repro.topology.hypercube import hypercube
from repro.topology.ring import ring


def _densify(net, tables):
    """The same entries, rebuilt through the ``entries`` constructor."""
    return RoutingTable(net, {r: tables.entries(r) for r in tables.routers()})


def _used_link(net, tables):
    """Some (router, port) -> link the tables actually forward onto."""
    for router, _dest, port in tables.items():
        link = net.out_link_on_port(router, port)
        if net.node(link.dst).is_router:
            return link
    raise AssertionError("tables use no transit link")


def test_array_table_round_trips_and_validates():
    net = hypercube(3)
    dense = _densify(net, shortest_path_tables(net))
    assert validate_routing(net, dense).ok
    assert dense.num_entries() > 0


def test_disables_respected_on_clean_array_table():
    net = hypercube(3)
    tables = shortest_path_tables(net)
    dense = _densify(net, tables)
    # a disable set the routing genuinely avoids: rebuild around the link
    victim = _used_link(net, tables)
    ds = DisableSet([victim.link_id])
    rerouted = shortest_path_tables(net, allowed=ds.allowed)
    assert disables_respected(net, _densify(net, rerouted), ds)


def test_disables_violation_detected_in_array_table():
    net = hypercube(3)
    tables = shortest_path_tables(net)
    dense = _densify(net, tables)
    victim = _used_link(net, tables)
    assert not disables_respected(net, dense, DisableSet([victim.link_id]))


def test_array_and_dict_tables_agree_on_enforcement():
    net = ring(5, nodes_per_router=1)
    tables = shortest_path_tables(net)
    dense = _densify(net, tables)
    for link in net.links():
        ds = DisableSet([link.link_id])
        assert disables_respected(net, tables, ds) == disables_respected(
            net, dense, ds
        )


def test_array_table_set_and_lookup_bounds():
    net = ring(4, nodes_per_router=1)
    dense = RoutingTable(net)
    with pytest.raises(RoutingError):
        dense.set("nope", net.end_node_ids()[0], 0)
    with pytest.raises(RoutingError):
        dense.lookup(net.router_ids()[0], net.end_node_ids()[0])


class TestCacheDisableKeyedEntries:
    def test_disable_keyed_entry_respects_disables(self):
        net = hypercube(3)
        baseline = cached_tables(net, algorithm="shortest_path")
        victim = _used_link(net, baseline)
        ds = DisableSet([victim.link_id])
        restricted = cached_tables(net, algorithm="shortest_path", disables=ds)
        assert disables_respected(net, restricted, ds)
        assert disables_respected(net, _densify(net, restricted), ds)
        # and the unrestricted entry is a different table that uses the link
        assert not disables_respected(net, _densify(net, baseline), ds)

    def test_cache_keys_differ_per_disable_set(self):
        net = ring(4, nodes_per_router=1)
        cache = RoutingTableCache()
        links = sorted(
            l.link_id
            for l in net.links()
            if net.node(l.src).is_router and net.node(l.dst).is_router
        )
        k_none = cache.key(net, "shortest_path", {}, None)
        k_a = cache.key(net, "shortest_path", {}, DisableSet([links[0]]))
        k_b = cache.key(net, "shortest_path", {}, DisableSet([links[1]]))
        assert len({k_none, k_a, k_b}) == 3
        # same disable contents -> same key (content-addressed, not id-addressed)
        assert k_a == cache.key(net, "shortest_path", {}, DisableSet([links[0]]))
