"""The hierarchical table builder must be bit-identical to the BFS oracle.

``hier_shortest_path_tables`` exists to make thousand-router table builds
affordable; its contract is that nobody can tell it apart from
``shortest_path_tables`` -- same ports, same error messages, same
behaviour under link restrictions -- only faster and fragment-cached.
"""

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron, thin_fractahedron
from repro.routing.base import RoutingError, RoutingTable
from repro.routing.cache import RoutingTableCache
from repro.routing.hierarchical import hier_shortest_path_tables
from repro.routing.shortest_path import shortest_path_tables
from repro.topology.mesh import mesh


def assert_identical(net, hier, oracle, subset=False):
    """Entry-for-entry equality over the oracle's compiled columns."""
    count = 0
    for router, dest, port in oracle.items():
        assert hier.lookup(router, dest) == port, (router, dest)
        count += 1
    assert count > 0
    if not subset:
        assert hier.num_entries() == oracle.num_entries() == count


class TestOracleIdentity:
    @pytest.mark.parametrize(
        "build,kwargs",
        [
            (fat_fractahedron, {"levels": 1}),
            (fat_fractahedron, {"levels": 2}),
            (fat_fractahedron, {"levels": 2, "fanout_width": 2}),
            (thin_fractahedron, {"levels": 2, "fanout_width": 2}),
            (thin_fractahedron, {"levels": 3}),
        ],
    )
    def test_full_sweep_matches(self, build, kwargs):
        net = build(**kwargs)
        assert_identical(net, hier_shortest_path_tables(net), shortest_path_tables(net))

    def test_depth3_fat_sampled_sweep_matches(self):
        net = fat_fractahedron(3, fanout_width=2)
        hier = hier_shortest_path_tables(net)
        ends = net.end_node_ids()
        dests = ends[:: len(ends) // 16]
        oracle = shortest_path_tables(net, dests=dests)
        assert_identical(net, hier, oracle, subset=True)

    def test_non_fractahedral_network_matches(self):
        # No hierarchy attrs: degrades to one fragment per router, still exact.
        net = mesh((3, 3))
        assert_identical(net, hier_shortest_path_tables(net), shortest_path_tables(net))

    def test_allowed_predicate_matches(self):
        net = fat_fractahedron(2)
        # forbid one direction of one intra-tetra link; both builders must
        # route around it the same way
        victim = next(l for l in net.router_links() if l.src == "L1.G0.Y0.C0")

        def allowed(link):
            return not (link.src == victim.src and link.src_port == victim.src_port)

        hier = hier_shortest_path_tables(net, allowed=allowed)
        oracle = shortest_path_tables(net, allowed=allowed)
        assert_identical(net, hier, oracle)

    def test_dests_subset(self):
        net = fat_fractahedron(2)
        dests = net.end_node_ids()[:5]
        hier = hier_shortest_path_tables(net, dests=dests)
        oracle = shortest_path_tables(net, dests=dests)
        assert_identical(net, hier, oracle, subset=True)
        assert hier.num_entries() == oracle.num_entries()

    def test_port_matrix_identical(self):
        # the engines route from the port matrix itself, so equal matrices
        # mean identical simulated routes
        net = fat_fractahedron(2, fanout_width=2)
        po = shortest_path_tables(net).ports_on(net)
        ph = hier_shortest_path_tables(net).ports_on(net)
        assert np.array_equal(po, ph)


class TestDisconnectedRestriction:
    def test_same_error_as_oracle(self):
        net = fat_fractahedron(1)
        # cut every link into one corner: its ends become unreachable

        def allowed(link):
            return link.dst != "L1.G0.Y0.C3"

        with pytest.raises(RoutingError) as oracle_err:
            shortest_path_tables(net, allowed=allowed)
        with pytest.raises(RoutingError) as hier_err:
            hier_shortest_path_tables(net, allowed=allowed)
        assert str(hier_err.value) == str(oracle_err.value)


class TestFragmentCache:
    def test_cold_build_misses_per_group(self):
        net = fat_fractahedron(2)
        cache = RoutingTableCache()
        hier_shortest_path_tables(net, cache=cache)
        # one fragment per level-1 tetrahedron group
        assert cache.stats.fragment_misses == 8
        assert cache.stats.fragment_hits == 0
        assert "L1" in cache.stats.level_seconds
        assert "adjacency" in cache.stats.level_seconds

    def test_warm_rebuild_hits_every_group(self):
        net = fat_fractahedron(2)
        cache = RoutingTableCache()
        first = hier_shortest_path_tables(net, cache=cache)
        second = hier_shortest_path_tables(net, cache=cache)
        assert cache.stats.fragment_hits == 8
        assert cache.stats.fragment_misses == 8
        assert np.array_equal(first.ports, second.ports)

    def test_end_node_churn_recomputes_touched_groups_only(self):
        # Swapping two end nodes between tetras changes only those groups'
        # attachment signatures; the other six fragments hit.
        net = fat_fractahedron(2)
        cache = RoutingTableCache()
        hier_shortest_path_tables(net, cache=cache)
        a, b = "n0", "n63"
        la = next(iter(net.out_links(a)))
        lb = next(iter(net.out_links(b)))
        net.disconnect(la.link_id)
        net.disconnect(lb.link_id)
        net.connect(a, 0, lb.dst, lb.dst_port)
        net.connect(b, 0, la.dst, la.dst_port)
        after = hier_shortest_path_tables(net, cache=cache)
        assert cache.stats.fragment_hits == 6
        assert cache.stats.fragment_misses == 8 + 2
        assert after.lookup(lb.dst, a) == lb.dst_port
        assert after.lookup(la.dst, b) == la.dst_port
        assert_identical(net, after, shortest_path_tables(net))

    def test_router_link_change_invalidates_all_fragments(self):
        net = fat_fractahedron(2)
        cache = RoutingTableCache()
        hier_shortest_path_tables(net, cache=cache)
        victim = next(iter(net.router_links()))
        net.disconnect(victim.link_id)
        rebuilt = hier_shortest_path_tables(net, cache=cache)
        assert cache.stats.fragment_hits == 0
        assert cache.stats.fragment_misses == 16  # every group recomputed
        assert_identical(net, rebuilt, shortest_path_tables(net))


class TestArrayRoutingTable:
    def test_is_duck_compatible_routing_table(self):
        net = fat_fractahedron(1)
        table = hier_shortest_path_tables(net)
        assert type(table) is RoutingTable
        dest = net.end_node_ids()[0]
        router = net.attached_router(dest)
        port = table.lookup(router, dest)
        assert table.entries(router)[dest] == port
        assert (router, dest, port) in set(table.items())
        assert table.has_entry(router, dest)
        assert not table.has_entry(router, "n999")

    def test_missing_entry_raises_like_dict_table(self):
        net = fat_fractahedron(1)
        table = hier_shortest_path_tables(net)
        with pytest.raises(RoutingError):
            table.lookup("L1.G0.Y0.C0", "n999")

    def test_set_and_copy_are_independent(self):
        net = fat_fractahedron(1)
        table = hier_shortest_path_tables(net)
        clone = table.copy()
        dest = net.end_node_ids()[0]
        router = net.attached_router(dest)
        original = table.lookup(router, dest)
        clone.set(router, dest, original + 1)
        assert clone.lookup(router, dest) == original + 1
        assert table.lookup(router, dest) == original

    def test_ports_match_dict_rebuild(self):
        net = fat_fractahedron(1)
        table = hier_shortest_path_tables(net)
        rebuilt = RoutingTable(net, {r: table.entries(r) for r in table.routers()})
        assert np.array_equal(table.ports_on(net), rebuilt.ports_on(net))
