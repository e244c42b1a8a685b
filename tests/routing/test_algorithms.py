"""Unit tests for the routing algorithms (shortest path, DOR, e-cube,
up*/down*, disables)."""

import pytest

from repro.deadlock.cdg import channel_dependency_graph, is_deadlock_free
from repro.routing.base import RoutingError, all_pairs_routes, compute_route
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.disables import DisableSet, disables_respected
from repro.routing.dimension_order import ecube_tables
from repro.routing.shortest_path import (
    bfs_router_distances,
    rotating_tie_break,
    shortest_path_tables,
)
from repro.routing.tree_routing import tree_tables, up_down_tables
from repro.routing.validate import validate_routing
from repro.topology.hypercube import hypercube
from repro.topology.mesh import mesh
from repro.topology.ring import ring
from repro.topology.tree import binary_tree


class TestShortestPath:
    def test_routes_are_minimal(self):
        net = mesh((3, 3), nodes_per_router=1)
        tables = shortest_path_tables(net)
        for src in ("n0", "n4"):
            for dst in net.end_node_ids():
                if dst == src:
                    continue
                route = compute_route(net, tables, src, dst)
                a = net.node(net.attached_router(src)).attrs["coord"]
                b = net.node(net.attached_router(dst)).attrs["coord"]
                manhattan = abs(a[0] - b[0]) + abs(a[1] - b[1])
                assert len(route.router_links) == manhattan

    def test_disables_respected(self):
        net = ring(5, nodes_per_router=1)
        ds = DisableSet()
        ds.add_between(net, "R0", "R1")
        tables = shortest_path_tables(net, allowed=ds.allowed)
        assert disables_respected(net, tables, ds)
        routes = all_pairs_routes(net, tables)
        assert disables_respected(net, routes, ds)

    def test_disconnecting_disables_raise(self):
        net = ring(4, nodes_per_router=1)
        ds = DisableSet.bidirectional(net, [("R0", "R1"), ("R2", "R3")])
        with pytest.raises(RoutingError):
            shortest_path_tables(net, allowed=ds.allowed)

    def test_rotating_tie_break_still_delivers(self):
        net = hypercube(3, nodes_per_router=1)
        tables = shortest_path_tables(net, tie_break=rotating_tie_break)
        assert validate_routing(net, tables).ok

    def test_bfs_distances(self):
        net = ring(6, nodes_per_router=1)
        dist = bfs_router_distances(net, "R0")
        assert dist["R3"] == 3
        assert dist["R5"] == 1


class TestDimensionOrder:
    def test_xy_vs_yx_turn_routers(self):
        net = mesh((3, 3), nodes_per_router=1)
        xy = dimension_order_tables(net, order=(0, 1))
        yx = dimension_order_tables(net, order=(1, 0))
        # route from (0,0) to (2,2): xy turns at (2,0); yx turns at (0,2)
        r_xy = compute_route(net, xy, "n0", "n8")
        r_yx = compute_route(net, yx, "n0", "n8")
        assert "R2,0" in r_xy.nodes
        assert "R0,2" in r_yx.nodes

    def test_deadlock_free_on_mesh(self, mesh66, mesh66_routes):
        assert is_deadlock_free(channel_dependency_graph(mesh66, mesh66_routes))

    def test_order_must_be_permutation(self, mesh66):
        with pytest.raises(RoutingError):
            dimension_order_tables(mesh66, order=(0, 0))

    def test_requires_mesh_attrs(self):
        net = binary_tree(2)
        with pytest.raises(RoutingError, match="shape"):
            dimension_order_tables(net)

    def test_torus_wrap_takes_short_way(self):
        from repro.topology.torus import torus

        net = torus((5,), nodes_per_router=1, router_radix=6)
        tables = dimension_order_tables(net)
        route = compute_route(net, tables, "n0", "n4")
        # 0 -> 4 the short way around is one hop over the wrap link
        assert route.router_hops == 2

    def test_torus_dor_has_cdg_cycle(self):
        """Wrapped dimension-order is NOT deadlock-free without VCs."""
        from repro.topology.torus import torus

        net = torus((4, 4), nodes_per_router=1)
        tables = dimension_order_tables(net)
        routes = all_pairs_routes(net, tables)
        assert not is_deadlock_free(channel_dependency_graph(net, routes))


class TestEcube:
    def test_deliverable_and_deadlock_free(self):
        net = hypercube(4, nodes_per_router=1)
        tables = ecube_tables(net)
        assert validate_routing(net, tables, max_router_hops=5).ok
        routes = all_pairs_routes(net, tables)
        assert is_deadlock_free(channel_dependency_graph(net, routes))

    def test_high_first_differs(self):
        net = hypercube(3, nodes_per_router=1)
        low = ecube_tables(net)
        high = ecube_tables(net, high_first=True)
        r_low = compute_route(net, low, "n0", "n3")  # 000 -> 011
        r_high = compute_route(net, high, "n0", "n3")
        assert r_low.nodes != r_high.nodes

    def test_requires_hypercube(self, mesh66):
        with pytest.raises(RoutingError, match="dimensions"):
            ecube_tables(mesh66)

    def test_hop_count_is_hamming_distance(self):
        net = hypercube(4, nodes_per_router=1)
        tables = ecube_tables(net)
        for dst_index in (1, 3, 7, 15):
            route = compute_route(net, tables, "n0", f"n{dst_index}")
            assert len(route.router_links) == bin(dst_index).count("1")


class TestTreeRouting:
    def test_tree_tables_unique_paths(self):
        net = binary_tree(3, nodes_per_leaf=1)
        tables = tree_tables(net)
        assert validate_routing(net, tables).ok

    def test_tree_tables_reject_non_tree(self):
        with pytest.raises(RoutingError, match="not a tree"):
            tree_tables(ring(4))

    def test_up_down_on_looped_fabric(self):
        net = ring(6, nodes_per_router=1)
        tables = up_down_tables(net)
        assert validate_routing(net, tables, require_simple=True).ok
        routes = all_pairs_routes(net, tables)
        assert is_deadlock_free(channel_dependency_graph(net, routes))

    def test_up_down_on_hypercube(self):
        net = hypercube(3, nodes_per_router=1)
        tables = up_down_tables(net)
        assert validate_routing(net, tables).ok
        routes = all_pairs_routes(net, tables)
        assert is_deadlock_free(channel_dependency_graph(net, routes))

    def test_up_down_on_mesh(self):
        net = mesh((3, 3), nodes_per_router=1)
        tables = up_down_tables(net, root="R1,1")
        assert validate_routing(net, tables).ok
        routes = all_pairs_routes(net, tables)
        assert is_deadlock_free(channel_dependency_graph(net, routes))
