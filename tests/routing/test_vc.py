"""Unit tests for virtual-channel (dateline) routing on tori."""

import pytest

from repro.deadlock.cdg import (
    channel_dependency_graph,
    channel_dependency_graph_vc,
    is_deadlock_free,
)
from repro.routing.base import all_pairs_routes, compute_route
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.vc import dateline_vc_select, vc_for_route
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import uniform_traffic
from repro.topology.torus import torus


@pytest.fixture(scope="module")
def torus44():
    return torus((4, 4), nodes_per_router=1)


@pytest.fixture(scope="module")
def torus44_tables(torus44):
    return dimension_order_tables(torus44)


class TestVcForRoute:
    def test_starts_on_vc0(self, torus44, torus44_tables):
        route = compute_route(torus44, torus44_tables, "n0", "n1")
        vcs = vc_for_route(torus44, route.links)
        assert vcs[1] == 0  # first fabric link

    def test_switches_after_dateline(self, torus44, torus44_tables):
        # n0 at (0,0) to n12 at (3,0): DOR goes 0 -> 3 via the wrap link
        route = compute_route(torus44, torus44_tables, "n0", "n12")
        vcs = vc_for_route(torus44, route.links)
        fabric = [
            (torus44.link(l).attrs.get("wraparound", False), vc)
            for l, vc in zip(route.links, vcs)
            if torus44.node(torus44.link(l).src).is_router
            and torus44.node(torus44.link(l).dst).is_router
        ]
        assert fabric == [(True, 1)]  # one hop, over the wrap, on VC 1

    def test_resets_on_dimension_change(self, torus44, torus44_tables):
        # (0,0) -> (3,3): wrap in X (VC 1), then new dimension resets to
        # VC 0 before wrapping Y (VC 1 again)
        route = compute_route(torus44, torus44_tables, "n0", "n15")
        vcs = vc_for_route(torus44, route.links)
        fabric_vcs = [
            vc
            for l, vc in zip(route.links, vcs)
            if torus44.node(torus44.link(l).src).is_router
            and torus44.node(torus44.link(l).dst).is_router
        ]
        assert fabric_vcs == [1, 1]

    def test_never_needs_more_than_two(self, torus44, torus44_tables):
        for route in all_pairs_routes(torus44, torus44_tables):
            assert max(vc_for_route(torus44, route.links)) <= 1


class TestVcCdg:
    def test_physical_cdg_cyclic_but_vc_cdg_acyclic(self, torus44, torus44_tables):
        """The Dally-Seitz result: VCs break the torus ring cycles."""
        routes = all_pairs_routes(torus44, torus44_tables)
        assert not is_deadlock_free(channel_dependency_graph(torus44, routes))
        assert is_deadlock_free(channel_dependency_graph_vc(torus44, routes))

    def test_vc_cdg_on_mesh_matches_physical(self):
        from repro.topology.mesh import mesh

        net = mesh((3, 3), nodes_per_router=1)
        tables = dimension_order_tables(net)
        routes = all_pairs_routes(net, tables)
        # no wrap links -> everything stays on VC 0 and both views agree
        assert is_deadlock_free(channel_dependency_graph(net, routes))
        assert is_deadlock_free(channel_dependency_graph_vc(net, routes))


class TestVcSimulation:
    def test_torus_dor_two_vcs_never_deadlocks(self, torus44, torus44_tables):
        traffic = uniform_traffic(
            torus44.end_node_ids(), rate=0.05, packet_size=6, seed=17
        )
        sim = make_sim(
            torus44,
            torus44_tables,
            traffic,
            SimConfig(buffer_depth=2, vc_count=2, stall_threshold=64),
            vc_select=dateline_vc_select(torus44),
        )
        stats = sim.run(600, drain=True)
        assert not stats.deadlocked
        assert stats.packets_delivered == stats.packets_offered
        assert sim.finalize().in_order_violations == []

    def test_torus_dor_single_vc_can_deadlock(self, torus44, torus44_tables):
        """Without VCs, ring-wrapping worms interlock (the §2.1 problem)."""
        from repro.sim.traffic import pairs_traffic

        # every router in row 0 sends 2 hops around its X ring, all the
        # same direction, with worms long enough to span the ring
        pattern = [(f"n{i}", f"n{(i + 8) % 16}") for i in (0, 4, 8, 12)]
        sim = make_sim(
            torus44,
            torus44_tables,
            pairs_traffic(pattern, packet_size=64),
            SimConfig(buffer_depth=1, raise_on_deadlock=False, stall_threshold=32),
        )
        stats = sim.run(2000, drain=True)
        assert stats.deadlocked
