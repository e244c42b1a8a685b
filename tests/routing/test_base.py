"""Unit tests for routes, tables and route sets."""

import numpy as np
import pytest

from repro.network.builder import NetworkBuilder
from repro.routing.base import (
    Route,
    RouteSet,
    RoutingError,
    RoutingTable,
    all_pairs_routes,
    compute_route,
    routes_for_pairs,
    sorted_unique,
)
from repro.routing.cache import cached_tables
from repro.topology.registry import build_topology
from tests.routing.test_walk import PARAMS


@pytest.fixture
def line_net():
    """n0 - A - B - n1."""
    b = NetworkBuilder("line")
    b.router("A")
    b.router("B")
    b.cable("A", "B")
    b.end_node("n0")
    b.cable("n0", "A")
    b.end_node("n1")
    b.cable("n1", "B")
    return b.net


@pytest.fixture
def line_tables(line_net):
    t = RoutingTable(line_net)
    t.set("A", "n1", line_net.links_between("A", "B")[0].src_port)
    t.set("B", "n1", line_net.links_between("B", "n1")[0].src_port)
    t.set("B", "n0", line_net.links_between("B", "A")[0].src_port)
    t.set("A", "n0", line_net.links_between("A", "n0")[0].src_port)
    return t


class TestRoutingTable:
    def test_set_lookup(self, line_net):
        t = RoutingTable(line_net)
        t.set("A", "n1", 3)
        assert t.lookup("A", "n1") == 3
        assert t.has_entry("A", "n1")
        assert not t.has_entry("A", "n0")
        assert not t.has_entry("A", "other")

    def test_missing_entry_raises(self, line_net):
        with pytest.raises(RoutingError, match="no entry"):
            RoutingTable(line_net).lookup("A", "n1")
        with pytest.raises(RoutingError, match="no entry"):
            RoutingTable(line_net).lookup("R", "d")

    def test_entries_copy_is_isolated(self, line_net):
        t = RoutingTable(line_net)
        t.set("A", "n1", 1)
        entries = t.entries("A")
        entries["n1"] = 9
        assert t.lookup("A", "n1") == 1

    def test_num_entries_and_items(self, line_net):
        t = RoutingTable(line_net, {"A": {"n0": 0, "n1": 1}})
        assert t.num_entries() == 2
        assert set(t.items()) == {("A", "n0", 0), ("A", "n1", 1)}
        assert t.routers() == ["A"]

    def test_used_output_ports(self, line_net):
        t = RoutingTable(line_net, {"A": {"n0": 1, "n1": 1}, "B": {"n0": 0}})
        assert t.used_output_ports("A") == {1}
        assert t.used_output_ports("R") == set()

    def test_copy_independent(self, line_net):
        t = RoutingTable(line_net, {"A": {"n0": 0}})
        c = t.copy()
        c.set("A", "n0", 5)
        assert t.lookup("A", "n0") == 0

    def test_set_rejects_unindexed_names(self, line_net):
        t = RoutingTable(line_net)
        with pytest.raises(RoutingError, match="not indexed"):
            t.set("R", "n0", 0)
        with pytest.raises(RoutingError, match="not indexed"):
            t.set("A", "B", 0)  # a router is not a destination

    @pytest.mark.parametrize("port", [-1, -2, 32768, 1 << 40])
    def test_set_rejects_ports_outside_int16(self, line_net, port):
        t = RoutingTable(line_net, {"A": {"n1": 1}})
        with pytest.raises(RoutingError, match="outside 0-32767"):
            t.set("A", "n1", port)
        assert t.lookup("A", "n1") == 1  # the -1 sentinel never erases
        t.set("A", "n1", 32767)
        assert t.lookup("A", "n1") == 32767

    def test_frozen_table_refuses_edits_and_copies_thaw(self, line_net):
        t = RoutingTable(line_net, {"A": {"n1": 1}}).freeze()
        with pytest.raises(RoutingError, match=r"\.copy\(\)"):
            t.set("A", "n1", 0)
        with pytest.raises(ValueError):
            t.ports[0, 0] = 0
        c = t.copy()
        c.set("A", "n1", 0)
        assert (t.lookup("A", "n1"), c.lookup("A", "n1")) == (1, 0)


class TestPortDtype:
    """One byte per cell while every port fits, two bytes otherwise."""

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_registry_topologies_build_one_byte_tables(self, name):
        net = build_topology(name, **PARAMS[name])
        tables = cached_tables(net)
        assert tables.ports.dtype == np.int8
        assert tables.num_entries() > 0

    def test_large_port_widens_and_keeps_entries(self, line_net, line_tables):
        idx = line_net.indices()
        want = line_tables.ports.astype(np.int16)
        assert line_tables.ports.dtype == np.int8
        line_tables.set("B", "n1", 127)
        assert line_tables.ports.dtype == np.int8  # 127 still fits a byte
        line_tables.set("A", "n1", 32767)
        assert line_tables.ports.dtype == np.int16
        want[idx.router_index["B"], idx.end_index["n1"]] = 127
        want[idx.router_index["A"], idx.end_index["n1"]] = 32767
        assert np.array_equal(line_tables.ports, want)
        assert line_tables.lookup("A", "n1") == 32767

    def test_wide_router_starts_at_two_bytes(self):
        b = NetworkBuilder("wide")
        b.router("W", num_ports=128)
        b.end_node("n0")
        b.cable("n0", "W")
        t = RoutingTable(b.net)
        assert t.ports.dtype == np.int16
        narrow = NetworkBuilder("narrow")
        narrow.router("N", num_ports=127)
        assert RoutingTable(narrow.net).ports.dtype == np.int8

    @pytest.mark.parametrize("port", [1, 300])
    def test_copy_and_ports_on_keep_the_dtype(self, line_net, line_tables, port):
        line_tables.set("A", "n1", port)
        dtype = line_tables.ports.dtype
        assert line_tables.copy().ports.dtype == dtype
        line_net.add_router("C", num_ports=6)  # re-indexes: ports_on copies
        on = line_tables.ports_on(line_net)
        assert not np.shares_memory(on, line_tables.ports)
        assert on.dtype == dtype and on.shape == (3, 2)
        idx = line_net.indices()
        assert on[idx.router_index["A"], idx.end_index["n1"]] == port

    def test_frozen_table_raises_before_widening(self, line_tables):
        line_tables.freeze()
        with pytest.raises(RoutingError, match=r"\.copy\(\)"):
            line_tables.set("A", "n1", 32767)
        assert line_tables.ports.dtype == np.int8
        assert not line_tables.ports.flags.writeable


class TestComputeRoute:
    def test_basic_walk(self, line_net, line_tables):
        route = compute_route(line_net, line_tables, "n0", "n1")
        assert route.nodes == ("n0", "A", "B", "n1")
        assert route.router_hops == 2
        assert len(route.links) == 3
        assert len(route.router_links) == 1

    def test_same_node_rejected(self, line_net, line_tables):
        with pytest.raises(RoutingError, match="identical"):
            compute_route(line_net, line_tables, "n0", "n0")

    def test_router_source_rejected(self, line_net, line_tables):
        with pytest.raises(RoutingError, match="not an end node"):
            compute_route(line_net, line_tables, "A", "n1")

    def test_loop_detected(self, line_net):
        looping = RoutingTable(line_net)
        # A and B bounce the packet forever
        looping.set("A", "n1", line_net.links_between("A", "B")[0].src_port)
        looping.set("B", "n1", line_net.links_between("B", "A")[0].src_port)
        with pytest.raises(RoutingError, match="loop"):
            compute_route(line_net, looping, "n0", "n1")

    def test_wrong_terminal_detected(self, line_net):
        bad = RoutingTable(line_net)
        # route to n1 ejects back at n0 instead: a non-router, non-dest node
        bad.set("A", "n1", line_net.links_between("A", "n0")[0].src_port)
        with pytest.raises(RoutingError, match="non-router"):
            compute_route(line_net, bad, "n0", "n1")


class TestRouteSet:
    def test_all_pairs(self, line_net, line_tables):
        rs = all_pairs_routes(line_net, line_tables)
        assert len(rs) == 2
        assert rs.has("n0", "n1") and rs.has("n1", "n0")

    def test_get_missing(self):
        with pytest.raises(RoutingError):
            RouteSet().get("a", "b")

    def test_link_usage(self, line_net, line_tables):
        rs = all_pairs_routes(line_net, line_tables)
        usage = rs.link_usage()
        ab = line_net.links_between("A", "B")[0].link_id
        assert len(usage[ab]) == 1

    def test_router_link_usage_covers_unused(self, line_net, line_tables):
        rs = routes_for_pairs(line_net, line_tables, [("n0", "n1")])
        usage = rs.router_link_usage(line_net)
        assert len(usage) == 2  # both directions listed
        counts = sorted(len(v) for v in usage.values())
        assert counts == [0, 1]

    def test_route_properties(self):
        r = Route("s", "d", ("l1", "l2", "l3"), ("s", "R1", "R2", "d"))
        assert r.router_hops == 2
        assert r.router_links == ("l2",)
        assert len(r) == 3


@pytest.mark.parametrize(
    "values",
    [[], [3], [5, 1, 5, 2, 1, 1], [[4, -1], [4, 0]], np.arange(10)[::-1]],
)
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_sorted_unique_matches_np_unique(values, dtype):
    values = np.asarray(values, dtype=dtype)
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
