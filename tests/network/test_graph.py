"""Unit tests for the core network data model."""

import tracemalloc

import pytest

from repro.network.graph import (
    Network,
    NetworkError,
    Node,
    NodeKind,
    PortBudgetError,
    PortInUseError,
    make_link_id,
    subnetwork,
)


@pytest.fixture
def small_net():
    net = Network("test")
    net.add_router("R0", 6)
    net.add_router("R1", 6)
    net.add_end_node("n0")
    net.connect("R0", 0, "R1", 0)
    net.connect("n0", 0, "R0", 1)
    return net


class TestNodes:
    def test_add_router(self):
        net = Network()
        node = net.add_router("R0", 6, corner=2)
        assert node.is_router and not node.is_end_node
        assert node.num_ports == 6
        assert node.attrs["corner"] == 2
        assert net.node("R0") is node

    def test_add_end_node_default_single_port(self):
        net = Network()
        node = net.add_end_node("n0")
        assert node.kind is NodeKind.END_NODE
        assert node.num_ports == 1

    def test_duplicate_id_rejected(self):
        net = Network()
        net.add_router("X", 6)
        with pytest.raises(NetworkError, match="duplicate"):
            net.add_end_node("X")

    def test_zero_ports_rejected(self):
        net = Network()
        with pytest.raises(NetworkError, match="at least one port"):
            net.add_router("R", 0)

    def test_unknown_node_raises(self):
        net = Network()
        with pytest.raises(NetworkError, match="unknown node"):
            net.node("nope")

    def test_contains(self, small_net):
        assert "R0" in small_net
        assert "R9" not in small_net


class TestConnect:
    def test_duplex_pair_created(self, small_net):
        fwd = small_net.link(make_link_id("R0", 0, "R1", 0))
        rev = small_net.link(fwd.reverse_id)
        assert fwd.src == "R0" and fwd.dst == "R1"
        assert rev.src == "R1" and rev.dst == "R0"
        assert rev.reverse_id == fwd.link_id

    def test_port_occupancy(self, small_net):
        assert small_net.used_ports("R0") == 2
        assert small_net.free_ports("R0") == 4
        assert small_net.next_free_port("R0") == 2

    def test_port_in_use_rejected(self, small_net):
        small_net.add_router("R2", 6)
        with pytest.raises(PortInUseError):
            small_net.connect("R0", 0, "R2", 0)

    def test_port_out_of_range_rejected(self):
        net = Network()
        net.add_router("A", 2)
        net.add_router("B", 2)
        with pytest.raises(PortBudgetError):
            net.connect("A", 2, "B", 0)

    def test_self_link_rejected(self):
        net = Network()
        net.add_router("A", 4)
        with pytest.raises(NetworkError, match="self-link"):
            net.connect("A", 0, "A", 1)

    def test_budget_exhaustion(self):
        net = Network()
        net.add_router("hub", 2)
        for i in range(2):
            net.add_router(f"leaf{i}", 2)
            net.connect_next_free("hub", f"leaf{i}")
        net.add_router("extra", 2)
        with pytest.raises(PortBudgetError, match="no free ports"):
            net.connect_next_free("hub", "extra")

    def test_disconnect_frees_ports(self, small_net):
        link = small_net.links_between("R0", "R1")[0]
        small_net.disconnect(link.link_id)
        assert small_net.free_ports("R0") == 5
        assert not small_net.links_between("R0", "R1")
        assert not small_net.has_link(link.link_id)

    def test_remove_node_drops_cables(self, small_net):
        small_net.remove_node("R1")
        assert not small_net.has_node("R1")
        assert small_net.used_ports("R0") == 1  # only the end node remains


class TestQueries:
    def test_out_in_links_port_order(self, small_net):
        outs = small_net.out_links("R0")
        assert [l.src_port for l in outs] == [0, 1]
        ins = small_net.in_links("R0")
        assert [l.dst_port for l in ins] == [0, 1]

    def test_out_link_on_port(self, small_net):
        link = small_net.out_link_on_port("R0", 0)
        assert link.dst == "R1"
        with pytest.raises(NetworkError, match="no connection"):
            small_net.out_link_on_port("R0", 5)

    def test_neighbors(self, small_net):
        assert small_net.neighbors("R0") == ["R1", "n0"]

    def test_attached_router(self, small_net):
        assert small_net.attached_router("n0") == "R0"
        with pytest.raises(NetworkError, match="not an end node"):
            small_net.attached_router("R0")

    def test_attached_end_nodes(self, small_net):
        assert small_net.attached_end_nodes("R0") == ["n0"]
        assert small_net.attached_end_nodes("R1") == []

    def test_router_links_excludes_end_nodes(self, small_net):
        links = small_net.router_links()
        assert len(links) == 2  # one duplex pair
        assert all(l.src.startswith("R") and l.dst.startswith("R") for l in links)

    def test_counts(self, small_net):
        assert small_net.num_nodes == 3
        assert small_net.num_routers == 2
        assert small_net.num_end_nodes == 1
        assert small_net.num_links == 4

    def test_port_histogram(self, small_net):
        assert small_net.port_histogram() == {2: 1, 1: 1}


class TestConversions:
    def test_to_networkx_directed(self, small_net):
        g = small_net.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 4
        assert g.has_edge("R0", "R1") and g.has_edge("R1", "R0")

    def test_to_networkx_routers_only(self, small_net):
        g = small_net.to_networkx(routers_only=True)
        assert set(g.nodes) == {"R0", "R1"}
        assert g.number_of_edges() == 2

    def test_undirected_capacity_counts_cables_once(self, small_net):
        g = small_net.to_networkx_undirected()
        assert g["R0"]["R1"]["capacity"] == 1

    def test_undirected_parallel_cables_accumulate(self):
        net = Network()
        net.add_router("A", 4)
        net.add_router("B", 4)
        net.connect("A", 0, "B", 0)
        net.connect("A", 1, "B", 1)
        g = net.to_networkx_undirected()
        assert g["A"]["B"]["capacity"] == 2


class TestSubnetwork:
    def test_induced_copy(self, small_net):
        sub = subnetwork(small_net, ["R0", "n0"])
        assert sub.num_nodes == 2
        assert sub.num_links == 2  # only the n0<->R0 cable survives
        assert sub.node("R0").num_ports == 6


def test_node_many_equals_init_and_shares_attribute_keys():
    """Bulk-made nodes equal ``__init__``'s and take no more memory: a
    class no node was made of yet shows whether they share its keys."""
    ids = [f"n{i}" for i in range(2000)]
    attrs = [{"address": i} for i in range(2000)]

    def made(build):
        class Fresh(Node):
            pass

        tracemalloc.start()
        try:
            nodes = build(Fresh)
            return nodes, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    bulk, bulk_bytes = made(lambda cls: cls.many(ids, NodeKind.END_NODE, 1, attrs))
    each, each_bytes = made(
        lambda cls: [cls(i, NodeKind.END_NODE, 1, a) for i, a in zip(ids, attrs)]
    )
    assert [vars(n) for n in bulk] == [vars(n) for n in each]
    assert all(n.attrs is a for n, a in zip(bulk, attrs))
    assert bulk_bytes <= 1.1 * each_bytes
    with pytest.raises(AttributeError):
        bulk[0].num_ports = 2
