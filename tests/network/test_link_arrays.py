"""The cached link-array view against the per-link loops it replaced.

``Network.link_arrays`` is built in one pass and read by the route LUT
(``port_link_lut``), the array route walk (``walk._link_targets``) and the
simulator IR (``CompiledNet``).  The oracles below are the loops those
three ran over the ``Link`` objects before; every output must be equal,
on several fabric families and after each kind of mutation.
"""

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron, thin_fractahedron
from repro.routing.base import port_link_lut
from repro.routing.cache import cached_tables
from repro.routing.walk import _link_targets
from repro.sim.compile import CompiledNet
from repro.topology.registry import build_topology


def oracle_port_link_lut(net, ports, vc_count=1):
    idx = net.indices()
    max_ports = max((net.node(r).num_ports for r in idx.router_ids), default=0)
    top = int(ports.max()) + 1 if ports.size else 0
    lut = np.full((len(idx.router_ids), max(max_ports, top) + 1), -1, dtype=np.int32)
    for li, lid in enumerate(idx.link_ids):
        link = net.link(lid)
        r = idx.router_index.get(link.src)
        if r is not None:
            lut[r, link.src_port] = li * vc_count
    return lut


def oracle_link_targets(net):
    idx = net.indices()
    L, E = len(idx.link_ids), len(idx.end_ids)
    dst_router = np.full(L, -1, dtype=np.int32)
    dst_end = np.full(L, -1, dtype=np.int32)
    injection = np.full(E, -1, dtype=np.int32)
    out_degree = np.zeros(E, dtype=np.int32)
    for li, lid in enumerate(idx.link_ids):
        link = net.link(lid)
        r = idx.router_index.get(link.dst)
        if r is not None:
            dst_router[li] = r
        else:
            dst_end[li] = idx.end_index.get(link.dst, -1)
        e = idx.end_index.get(link.src)
        if e is not None:
            out_degree[e] += 1
            injection[e] = li
    injection[out_degree != 1] = -1
    return dst_router, dst_end, injection


def oracle_compiled(net, V):
    """The per-link and per-channel lists ``CompiledNet`` used to build."""
    idx = net.indices()
    link_dst, dst_is_end, dst_is_router, src_is_router, link_router = [], [], [], [], []
    for lid in idx.link_ids:
        link = net.link(lid)
        dst_node = net.node(link.dst)
        link_dst.append(link.dst)
        dst_is_end.append(dst_node.is_end_node)
        dst_is_router.append(dst_node.is_router)
        src_is_router.append(net.node(link.src).is_router)
        link_router.append(idx.router_index[link.dst] if dst_node.is_router else -1)
    per_channel = lambda column: [x for x in column for _ in range(V)]
    inj = []
    for node_id in idx.end_ids:
        links = net.out_links(node_id)
        inj.append(idx.link_index[links[0].link_id] * V if links else -1)
    return {
        "link_dst": link_dst,
        "ch_router": per_channel(link_router),
        "ch_dst_is_end": per_channel(dst_is_end),
        "ch_has_buffer": per_channel(dst_is_router),
        "ch_has_output": per_channel(src_is_router),
        "inj_ch": inj,
    }


def assert_view_matches_loops(net):
    ports = cached_tables(net).ports_on(net)
    _assert_matches(net, ports)


def _assert_matches(net, ports):
    for vc_count in (1, 2):
        assert np.array_equal(
            port_link_lut(net, ports, vc_count), oracle_port_link_lut(net, ports, vc_count)
        )
    for got, want in zip(_link_targets(net), oracle_link_targets(net)):
        assert np.array_equal(got, want)
    for V in (1, 3):
        cn = CompiledNet(net, V)
        got = {name: getattr(cn, name) for name in oracle_compiled(net, V)}
        got = {k: v if isinstance(v, list) else v.tolist() for k, v in got.items()}
        assert got == oracle_compiled(net, V)


FABRICS = {
    "mesh": lambda: build_topology("mesh", shape=(3, 4), nodes_per_router=2),
    "hypercube": lambda: build_topology("hypercube", dimensions=3),
    "fat_tree": lambda: build_topology("fat_tree", height=3, down=4, up=2),
    "dragonfly": lambda: build_topology(
        "dragonfly", groups=5, routers_per_group=2, global_per_router=2
    ),
    "fat_fractahedron": lambda: fat_fractahedron(2, fanout_width=2),
    "thin_fractahedron": lambda: thin_fractahedron(2),
}


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_view_matches_per_link_loops(name):
    assert_view_matches_loops(FABRICS[name]())


def test_view_is_cached_per_version_and_read_only():
    net = FABRICS["mesh"]()
    view = net.link_arrays()
    assert net.link_arrays() is view and view.version == net.version
    with pytest.raises(ValueError):
        view.src[0] = 0


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_view_is_rebuilt_after_each_mutation(name):
    net = FABRICS[name]()
    before = net.link_arrays()

    def check():
        ports = np.full((net.num_routers, net.num_end_nodes), -1, dtype=np.int16)
        ports[0, 0] = 9  # wider than any router: the LUT grows to fit it
        _assert_matches(net, ports)

    # connect: a fresh router cabled to a fresh end node and, where one has
    # a free port, to the fabric; a dual-homed end node (two injection
    # links: the walk sees none, the IR its lowest port, 2, whose link id
    # "dual:2->..." sorts after "dual:10->..."); an uncabled end node
    net.add_router("X0", 5)
    net.add_end_node("single")
    net.connect("single", 0, "X0", 0)
    free = [r for r in net.router_ids() if r != "X0" and net.free_ports(r)]
    if free:
        net.connect_next_free("X0", free[0])
    net.add_end_node("dual", 11)
    net.connect("dual", 10, "X0", 3)
    net.connect("dual", 2, "X0", 2)
    net.add_end_node("orphan")
    grown = net.link_arrays()
    assert grown is not before
    assert grown.src.size == before.src.size + 6 + 2 * bool(free)
    check()

    # disconnect: a router-to-router cable
    net.disconnect(net.router_links()[0].link_id)
    cut = net.link_arrays()
    assert cut.src.size == grown.src.size - 2
    check()

    # remove_node: a router and every cable on it
    net.remove_node("X0")
    assert net.link_arrays().num_routers == cut.num_routers - 1
    check()
