"""The array dimension-order builder must match the per-pair Python loops.

``loop_dimension_order_tables``, ``loop_ecube_tables`` and
``loop_hyperx_dor_tables`` are the three builders
:class:`~repro.routing.dimension_order.DimensionOrder` replaced: one
Python pass over every (router, destination) pair with a
``links_between`` scan.  ``loop_valiant_routes`` is HyperX Valiant routing
with its own coordinate walk.  They stay here as the oracles: same port
matrix (dtype included), same routes, or the same :class:`RoutingError`
text.
"""

import random
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

import repro
from repro.network.graph import Network, NetworkError
from repro.routing import dimension_order_tables as exported_dor
from repro.routing import ecube_tables as exported_ecube
from repro.routing.base import RoutingError, RoutingTable, ejections
from repro.routing.dimension_order import dimension_order_tables, ecube_tables
from repro.routing.hyperx import hyperx_dor_tables, hyperx_valiant_routes
from repro.topology.hypercube import hypercube
from repro.topology.hyperx import hyperx
from repro.topology.mesh import mesh
from repro.topology.registry import build_topology
from repro.topology.ring import ring
from repro.topology.torus import torus
from tests.routing.test_walk import PARAMS


def loop_dimension_order_tables(net, order=None) -> RoutingTable:
    """Mesh/torus/ring DOR: step +-1, the shorter way round a ring."""
    shape = net.attrs.get("shape")
    if shape is None:
        raise RoutingError("network has no 'shape' attribute (not a mesh/torus?)")
    ndim = len(shape)
    dims = list(order) if order is not None else list(range(ndim))
    if sorted(dims) != list(range(ndim)):
        raise RoutingError(f"order {dims} is not a permutation of dimensions")
    wrapped = set(net.attrs.get("wrap", ()))

    def coord_of(router):
        coord = net.node(router).attrs.get("coord")
        if coord is None:
            raise RoutingError(f"router {router!r} has no 'coord' attribute")
        return tuple(coord)

    coord_to_router = {coord_of(r): r for r in net.router_ids()}
    tables = RoutingTable(net)
    for dest in net.end_node_ids():
        dest_router = net.attached_router(dest)
        dest_coord = coord_of(dest_router)
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest][0]
        tables.set(dest_router, dest, ejection.src_port)
        for router in net.router_ids():
            if router == dest_router:
                continue
            coord = list(coord_of(router))
            dim = next(d for d in dims if coord[d] != dest_coord[d])
            size = shape[dim]
            if dim in wrapped:
                forward = (dest_coord[dim] - coord[dim]) % size
                backward = (coord[dim] - dest_coord[dim]) % size
                coord[dim] = (coord[dim] + (1 if forward <= backward else -1)) % size
            else:
                coord[dim] += 1 if dest_coord[dim] > coord[dim] else -1
            nxt = coord_to_router[tuple(coord)]
            links = net.links_between(router, nxt)
            if not links:
                raise RoutingError(f"no link {router!r} -> {nxt!r}")
            tables.set(router, dest, links[0].src_port)
    return tables


def loop_ecube_tables(net, high_first=False) -> RoutingTable:
    """Hypercube e-cube: flip the lowest (or highest) differing bit."""
    ndim = net.attrs.get("dimensions")
    if ndim is None:
        raise RoutingError("network has no 'dimensions' attribute (not a hypercube?)")
    addr_to_router = {}
    for router in net.router_ids():
        haddr = net.node(router).attrs.get("haddr")
        if haddr is None:
            raise RoutingError(f"router {router!r} has no 'haddr' attribute")
        addr_to_router[haddr] = router
    bit_order = range(ndim - 1, -1, -1) if high_first else range(ndim)
    tables = RoutingTable(net)
    for dest in net.end_node_ids():
        dest_router = net.attached_router(dest)
        dest_addr = net.node(dest_router).attrs["haddr"]
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest][0]
        tables.set(dest_router, dest, ejection.src_port)
        for router in net.router_ids():
            if router == dest_router:
                continue
            addr = net.node(router).attrs["haddr"]
            bit = next(b for b in bit_order if (addr ^ dest_addr) >> b & 1)
            neighbor = addr_to_router[addr ^ (1 << bit)]
            tables.set(router, dest, net.links_between(router, neighbor)[0].src_port)
    return tables


def _hyperx_coords(net):
    coords = {}
    for rid in net.router_ids():
        coord = net.node(rid).attrs.get("coord")
        if coord is None:
            raise RoutingError(f"router {rid!r} has no coord attribute (not a hyperx?)")
        coords[rid] = tuple(coord)
    return coords


def _jump(here, target):
    dim = next(i for i, (a, b) in enumerate(zip(here, target)) if a != b)
    step = list(here)
    step[dim] = target[dim]
    return tuple(step)


def loop_hyperx_dor_tables(net) -> RoutingTable:
    """HyperX DOR: jump straight to the target coordinate, lowest dim first."""
    coords = _hyperx_coords(net)
    at = {coord: rid for rid, coord in coords.items()}
    tables = RoutingTable(net)
    for dest in net.end_node_ids():
        dest_router = net.attached_router(dest)
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest][0]
        tables.set(dest_router, dest, ejection.src_port)
        for router, here in coords.items():
            if router != dest_router:
                nxt = at[_jump(here, coords[dest_router])]
                tables.set(router, dest, net.links_between(router, nxt)[0].src_port)
    return tables


def loop_valiant_routes(net, seed):
    """Valiant routes (links and nodes per pair) with a coordinate walk."""
    coords = _hyperx_coords(net)
    at = {coord: rid for rid, coord in coords.items()}
    routers = sorted(coords)

    def walk(current, target):
        links, hops = [], []
        while current != target:
            nxt = at[_jump(coords[current], coords[target])]
            links.append(net.links_between(current, nxt)[0].link_id)
            hops.append(nxt)
            current = nxt
        return links, hops

    ends = net.end_node_ids()
    out = []
    for src in ends:
        for dst in ends:
            if src == dst:
                continue
            rs, rd = net.attached_router(src), net.attached_router(dst)
            injection = [l for l in net.out_links(src) if l.dst == rs][0]
            ejection = [l for l in net.out_links(rd) if l.dst == dst][0]
            rng = random.Random(f"{seed}:{src}:{dst}")
            candidates = [r for r in routers if r not in (rs, rd)]
            mid = rng.choice(candidates) if candidates else rs
            links1, hops1 = walk(rs, mid)
            links2, hops2 = walk(mid, rd)
            links = (injection.link_id, *links1, *links2, ejection.link_id)
            out.append((links, (src, rs, *hops1, *hops2, dst), 1 + len(links1)))
    return out


def outcome(build, net, **kwargs):
    """The port matrix a build compiles, or the text of its RoutingError."""
    try:
        return build(net, **kwargs).ports
    except RoutingError as err:
        return str(err)


def assert_identical(build, oracle, net, **kwargs):
    got = outcome(build, net, **kwargs)
    want = outcome(oracle, net, **kwargs)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert (want >= 0).all()


BUILDS = {
    "dimension_order": (dimension_order_tables, loop_dimension_order_tables),
    "ecube": (ecube_tables, loop_ecube_tables),
    "hyperx": (hyperx_dor_tables, loop_hyperx_dor_tables),
}

FABRICS = {
    "dimension_order": lambda: mesh((3, 3)),
    "ecube": lambda: hypercube(3),
    "hyperx": lambda: hyperx((3, 3)),
}

REGISTRY = {
    "mesh": "dimension_order",
    "torus": "dimension_order",
    "ring": "dimension_order",
    "hypercube": "ecube",
    "hyperx": "hyperx",
}


class TestOracleIdentity:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registered_topologies(self, name):
        assert_identical(*BUILDS[REGISTRY[name]], build_topology(name, **PARAMS[name]))

    @pytest.mark.parametrize(
        "shape", [(6, 6), (8, 8), (23, 23), (3, 4, 2), (2, 5), (4, 3)]
    )
    def test_meshes(self, shape):
        assert_identical(*BUILDS["dimension_order"], mesh(shape, router_radix=8))

    @pytest.mark.parametrize("order", list(permutations(range(2))))
    def test_every_2d_order(self, order):
        assert_identical(*BUILDS["dimension_order"], mesh((4, 3)), order=order)

    @pytest.mark.parametrize("order", list(permutations(range(3))))
    def test_every_3d_order(self, order):
        net = mesh((3, 4, 2), router_radix=8)
        assert_identical(*BUILDS["dimension_order"], net, order=order)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (5, 3), (2, 4), (4, 2), (2, 2), (2, 3, 2)])
    def test_tori(self, shape):
        # width-2 dimensions have no wrap cable: both ways lead to the one neighbour
        net = torus(shape, router_radix=8)
        assert_identical(*BUILDS["dimension_order"], net)
        assert_identical(*BUILDS["dimension_order"], net, order=tuple(range(len(shape)))[::-1])

    def test_partly_wrapped_mesh(self):
        net = mesh((5, 4), wrap=(1,))
        assert_identical(*BUILDS["dimension_order"], net, order=(1, 0))

    @pytest.mark.parametrize("num_routers", [3, 6, 7])
    def test_rings(self, num_routers):
        assert_identical(*BUILDS["dimension_order"], ring(num_routers))

    @pytest.mark.parametrize("dimensions", [1, 2, 3, 5])
    @pytest.mark.parametrize("high_first", [False, True])
    def test_hypercubes(self, dimensions, high_first):
        net = hypercube(dimensions, nodes_per_router=2, router_radix=8)
        assert_identical(*BUILDS["ecube"], net, high_first=high_first)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4, 4), (2, 5), (3, 4)])
    def test_hyperx(self, shape):
        assert_identical(*BUILDS["hyperx"], hyperx(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 2)])
    def test_valiant_routes(self, shape):
        net = hyperx(shape)
        routes, vc_assign = hyperx_valiant_routes(net, seed=7)
        want = loop_valiant_routes(net, seed=7)
        assert len(routes) == len(want)
        for route, (links, nodes, phase1) in zip(routes, want):
            assert route.links == links
            assert route.nodes == nodes
            assert vc_assign(route) == [0] * phase1 + [1] * (len(links) - phase1)

    def test_one_byte_ports(self):
        assert dimension_order_tables(mesh((3, 3))).ports.dtype == np.int8

    def test_exports(self):
        assert exported_dor is dimension_order_tables
        assert exported_ecube is ecube_tables is repro.ecube_tables


class TestErrors:
    def test_no_shape(self):
        net = hypercube(2)
        assert_identical(*BUILDS["dimension_order"], net)
        with pytest.raises(RoutingError, match="no 'shape' attribute"):
            dimension_order_tables(net)

    def test_no_dimensions(self):
        net = mesh((3, 3))
        assert_identical(*BUILDS["ecube"], net)
        with pytest.raises(RoutingError, match="no 'dimensions' attribute"):
            ecube_tables(net)

    @pytest.mark.parametrize("order", [(0, 0), (0,), (0, 1, 2), (1, 2)])
    def test_order_not_a_permutation(self, order):
        net = mesh((3, 3))
        assert_identical(*BUILDS["dimension_order"], net, order=order)
        with pytest.raises(RoutingError, match="not a permutation"):
            dimension_order_tables(net, order=order)

    @pytest.mark.parametrize("name", ["dimension_order", "hyperx"])
    @pytest.mark.parametrize("victim", [0, 4])
    def test_no_coord(self, name, victim):
        net = FABRICS[name]()
        del net.node(net.router_ids()[victim]).attrs["coord"]
        assert_identical(*BUILDS[name], net)
        with pytest.raises(RoutingError, match="no 'coord' attribute|no coord attribute"):
            BUILDS[name][0](net)

    @pytest.mark.parametrize("victim", [0, 5])
    def test_no_haddr(self, victim):
        net = hypercube(3)
        del net.node(net.router_ids()[victim]).attrs["haddr"]
        assert_identical(*BUILDS["ecube"], net)
        with pytest.raises(RoutingError, match="no 'haddr' attribute"):
            ecube_tables(net)

    def test_wrap_parameter_is_gone(self):
        # wrapped dimensions come from net.attrs["wrap"] only
        with pytest.raises(TypeError):
            dimension_order_tables(torus((4, 4)), wrap=())

    def test_shared_coordinate(self):
        net = mesh((2, 2))
        net.node("R1,1").attrs["coord"] = (0, 0)
        with pytest.raises(RoutingError, match=r"^routers 'R0,0' and 'R1,1' share a coordinate$"):
            dimension_order_tables(net)


def _cut(net, a, b):
    net.disconnect(net.links_between(a, b)[0].link_id)
    return net


def _remove(net, router):
    for end in net.attached_end_nodes(router):
        net.remove_node(end)
    net.remove_node(router)
    return net


class TestBrokenFabrics:
    """Where a route cannot be decided, every wrapper names the first
    failing (destination end, router) in a RoutingError."""

    def test_mesh_cut_cable_keeps_its_text(self):
        net = _cut(mesh((3, 3)), "R0,0", "R1,0")
        assert_identical(*BUILDS["dimension_order"], net)
        with pytest.raises(RoutingError, match=r"^no link 'R1,0' -> 'R0,0'$"):
            dimension_order_tables(net)

    def test_torus_cut_wrap_cable(self):
        net = _cut(torus((4, 4)), "R3,0", "R0,0")
        assert_identical(*BUILDS["dimension_order"], net)
        with pytest.raises(RoutingError, match=r"^no link 'R3,0' -> 'R0,0'$"):
            dimension_order_tables(net, order=(1, 0))

    def test_ecube_cut_cable(self):
        net = hypercube(3)
        a, b = net.router_ids()[:2]
        _cut(net, a, b)
        with pytest.raises(RoutingError, match=rf"^no link '{b}' -> '{a}'$"):
            ecube_tables(net)

    def test_hyperx_cut_cable(self):
        net = _cut(hyperx((3, 3)), "R0,0", "R2,0")
        with pytest.raises(RoutingError, match=r"^no link 'R2,0' -> 'R0,0'$"):
            hyperx_dor_tables(net)

    def test_valiant_cut_cable(self):
        net = _cut(hyperx((3, 3)), "R0,0", "R2,0")
        with pytest.raises(RoutingError, match=r"^no link '\S+' -> '\S+'$"):
            hyperx_valiant_routes(net, seed=7)

    def test_mesh_removed_router(self):
        net = _remove(mesh((3, 3)), "R1,0")
        with pytest.raises(
            RoutingError, match=r"^no router at \(1, 0\) on the route from 'R2,0' to 'n0'$"
        ):
            dimension_order_tables(net)

    def test_torus_removed_edge_router(self):
        # from 2 to 0 on a ring of 4 the tie goes +1, onto the removed router
        net = _remove(torus((4, 4)), "R3,0")
        with pytest.raises(
            RoutingError, match=r"^no router at \(3, 0\) on the route from 'R2,0' to 'n0'$"
        ):
            dimension_order_tables(net)

    def test_ecube_removed_router(self):
        net = hypercube(3, nodes_per_router=1)
        _remove(net, net.router_ids()[1])
        with pytest.raises(
            RoutingError,
            match=rf"^no router at \(1, 0, 0\) on the route from '{net.router_ids()[0]}' to ",
        ):
            ecube_tables(net)

    def test_hyperx_removed_router(self):
        net = _remove(hyperx((3, 3)), "R1,0")
        with pytest.raises(
            RoutingError, match=r"^no router at \(1, 0\) on the route from 'R0,0' to 'n8'$"
        ):
            hyperx_dor_tables(net)

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_detached_end(self, name):
        net = FABRICS[name]()
        end = net.end_node_ids()[3]
        net.disconnect(net.out_links(end)[0].link_id)
        with pytest.raises(NetworkError, match=rf"end node '{end}' attaches to 0 routers"):
            BUILDS[name][0](net)


class TestEjections:
    def test_lowest_port_link_per_end(self):
        net = mesh((3, 3))
        ej = ejections(net)
        link_ids = net.indices().link_ids
        for e, end in enumerate(net.end_node_ids()):
            router = net.attached_router(end)
            want = [l for l in net.out_links(router) if l.dst == end][0]
            assert net.indices().router_ids[ej.router[e]] == router
            assert (ej.port[e], link_ids[ej.link[e]]) == (want.src_port, want.link_id)
            assert ej.require(net, end) == (e, ej.router[e], want.src_port, ej.link[e])

    @pytest.mark.parametrize("routers", [0, 2])
    def test_end_not_on_one_router_raises_attached_router_text(self, routers):
        net = Network()
        net.add_router("A", 4)
        net.add_router("B", 4)
        net.add_end_node("n0", num_ports=2)
        net.add_end_node("n1")
        net.connect_next_free("n1", "A")
        if routers:
            net.connect_next_free("n0", "A")
            net.connect_next_free("n0", "B")
        ej = ejections(net)
        assert ej.link[0] == -1 and ej.link[1] >= 0
        with pytest.raises(NetworkError) as got:
            ej.require(net, "n0")
        with pytest.raises(NetworkError) as want:
            net.attached_router("n0")
        assert str(got.value) == str(want.value)
        assert f"attaches to {routers} routers" in str(got.value)

    @pytest.mark.parametrize(
        "bad, text", [("R1,1", "'R1,1' is not an end node"), ("nope", "unknown node 'nope'")]
    )
    def test_require_checks_the_id_first(self, bad, text):
        net = mesh((3, 3))
        ej = ejections(net)
        e = net.indices().end_index["n4"]
        assert ej.require(net, "n4") == (e, ej.router[e], ej.port[e], ej.link[e])
        with pytest.raises(NetworkError, match=rf"^{text}$"):
            ej.require(net, bad)

    @pytest.mark.parametrize(
        "pair, text",
        [
            (("R0,0", "n1"), "'R0,0' is not an end node"),
            (("n0", "R1,0"), "'R1,0' is not an end node"),
            (("n0", "nope"), "unknown node 'nope'"),
        ],
    )
    def test_valiant_rejects_a_non_end_in_pairs(self, pair, text):
        with pytest.raises(NetworkError, match=rf"^{text}$"):
            hyperx_valiant_routes(hyperx((3, 3)), pairs=[("n0", "n4"), pair])


def test_23x23_build_makes_no_per_pair_python_pass(monkeypatch):
    """A per-(router, destination) Python pass would call links_between or
    out_links about once per pair; the array build stays under 1 %."""
    net = mesh((23, 23))
    calls = Counter()
    for name in ("links_between", "out_links"):
        method = getattr(Network, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Network, name, counted)
    tables = dimension_order_tables(net, order=(1, 0))
    limit = net.num_routers * net.num_end_nodes // 100
    assert (tables.ports >= 0).all()
    for name, count in calls.items():
        assert count < limit, f"Network.{name} called {count} times (limit {limit})"
    net.links_between("R0,0", "R0,1")  # the counters see a call
    assert calls["links_between"] >= 1
