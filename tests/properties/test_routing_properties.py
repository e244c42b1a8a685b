"""Property-based tests: routing invariants over randomized topologies.

Hypothesis drives topology shape parameters and node choices; the
invariants are the ones every deterministic table-driven routing must
satisfy: delivery, simple paths, port-budget respect, and agreement
between routes and tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import decode_address
from repro.core.fractahedron import FractaParams, fractahedron
from repro.core.routing import fractahedral_tables
from repro.routing.base import compute_route
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.dimension_order import ecube_tables
from repro.routing.shortest_path import shortest_path_tables
from repro.topology.fattree import fat_tree, fat_tree_tables
from repro.topology.hypercube import hypercube
from repro.topology.mesh import mesh
from repro.topology.ring import ring


@st.composite
def mesh_and_pair(draw):
    cols = draw(st.integers(2, 5))
    rows = draw(st.integers(2, 5))
    net = mesh((cols, rows), nodes_per_router=1)
    ends = net.end_node_ids()
    src = draw(st.sampled_from(ends))
    dst = draw(st.sampled_from([e for e in ends if e != src]))
    return net, src, dst


@given(mesh_and_pair(), st.permutations([0, 1]))
@settings(max_examples=60, deadline=None)
def test_dimension_order_routes_are_minimal_and_simple(case, order):
    net, src, dst = case
    tables = dimension_order_tables(net, order=order)
    route = compute_route(net, tables, src, dst)
    assert route.nodes[0] == src and route.nodes[-1] == dst
    assert len(set(route.nodes)) == len(route.nodes)
    a = net.node(net.attached_router(src)).attrs["coord"]
    b = net.node(net.attached_router(dst)).attrs["coord"]
    assert len(route.router_links) == abs(a[0] - b[0]) + abs(a[1] - b[1])


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_ecube_routes_cross_dimensions_in_order(ndim, data):
    net = hypercube(ndim, nodes_per_router=1)
    tables = ecube_tables(net)
    ends = net.end_node_ids()
    src = data.draw(st.sampled_from(ends))
    dst = data.draw(st.sampled_from([e for e in ends if e != src]))
    route = compute_route(net, tables, src, dst)
    dims = []
    for link_id in route.router_links:
        link = net.link(link_id)
        a = net.node(link.src).attrs["haddr"]
        b = net.node(link.dst).attrs["haddr"]
        dims.append((a ^ b).bit_length() - 1)
    assert dims == sorted(dims)
    assert len(dims) == len(set(dims))


@given(st.integers(3, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_ring_shortest_path_takes_short_way(n, data):
    net = ring(n, nodes_per_router=1)
    tables = shortest_path_tables(net)
    ends = net.end_node_ids()
    src = data.draw(st.sampled_from(ends))
    dst = data.draw(st.sampled_from([e for e in ends if e != src]))
    route = compute_route(net, tables, src, dst)
    i = int(src[1:])
    j = int(dst[1:])
    expected = min((j - i) % n, (i - j) % n)
    assert len(route.router_links) == expected


@st.composite
def fracta_case(draw):
    levels = draw(st.integers(1, 2))
    fat = draw(st.booleans())
    fanout = draw(st.sampled_from([None, 2]))
    params = FractaParams(levels, fat=fat, fanout_width=fanout)
    net = fractahedron(params)
    ends = net.end_node_ids()
    src = draw(st.sampled_from(ends))
    dst = draw(st.sampled_from([e for e in ends if e != src]))
    return params, net, src, dst


@given(fracta_case())
@settings(max_examples=50, deadline=None)
def test_fracta_routes_deliver_within_bound(case):
    from repro.core.analysis import fat_max_router_hops, thin_max_router_hops

    params, net, src, dst = case
    tables = fractahedral_tables(net)
    route = compute_route(net, tables, src, dst)
    assert route.nodes[-1] == dst
    assert len(set(route.nodes)) == len(route.nodes)
    bound = (
        fat_max_router_hops(params.levels)
        if params.fat
        else thin_max_router_hops(params.levels)
    )
    if params.fanout_width:
        bound += 2
    assert route.router_hops <= bound


@given(fracta_case())
@settings(max_examples=50, deadline=None)
def test_fracta_route_is_up_then_down(case):
    """§2.3: depth-first routing never re-ascends after descending."""
    params, net, src, dst = case
    tables = fractahedral_tables(net)
    route = compute_route(net, tables, src, dst)

    def level_of(node_id: str) -> int:
        attrs = net.node(node_id).attrs
        if not net.node(node_id).is_router:
            return -1  # end node
        if attrs.get("fanout"):
            return 0
        return attrs["level"]

    levels = [level_of(n) for n in route.nodes]
    peak = levels.index(max(levels))
    assert levels[: peak + 1] == sorted(levels[: peak + 1])
    assert levels[peak:] == sorted(levels[peak:], reverse=True)


@given(st.integers(0, 63))
@settings(max_examples=64, deadline=None)
def test_fracta_table_agrees_with_address_fields(value):
    """The table-driven route ends at the router the address fields name."""
    net = fractahedron(FractaParams(2, fat=True))
    tables = fractahedral_tables(net)
    addr = decode_address(value, levels=2)
    src = "n0" if value != 0 else "n1"
    route = compute_route(net, tables, src, f"n{value}")
    final_router = route.nodes[-2]
    attrs = net.node(final_router).attrs
    assert attrs["group"] == addr.tetra_index
    assert attrs["corner"] == addr.corner


@st.composite
def fat_tree_case(draw):
    height = draw(st.integers(1, 3))
    down, up = draw(st.sampled_from([(4, 2), (3, 3), (2, 2), (3, 2)]))
    capacity = down**height
    num_nodes = draw(st.integers(max(1, capacity // 2), capacity))
    net = fat_tree(height, down=down, up=up, num_nodes=num_nodes)
    ends = net.end_node_ids()
    src = draw(st.sampled_from(ends))
    dst = draw(st.sampled_from([e for e in ends if e != src] or [src]))
    return net, src, dst


@given(fat_tree_case())
@settings(max_examples=50, deadline=None)
def test_fat_tree_routes_deliver_simple(case):
    net, src, dst = case
    if src == dst:
        return
    tables = fat_tree_tables(net)
    route = compute_route(net, tables, src, dst)
    assert route.nodes[-1] == dst
    assert len(set(route.nodes)) == len(route.nodes)
    # up-then-down: levels rise to a peak then fall
    levels = [
        net.node(n).attrs["level"] if net.node(n).is_router else 0
        for n in route.nodes
    ]
    peak = levels.index(max(levels))
    assert levels[: peak + 1] == sorted(levels[: peak + 1])
    assert levels[peak:] == sorted(levels[peak:], reverse=True)
