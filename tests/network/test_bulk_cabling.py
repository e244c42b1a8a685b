"""``Network.add_nodes`` / ``connect_many`` against one call per row.

Hypothesis inserts random node and cable batches into two networks: one
through the bulk path, one row at a time through ``add_router`` /
``add_end_node`` / ``connect`` / ``connect_next_free``.  Batches include
bad rows (unknown node, self-link, port out of range, port in use, a
port or an id repeated within the batch, no free port left); the bulk
path must then raise the same first error and leave the same network
behind.  The per-call fractahedron builder below is the oracle for the
bulk one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fractahedron import fat_fractahedron
from repro.core.generalized import (
    GeneralFractaParams,
    general_fanout_id,
    general_fractahedron,
    general_router_id,
)
from repro.network.builder import NetworkBuilder
from repro.network.graph import (
    Link,
    Network,
    NetworkError,
    Node,
    NodeKind,
)
from repro.network.serialize import network_from_dict, network_to_dict
from repro.routing.cache import network_fingerprint

POOL = ("R0", "R1", "R2", "R,3", "n0", "n1", "n:2")
EXTRA = ("X0", "X1")  # ids only some node batches add
TEMPLATES = [{}, {"dim": 0}, {"dim": 1, "wraparound": True}, {"kind": "up"}]

node_row = st.tuples(
    st.booleans(), st.integers(0, len(POOL) + len(EXTRA) - 1), st.integers(0, 4)
)
# b is another pool node, or for a second draw of 12 a itself (a
# self-link), for 13 an extra id
cable_row = st.tuples(
    st.integers(0, len(POOL) - 1),
    st.integers(0, 13),
    st.sampled_from([0, 0, 0, 1, 1, 2, 3, -1]),
    st.sampled_from([0, 0, 0, 1, 1, 2, 3, -1]),
    st.integers(0, len(TEMPLATES) - 1),
)
BATCHES = st.one_of(
    st.tuples(st.just("nodes"), st.lists(node_row, max_size=3)),
    st.tuples(st.just("free"), st.lists(cable_row, max_size=5)),
    st.tuples(st.just("ports"), st.lists(cable_row, max_size=5)),
    st.tuples(st.just("touch"), st.integers(0, 63), st.sampled_from(TEMPLATES)),
)
FIRST_NODES = st.lists(
    st.tuples(st.booleans(), st.integers(1, 6)), min_size=len(POOL), max_size=len(POOL)
)
IDS = POOL + EXTRA


def outcome(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except NetworkError as exc:
        return (type(exc), str(exc))
    return None


def add_nodes_one_by_one(net: Network, rows) -> None:
    for is_router, i, ports in rows:
        if is_router:
            net.add_router(IDS[i], ports, tier=i)
        else:
            net.add_end_node(IDS[i], ports)


def as_nodes(rows) -> list[Node]:
    return [
        Node(IDS[i], NodeKind.ROUTER, ports, {"tier": i})
        if is_router
        else Node(IDS[i], NodeKind.END_NODE, ports, {})
        for is_router, i, ports in rows
    ]


def ends(row) -> tuple[str, str]:
    a, k = row[0], row[1]
    if k >= 12:
        return POOL[a], POOL[a] if k == 12 else EXTRA[0]
    return POOL[a], POOL[(a + 1 + k % (len(POOL) - 1)) % len(POOL)]


def connect_one_by_one(net: Network, rows, free: bool) -> None:
    for row in rows:
        a, b = ends(row)
        if free:
            net.connect_next_free(a, b, **TEMPLATES[row[4]])
        else:
            net.connect(a, row[2], b, row[3], **TEMPLATES[row[4]])


def connect_in_bulk(net: Network, rows, free: bool) -> None:
    a, b = zip(*map(ends, rows)) if rows else ((), ())
    ports = None if free else ([r[2] for r in rows], [r[3] for r in rows])
    net.connect_many(a, b, ports, attrs=TEMPLATES, attrs_of=[r[4] for r in rows])


def touch(net: Network, pick: int, attrs: dict):
    """Edit one direction's attrs through its Link; returns its id."""
    ids = net.link_ids()
    if not ids:
        return None
    link = net.link(ids[pick % len(ids)])
    link.attrs.update(attrs, touched=pick)
    return link.link_id


def state(net: Network) -> dict:
    """Everything the two insertion paths must agree on."""
    arr = net.link_arrays()
    got = {
        "link_ids": net.link_ids(),
        "indices": net.indices(),
        "link_arrays": {
            k: (v.tolist(), v.dtype.str) if isinstance(v, np.ndarray) else v
            for k, v in vars(arr).items()
        },
        "link_attrs": net.link_attrs(),
        "nodes": [(n.node_id, n.kind, n.num_ports, n.attrs) for n in net.nodes()],
        "columns": [
            bytes(c) for c in (net._port_link, net._port_base, net._cables, net._live)
        ],
        "fingerprint": network_fingerprint(net),
    }
    for nid in IDS:
        got[nid] = (
            outcome(net.next_free_port, nid) or net.next_free_port(nid),
            net.used_ports(nid) if nid in net else None,
        )
    return got


@settings(max_examples=120, deadline=None)
@given(FIRST_NODES, st.lists(BATCHES, max_size=12))
def test_bulk_path_matches_one_call_per_row(first, batches):
    bulk, single = Network(), Network()
    start = [(is_router, i, ports) for i, (is_router, ports) in enumerate(first)]
    for batch in [("nodes", start)] + batches:
        kind = batch[0]
        if kind == "nodes":
            want = outcome(add_nodes_one_by_one, single, batch[1])
            assert outcome(bulk.add_nodes, as_nodes(batch[1])) == want, batch
        elif kind == "touch":
            edited = touch(single, batch[1], batch[2])
            before = {lid: dict(l.attrs) for lid, l in zip(bulk.link_ids(), bulk.links())}
            assert touch(bulk, batch[1], batch[2]) == edited
            for link in bulk.links():  # only the edited direction changed
                if link.link_id != edited:
                    assert link.attrs == before[link.link_id]
        else:
            free = kind == "free"
            want = outcome(connect_one_by_one, single, batch[1], free)
            assert outcome(connect_in_bulk, bulk, batch[1], free) == want, batch
        assert state(bulk) == state(single)
    assert [(l.link_id, l.attrs) for l in bulk.links()] == [
        (l.link_id, l.attrs) for l in single.links()
    ]
    assert bulk.version == single.version


def three_routers() -> Network:
    net = Network()
    for r in ("A", "B", "C"):
        net.add_router(r, 3)
    net.connect("A", 1, "B", 1)
    return net


@pytest.mark.parametrize(
    "a, b, ports, error",
    [
        (["A", "Z"], ["B", "C"], None, "unknown node 'Z'"),
        (["A", "B"], ["B", "B"], None, "self-link on 'B' is not allowed"),
        (["A", "A", "A"], ["B", "C", "B"], None, "no free ports on 'A'"),
        (["A", "A"], ["B", "C"], ([0, 3], [0, 0]), "port 3 out of range for 'A' (3 ports)"),
        (["C"], ["A"], ([0], [1]), "port 1 of 'A' already cabled"),
        (["A", "B"], ["C", "C"], ([0, 0], [1, 1]), "port 1 of 'C' already cabled"),
    ],
    ids=["unknown", "self-link", "exhausted", "out-of-range", "in-use", "twice-in-batch"],
)
def test_bad_row_raises_after_the_rows_before_it(a, b, ports, error):
    bulk, single = three_routers(), three_routers()
    with pytest.raises(NetworkError) as got:
        bulk.connect_many(a, b, ports)
    with pytest.raises(type(got.value)) as want:
        for i in range(len(a)):
            if ports is None:
                single.connect_next_free(a[i], b[i])
            else:
                single.connect(a[i], ports[0][i], b[i], ports[1][i])
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == error
    assert state(bulk) == state(single)


def test_next_free_takes_each_nodes_kth_free_port():
    bulk, single = Network(), Network()
    for net in (bulk, single):
        net.add_nodes([Node(r, NodeKind.ROUTER, 5) for r in "ABCD"])
        net.connect("A", 0, "B", 3)
        net.connect("A", 2, "C", 0)
        net.connect("D", 1, "B", 0)
    rows = [("A", "B"), ("C", "A"), ("B", "D"), ("A", "D"), ("D", "C")]
    bulk.connect_many(*zip(*rows))
    for a, b in rows:
        single.connect_next_free(a, b)
    assert bulk.link_ids()[6:8] == ["A:1->B:1", "B:1->A:1"]
    assert state(bulk) == state(single)


def test_bad_node_rows_raise_after_the_rows_before_it():
    for nodes, error in (
        ([Node("A", NodeKind.ROUTER, 2), Node("A", NodeKind.ROUTER, 3)], "duplicate node id 'A'"),
        ([Node("A", NodeKind.ROUTER, 2), Node("B", NodeKind.END_NODE, 0)],
         "node 'B' must have at least one port"),
    ):
        net = Network()
        with pytest.raises(NetworkError) as got:
            net.add_nodes(nodes)
        assert str(got.value) == error
        assert net.node_ids() == ["A"] and net.version == 1


def test_a_bulk_cable_directions_own_their_attrs():
    net = Network()
    net.add_nodes([Node(r, NodeKind.ROUTER, 4) for r in "ABC"])
    template = {"kind": "intra"}
    net.connect_many(["A", "A", "B"], ["B", "C", "C"], attrs=[template])
    # the template is shared until a direction's Link is made
    assert all(d is template for d in net.link_attrs())
    fwd, rev = net.link("A:0->B:0"), net.link("B:0->A:0")
    fwd.attrs["kind"] = "edited"
    assert rev.attrs == {"kind": "intra"} and template == {"kind": "intra"}
    assert [l.attrs for l in net.links() if l is not fwd] == [{"kind": "intra"}] * 5
    assert network_to_dict(net)["cables"][1]["attrs"] == {"kind": "intra"}


def test_bulk_cables_keep_the_link_view_in_step():
    net = Network()
    net.add_nodes([Node(r, NodeKind.ROUTER, 4) for r in "ABC"])
    net.connect("A", 3, "B", 3)
    assert len(net.out_links("A")) == 1  # the Link view now exists
    net.connect_many(["A", "B"], ["C", "C"], attrs=[{"dim": 1}])
    assert [l.link_id for l in net.out_links("C")] == ["C:0->A:0", "C:1->B:0"]
    assert net.link("C:1->B:0").attrs == {"dim": 1}


# ----------------------------------------------------------------------
# the per-call fractahedron builder as the oracle of the bulk one
# ----------------------------------------------------------------------


def per_call_fractahedron(params: GeneralFractaParams) -> Network:
    """``general_fractahedron`` as it cabled one call at a time."""
    m = params.assembly_size
    d = params.down_ports
    cpg = params.children_per_group
    kind = ("fat" if params.fat else "thin") + "_fractahedron"
    name = f"{kind}-N{params.levels}"
    if m != 4 or params.router_radix != 6:
        kind = "general_" + kind
        name = f"{kind}-N{params.levels}-M{m}-R{params.router_radix}"
    b = NetworkBuilder(name, params.router_radix)
    net = b.net
    net.attrs["topology"] = kind
    net.attrs["levels"] = params.levels
    net.attrs["fat"] = params.fat
    net.attrs["fanout_width"] = params.fanout_width
    net.attrs["assembly_size"] = m
    net.attrs["down_ports"] = d
    for level in range(1, params.levels + 1):
        for group in range(params.groups_at(level)):
            for layer in range(params.layers_at(level)):
                for corner in range(m):
                    b.router(
                        general_router_id(level, group, layer, corner),
                        level=level,
                        group=group,
                        layer=layer,
                        corner=corner,
                    )
    node_index = 0
    for tetra in range(params.num_leaf_groups):
        for corner in range(m):
            rid = general_router_id(1, tetra, 0, corner)
            for port in range(d):
                if params.fanout_width:
                    fo = b.router(
                        general_fanout_id(tetra, corner, port),
                        fanout=True,
                        tetra=tetra,
                        corner=corner,
                        port=port,
                    )
                    b.cable(fo, rid, kind="fanout_up")
                    for _ in range(params.fanout_width):
                        nid = b.end_node(f"n{node_index}", address=node_index)
                        b.cable(nid, fo)
                        node_index += 1
                else:
                    nid = b.end_node(f"n{node_index}", address=node_index)
                    b.cable(nid, rid)
                    node_index += 1
    for level in range(1, params.levels + 1):
        for group in range(params.groups_at(level)):
            for layer in range(params.layers_at(level)):
                b.fully_connect(
                    [general_router_id(level, group, layer, c) for c in range(m)],
                    kind="intra",
                )
    for level in range(1, params.levels):
        for group in range(params.groups_at(level)):
            parent_group, position = divmod(group, cpg)
            parent_corner, parent_port = divmod(position, d)
            for layer in range(params.layers_at(level)):
                for corner in range(m):
                    if not params.fat and corner != 0:
                        continue
                    parent_layer = layer * m + corner if params.fat else 0
                    b.cable(
                        general_router_id(level, group, layer, corner),
                        general_router_id(level + 1, parent_group, parent_layer, parent_corner),
                        kind="interlevel",
                        child_group=group,
                        child_position=position,
                    )
    return net


SHAPES = [
    GeneralFractaParams(levels, fat=fat, fanout_width=width)
    for levels in (1, 2, 3, 4)
    for fat in (True, False)
    for width in (None, 1, 2)
] + [
    GeneralFractaParams(3, assembly_size=3, router_radix=5, fat=True, fanout_width=None),
    GeneralFractaParams(2, assembly_size=5, router_radix=8, fat=False, fanout_width=2),
]


@pytest.mark.parametrize("params", SHAPES, ids=repr)
def test_bulk_fractahedron_matches_the_per_call_build(params):
    got, want = general_fractahedron(params), per_call_fractahedron(params)
    assert network_fingerprint(got) == network_fingerprint(want)
    assert got.version == want.version
    if params.levels <= 2:
        assert state(got) == state(want)
        assert [(l.link_id, l.attrs) for l in got.links()] == [
            (l.link_id, l.attrs) for l in want.links()
        ]


def test_depth4_build_makes_one_insert_call_per_kind(monkeypatch):
    calls = {"connect": 0, "_add_node": 0}
    for name in calls:
        method = getattr(Network, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Network, name, counted)
    net = fat_fractahedron(4, fanout_width=2)
    assert calls == {"connect": 0, "_add_node": 0}
    assert net.num_links == 43_264


# ----------------------------------------------------------------------
# disconnect without the Link view
# ----------------------------------------------------------------------


def test_first_cut_builds_no_link_and_leaves_the_never_cabled_network(monkeypatch):
    made = []
    init = Link.__init__

    def counted(self, *args, **kwargs):
        made.append(args[0])
        init(self, *args, **kwargs)

    net = fat_fractahedron(3, fanout_width=2)
    doc = network_to_dict(fat_fractahedron(3, fanout_width=2))
    cut = net.link_ids()[2 * 1500 + 1]  # one cable's b -> a direction
    monkeypatch.setattr(Link, "__init__", counted)
    net.disconnect(cut)
    assert made == [] and net._view is None
    monkeypatch.undo()
    a, a_port = cut.split("->")[1].rsplit(":", 1)
    doc["cables"] = [
        c for c in doc["cables"] if (c["a"], c["a_port"]) != (a, int(a_port))
    ]
    never = network_from_dict(doc)
    assert net.link_ids() == never.link_ids()
    got, want = net.link_arrays(), never.link_arrays()
    for field, value in vars(want).items():
        if field != "version":
            assert np.array_equal(getattr(got, field), value), field
    assert network_fingerprint(net) == network_fingerprint(never)


@pytest.mark.parametrize(
    "link_id",
    ["A:0->B:1", "A:1->B:0", "A:00->B:0", "A->B", "A:0", "", "Z:0->A:0", "A:x->B:0", "A:9->B:0"],
)
def test_disconnect_unknown_or_malformed_ids(link_id):
    net = Network()
    net.add_router("A", 2)
    net.add_router("B", 2)
    net.connect("A", 0, "B", 0)
    with pytest.raises(NetworkError) as got:
        net.disconnect(link_id)
    assert str(got.value) == f"unknown link {link_id!r}"
    assert net.num_links == 2


def test_disconnect_with_separators_inside_node_ids():
    net = Network()
    for r in ("a->b:1", "c:2->d", "e"):
        net.add_router(r, 3)
    net.connect("a->b:1", 2, "c:2->d", 0)
    net.connect("c:2->d", 1, "e", 2)
    net.disconnect("c:2->d:0->a->b:1:2")
    assert net.link_ids() == ["c:2->d:1->e:2", "e:2->c:2->d:1"]
    net.disconnect("e:2->c:2->d:1")
    assert net.num_links == 0 and net._view is None
