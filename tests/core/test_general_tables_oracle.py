"""Class-wise ``general_tables`` against the per-router oracle.

``general_tables`` writes the port matrix in blocks, one router class at
a time: each level, then the fan-out routers, each with one broadcast
"up" fill and then its groups' contiguous address blocks.  The oracle
below is the construction it replaced, which fills one row per router.  The two must agree byte for
byte on the port matrix, and raise the same ``RoutingError`` when a cable
or router the routes need is missing.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.generalized import (
    GeneralFractaParams,
    general_fanout_id,
    general_fractahedron,
    general_router_id,
    general_tables,
)
from repro.network.serialize import network_from_dict, network_to_dict
from repro.routing.base import RoutingError, RoutingTable


def oracle_general_tables(net):
    """Per-router fill: one port-matrix row per router (the reference construction)."""
    levels = net.attrs.get("levels")
    fat = net.attrs.get("fat")
    m = net.attrs.get("assembly_size")
    d = net.attrs.get("down_ports")
    fanout = net.attrs.get("fanout_width")
    if levels is None or m is None:
        raise RoutingError("network lacks generalized-fractahedron attributes")
    cpg = m * d

    idx = net.indices()
    E = len(idx.end_ids)
    addr = np.fromiter(
        (net.node(e).attrs["address"] for e in idx.end_ids), dtype=np.int64, count=E
    )
    # decode every destination address at once
    a2 = addr // fanout if fanout else addr
    value, dest_port = np.divmod(a2, d)
    dest_tetra, dest_corner = np.divmod(value, m)

    table = RoutingTable(net)
    ports_mat = table.ports
    end_ids = idx.end_ids

    def neighbor_ports(rid: str) -> dict[str, int]:
        """Lowest output port toward each neighbor (one port scan total)."""
        out: dict[str, int] = {}
        for link in net.out_links(rid):
            out.setdefault(link.dst, link.src_port)
        return out

    def port_toward(rid: str, nbr: dict[str, int], target: str) -> int:
        port = nbr.get(target)
        if port is None:
            raise RoutingError(f"no link {rid!r} -> {target!r}")
        return port

    for router in net.routers():
        rid = router.node_id
        attrs = router.attrs
        nbr = neighbor_ports(rid)
        row = ports_mat[idx.router_index[rid]]

        if attrs.get("fanout"):
            tetra, corner, port = attrs["tetra"], attrs["corner"], attrs["port"]
            mine = (dest_tetra == tetra) & (dest_corner == corner) & (dest_port == port)
            others = ~mine
            if others.any():
                up = general_router_id(1, tetra, 0, corner)
                row[others] = port_toward(rid, nbr, up)
            for e in np.flatnonzero(mine):
                row[e] = port_toward(rid, nbr, end_ids[e])
            continue

        level = attrs["level"]
        group = attrs["group"]
        layer = attrs["layer"]
        corner = attrs["corner"]
        in_group = (dest_tetra // (cpg ** (level - 1))) == group

        outside = ~in_group
        if outside.any():
            # Ascend: the local inter-level link (thin: via corner 0).
            if not fat and corner != 0:
                target = general_router_id(level, group, layer, 0)
            else:
                parent_group, position = divmod(group, cpg)
                parent_corner = position // d
                parent_layer = layer * m + corner if fat else 0
                target = general_router_id(
                    level + 1, parent_group, parent_layer, parent_corner
                )
            row[outside] = port_toward(rid, nbr, target)

        ig = np.flatnonzero(in_group)
        if not ig.size:
            continue
        if level == 1:
            dc = dest_corner[ig]
            lateral = dc != corner
            if lateral.any():
                lat = np.full(m, -1, dtype=np.int16)
                for c in np.unique(dc[lateral]).tolist():
                    lat[c] = port_toward(rid, nbr, general_router_id(1, group, 0, c))
                row[ig[lateral]] = lat[dc[lateral]]
            own = ig[~lateral]
            if fanout:
                fp = np.full(d, -1, dtype=np.int16)
                for p in np.unique(dest_port[own]).tolist():
                    fp[p] = port_toward(rid, nbr, general_fanout_id(group, corner, p))
                row[own] = fp[dest_port[own]]
            else:
                for e in own.tolist():
                    row[e] = port_toward(rid, nbr, end_ids[e])
        else:
            child = (dest_tetra[ig] // (cpg ** (level - 2))) % cpg
            owner = child // d
            lateral = owner != corner
            if lateral.any():
                lat = np.full(m, -1, dtype=np.int16)
                for c in np.unique(owner[lateral]).tolist():
                    lat[c] = port_toward(rid, nbr, general_router_id(level, group, layer, c))
                row[ig[lateral]] = lat[owner[lateral]]
            down = ~lateral
            if down.any():
                cp = np.full(cpg, -1, dtype=np.int16)
                for c in np.unique(child[down]).tolist():
                    child_router = general_router_id(
                        level - 1, group * cpg + c, layer // m, layer % m
                    )
                    cp[c] = port_toward(rid, nbr, child_router)
                row[ig[down]] = cp[child[down]]
    return table


#: (levels, assembly size, router radix, fat, fan-out width)
SHAPES = [
    (1, 4, 6, True, None),
    (1, 3, 6, True, 2),
    (2, 4, 6, True, None),
    (2, 4, 6, False, None),
    (2, 4, 6, True, 1),
    (2, 4, 6, False, 2),
    (2, 3, 6, True, 2),
    (2, 5, 6, False, None),
    (2, 4, 8, True, 3),
    (2, 2, 4, True, 2),
    (3, 4, 6, True, 2),
    (3, 4, 6, False, 2),
    (3, 3, 6, True, None),
    (3, 3, 5, False, 1),
]


def _outcome(build, net):
    """Port-matrix bytes, or the RoutingError text."""
    try:
        return build(net).ports.tobytes()
    except RoutingError as exc:
        return f"RoutingError: {exc}"


def _build(shape):
    levels, m, radix, fat, width = shape
    return general_fractahedron(
        GeneralFractaParams(levels, assembly_size=m, router_radix=radix, fat=fat, fanout_width=width)
    )


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_matches_per_router_oracle(shape):
    net = _build(shape)
    expected = _outcome(oracle_general_tables, net)
    assert isinstance(expected, bytes), expected
    assert _outcome(general_tables, net) == expected


@pytest.mark.parametrize("shape", [SHAPES[0], SHAPES[5], SHAPES[10]], ids=str)
def test_fresh_build_is_filled_in_place(shape):
    """A built network is in the canonical layout: the table's matrix is
    the one written, with no second matrix for a row or column gather."""
    net = _build(shape)
    net.link_arrays()
    tracemalloc.start()
    try:
        table = general_tables(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.ports.flags.owndata
    assert peak < 1.5 * table.ports.nbytes + 200_000


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_router_order_is_not_build_order(shape):
    """A rebuild with routers and end nodes both shuffled: the canonical
    fill goes through the row and column gather."""
    doc = network_to_dict(_build(shape))
    nodes = list(doc["nodes"])
    np.random.default_rng(len(nodes)).shuffle(nodes)
    doc["nodes"] = nodes
    net = network_from_dict(doc)
    expected = _outcome(oracle_general_tables, net)
    assert isinstance(expected, bytes), expected
    assert _outcome(general_tables, net) == expected


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_end_order_is_not_address_order(shape):
    """A rebuild with the end nodes in shuffled order routes by address."""
    doc = network_to_dict(_build(shape))
    nodes = doc["nodes"]
    ends = [n for n in nodes if n["kind"] == "end_node"]
    np.random.default_rng(len(ends)).shuffle(ends)
    doc["nodes"] = [n for n in nodes if n["kind"] == "router"] + ends
    net = network_from_dict(doc)
    assert net.end_node_ids() != sorted(net.end_node_ids(), key=lambda e: int(e[1:]))
    assert _outcome(general_tables, net) == _outcome(oracle_general_tables, net)


@pytest.mark.parametrize("shape", SHAPES[2:8] + SHAPES[10:12], ids=str)
@pytest.mark.parametrize("kind", ["intra", "interlevel", "fanout_up", None])
def test_missing_cable_raises_oracle_error(shape, kind):
    net = _build(shape)
    cables = [
        l for l in net.links() if l.attrs.get("kind") == kind and net.node(l.src).is_router
    ] if kind else [l for l in net.links() if net.node(l.src).is_end_node]
    if not cables:
        pytest.skip(f"no {kind} cables in this shape")
    for pick in (0, len(cables) // 2, len(cables) - 1):
        broken = network_from_dict(network_to_dict(net))
        broken.disconnect(cables[pick].link_id)
        expected = _outcome(oracle_general_tables, broken)
        assert expected.startswith("RoutingError: no link")
        assert _outcome(general_tables, broken) == expected


@pytest.mark.parametrize("shape", [SHAPES[2], SHAPES[5], SHAPES[10]], ids=str)
def test_missing_router_raises_oracle_error(shape):
    net = _build(shape)
    levels, m, _, fat, width = shape
    victims = [general_router_id(1, 0, 0, 1), general_router_id(2, 0, 0, 0)]
    if width:
        victims.append(general_fanout_id(0, 1, 1))
    for victim in victims:
        broken = network_from_dict(network_to_dict(net))
        broken.remove_node(victim)
        expected = _outcome(oracle_general_tables, broken)
        assert expected.startswith("RoutingError: no link")
        assert _outcome(general_tables, broken) == expected



@pytest.mark.parametrize("shape", [SHAPES[2], SHAPES[5], SHAPES[10]], ids=str)
def test_first_missing_link_wins_like_oracle(shape):
    """Several missing links on one router: the per-router fill raises on
    its up link first, then laterals by corner, then down links."""
    net = _build(shape)
    rid = general_router_id(1, 0, 0, 0)
    down = general_fanout_id(0, 0, 0) if shape[4] else "n0"
    lateral = [general_router_id(1, 0, 0, c) for c in (3, 2)]
    for gone in (lateral + [down], [down] + lateral[:1], lateral[::-1]):
        broken = network_from_dict(network_to_dict(net))
        for other in gone:
            broken.disconnect(broken.links_between(rid, other)[0].link_id)
        expected = _outcome(oracle_general_tables, broken)
        assert expected.startswith(f"RoutingError: no link '{rid}'")
        assert _outcome(general_tables, broken) == expected


@pytest.mark.parametrize("shape", [SHAPES[2], SHAPES[5], SHAPES[10]], ids=str)
def test_unused_missing_links_are_not_errors(shape):
    """A leaf assembly removed with its end nodes (and fan-out routers):
    the links toward it are missing but no destination needs them."""
    levels, m, _, _, width = shape
    net = _build(shape)
    victims = [general_router_id(1, 0, 0, c) for c in range(m)]
    if width:
        victims += [general_fanout_id(0, c, p) for c in range(m) for p in range(2)]
    victims += [e for e in net.end_node_ids() if net.node(e).attrs["address"] < 8 * (width or 1)]
    for victim in victims:
        net.remove_node(victim)
    expected = _outcome(oracle_general_tables, net)
    assert isinstance(expected, bytes), expected
    assert _outcome(general_tables, net) == expected


@pytest.mark.parametrize("address", [10_000, 2**40, -2, -(2**40)])
@pytest.mark.parametrize("shape", [SHAPES[2], SHAPES[5], SHAPES[10]], ids=str)
def test_address_outside_the_shape_raises_oracle_error(shape, address):
    """An end whose address lies outside the fabric, however far, needs an
    up link from the top level, which does not exist: the same error as
    the oracle's."""
    net = _build(shape)
    net.node(net.end_node_ids()[3]).attrs["address"] = address
    expected = _outcome(oracle_general_tables, net)
    assert expected.startswith("RoutingError: no link")
    assert _outcome(general_tables, net) == expected


@pytest.mark.parametrize("ends", [(0, 1), (5, 1), (0, 1, 2, 3)], ids=str)
@pytest.mark.parametrize("shape", [SHAPES[2], SHAPES[3], SHAPES[5], SHAPES[10]], ids=str)
def test_shared_address_matches_oracle(shape, ends):
    """End nodes given one address share its column but at the router
    that ejects to them: a table when they all hang on that router (n0
    and n1 do), else that router's missing link."""
    net = _build(shape)
    first, *rest = (net.node(f"n{i}") for i in ends)
    for node in rest:
        node.attrs["address"] = first.attrs["address"]
    expected = _outcome(oracle_general_tables, net)
    assert isinstance(expected, bytes) == (ends == (0, 1)), expected
    assert _outcome(general_tables, net) == expected
