"""Generalized fractahedrons: hierarchies of M-router assemblies.

The paper's conclusion: "The current focus is on tetrahedral ensembles of
6-port ServerNet routers, but the concepts easily generalize to other
fully connected groups of N-port routers."  This module is that
generalization.  An assembly of ``M`` fully-connected routers of radix
``R`` splits each router's ports ``d``-``(M-1)``-``1``:

* ``d = R - M`` down ports (end nodes or child groups),
* ``M - 1`` intra-assembly ports,
* one up port.

A group at level ``k`` has ``M ** (k-1)`` independent layers when *fat*
(one per corner, recursively) or a single assembly when *thin* (only
corner 0 connects upward).  Each group adopts ``M * d`` children; corner
``c`` of every layer owns children ``c*d .. c*d + d - 1``.  Ascending
from layer ``m``, corner ``c`` lands in parent layer ``m*M + c``;
descending from parent layer ``L`` lands in child layer ``L // M`` at
corner ``L % M``.  With ``M = 4`` and ``R = 6`` this is exactly the
paper's 2-3-1 fractahedron; :mod:`repro.core.fractahedron` delegates
here.

Routing follows §2.3 verbatim, generalized: ascend on the local
inter-level link (thin: via corner 0), match ``log2(M*d)`` address bits
per level on the way down with at most one lateral per assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, itemgetter

import numpy as np

from repro.network.builder import NetworkBuilder
from repro.network.graph import Network, Node, NodeKind
from repro.routing.base import RoutingError, RoutingTable

__all__ = [
    "MAX_END_NODES",
    "GeneralFractaParams",
    "general_fanout_id",
    "general_fractahedron",
    "general_router_id",
    "general_tables",
]

#: Largest fabric the builders will attempt (end-node count).  Depth-5
#: thin fanout-2 (65,536 ends) fits; anything beyond fails here with the
#: parameter arithmetic spelled out instead of deep inside the cabling
#: loops after minutes of work.
MAX_END_NODES = 1 << 17


@dataclass(frozen=True)
class GeneralFractaParams:
    """Shape of a generalized fractahedron.

    Attributes:
        levels: hierarchy depth N (level 1 = the leaf assemblies).
        assembly_size: routers per fully-connected assembly (M >= 2).
        router_radix: ports per router; must leave at least one down port
            and one up port after the M-1 intra links.
        fat: replicate higher levels into layers (True) or run one up
            link per group (False).
        fanout_width: nodes per fan-out router on each down port, or None
            to attach end nodes directly.
    """

    levels: int
    assembly_size: int = 4
    router_radix: int = 6
    fat: bool = True
    fanout_width: int | None = None

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.assembly_size < 2:
            raise ValueError("assembly_size must be >= 2")
        if self.down_ports < 1:
            raise ValueError(
                f"radix {self.router_radix} leaves no down ports for "
                f"M={self.assembly_size} (needs M-1 intra + 1 up + >=1 down)"
            )
        if self.fanout_width is not None and not (
            1 <= self.fanout_width <= self.router_radix - 1
        ):
            raise ValueError(
                f"fanout_width={self.fanout_width} does not fit a "
                f"{self.router_radix}-port fan-out router "
                f"(1 up port + at most {self.router_radix - 1} end nodes)"
            )
        if self.num_nodes > MAX_END_NODES:
            raise ValueError(
                f"levels={self.levels} with M={self.assembly_size}, "
                f"d={self.down_ports}, fanout_width={self.fanout_width} "
                f"builds {self.num_nodes} end nodes, over the supported "
                f"maximum of {MAX_END_NODES}; reduce levels (each level "
                f"multiplies the node count by {self.children_per_group})"
            )

    @property
    def corners(self) -> int:
        return self.assembly_size

    @property
    def down_ports(self) -> int:
        """Down ports per router: radix - (M-1) intra - 1 up."""
        return self.router_radix - self.assembly_size

    @property
    def children_per_group(self) -> int:
        return self.assembly_size * self.down_ports

    @property
    def num_leaf_groups(self) -> int:
        return self.children_per_group ** (self.levels - 1)

    @property
    def num_nodes(self) -> int:
        per_port = self.fanout_width if self.fanout_width else 1
        return self.num_leaf_groups * self.children_per_group * per_port

    def layers_at(self, level: int) -> int:
        return self.assembly_size ** (level - 1) if self.fat else 1

    def groups_at(self, level: int) -> int:
        return self.children_per_group ** (self.levels - level)

    def router_count(self) -> int:
        total = 0
        for level in range(1, self.levels + 1):
            total += self.groups_at(level) * self.layers_at(level) * self.assembly_size
        if self.fanout_width:
            total += self.num_leaf_groups * self.children_per_group
        return total


def general_router_id(level: int, group: int, layer: int, corner: int) -> str:
    """Canonical router id (shared with the 2-3-1 specialization)."""
    return f"L{level}.G{group}.Y{layer}.C{corner}"


def general_fanout_id(tetra: int, corner: int, port: int) -> str:
    """Canonical fan-out router id."""
    return f"FO.T{tetra}.C{corner}.P{port}"


def general_fractahedron(params: GeneralFractaParams) -> Network:
    """Build a generalized fractahedron.

    Router attrs: ``level``, ``group``, ``layer``, ``corner``; the network
    carries the full parameter set for the routing compiler.

    The nodes and cables are laid out first and inserted with one
    :meth:`~repro.network.graph.Network.add_nodes` and one
    :meth:`~repro.network.graph.Network.connect_many` call: nodes in the
    order routers, then per leaf down port its fan-out router and end
    nodes; cables in the order fan-out stage, intra-assembly, inter-level,
    each on the lowest free ports, so every port number and link id is
    the one a cable-at-a-time build gives.
    """
    m = params.assembly_size
    d = params.down_ports
    cpg = params.children_per_group
    kind = ("fat" if params.fat else "thin") + "_fractahedron"
    name = f"{kind}-N{params.levels}"
    if m != 4 or params.router_radix != 6:
        kind = "general_" + kind
        name = f"{kind}-N{params.levels}-M{m}-R{params.router_radix}"
    net = NetworkBuilder(name, params.router_radix).net
    net.attrs["topology"] = kind
    net.attrs["levels"] = params.levels
    net.attrs["fat"] = params.fat
    net.attrs["fanout_width"] = params.fanout_width
    net.attrs["assembly_size"] = m
    net.attrs["down_ports"] = d
    radix, fanout = params.router_radix, params.fanout_width
    router, end = NodeKind.ROUTER, NodeKind.END_NODE

    # --- nodes ------------------------------------------------------------
    # the routers level by level; router (level, group, layer, corner) is
    # node first[level] + (group * layers + layer) * m + corner, so the
    # routers of assembly k are nodes k*m .. k*m + m - 1.  Ids are built
    # per assembly: general_router_id's prefix, then the corner
    corners = [str(c) for c in range(m)]
    router_ids: list[str] = []
    attrs: list[dict] = []
    for level in range(1, params.levels + 1):
        for group in range(params.groups_at(level)):
            for layer in range(params.layers_at(level)):
                prefix = f"L{level}.G{group}.Y{layer}.C"
                router_ids += [prefix + c for c in corners]
                attrs += [
                    {"level": level, "group": group, "layer": layer, "corner": c}
                    for c in range(m)
                ]
    nodes = Node.many(router_ids, router, radix, attrs)
    first = np.cumsum(
        [0, 0] + [params.groups_at(k) * params.layers_at(k) * m for k in range(1, params.levels)]
    )
    # then per leaf down port s = (tetra * m + corner) * d + port: its
    # fan-out router and that router's end nodes, or its one end node
    num_routers = len(nodes)
    slots = params.num_leaf_groups * m * d
    per_slot = 1 + fanout if fanout else 1
    width = fanout or 1
    end_ids = list(map("n".__add__, map(str, range(slots * width))))
    ends = Node.many(end_ids, end, 1, [{"address": w} for w in range(slots * width)])
    if fanout:
        fanout_ids, fanout_attrs = [], []
        for tetra in range(params.num_leaf_groups):
            for corner in range(m):
                prefix = f"FO.T{tetra}.C{corner}.P"  # general_fanout_id's
                fanout_ids += [prefix + str(port) for port in range(d)]
                fanout_attrs += [
                    {"fanout": True, "tetra": tetra, "corner": corner, "port": port}
                    for port in range(d)
                ]
        tail: list = [None] * (slots * per_slot)
        tail[0::per_slot] = Node.many(fanout_ids, router, radix, fanout_attrs)
        for j in range(fanout):
            tail[1 + j :: per_slot] = ends[j::fanout]
        ends = tail
    nodes += ends
    net.add_nodes(nodes)

    # --- cables, in the order fan-out, intra-assembly, inter-level ----------
    templates: list[dict] = [{"kind": "fanout_up"}, {}, {"kind": "intra"}]
    # fan-out stage: per slot, its fan-out router up to the leaf router,
    # then each end node to the fan-out router (or the end to the leaf)
    a = num_routers + np.arange(slots * per_slot)
    s, k = np.divmod(a - num_routers, per_slot)
    leaf = s // d
    if fanout:
        b = np.where(k == 0, leaf, a - k)
        which = (k > 0).astype(np.intp)
    else:
        b, which = leaf, np.ones(a.size, np.intp)
    a_parts, b_parts, which_parts = [a], [b], [which]
    # intra-assembly: every corner pair of every assembly
    i, j = np.triu_indices(m, 1)
    assembly = np.arange(num_routers // m)[:, None] * m
    a_parts.append((assembly + i).ravel())
    b_parts.append((assembly + j).ravel())
    which_parts.append(np.full(a_parts[-1].size, 2, np.intp))
    # inter-level: corner c of layer y of group g up to the parent group's
    # corner position // d, in parent layer y * m + c (thin: corner 0 only,
    # to parent layer 0)
    for level in range(1, params.levels):
        layers = params.layers_at(level)
        g, y, c = np.indices((params.groups_at(level), layers, m)).reshape(3, -1)
        if not params.fat:
            g, y, c = g[c == 0], y[c == 0], c[c == 0]
        up_layers = params.layers_at(level + 1)
        parent_layer = y * m + c if params.fat else 0
        a_parts.append(first[level] + (g * layers + y) * m + c)
        b_parts.append(
            first[level + 1] + (g // cpg * up_layers + parent_layer) * m + g % cpg // d
        )
        which_parts.append(len(templates) + g)
        templates += (
            {"kind": "interlevel", "child_group": group, "child_position": group % cpg}
            for group in range(params.groups_at(level))
        )
    ids = np.array([node.node_id for node in nodes], dtype=object)
    net.connect_many(
        ids[np.concatenate(a_parts)].tolist(),
        ids[np.concatenate(b_parts)].tolist(),
        attrs=templates,
        attrs_of=np.concatenate(which_parts),
    )
    return net


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def _labels(fmt, *columns):
    """Node ids of the missing targets: ``fmt`` over the masked columns."""

    def label(miss: np.ndarray) -> list[str]:
        picked = (np.broadcast_to(c, miss.shape)[miss].tolist() for c in columns)
        return [fmt(*t) for t in zip(*picked)]

    return label


class _Neighbors:
    """Lowest-port lookups toward given nodes, and the links they miss.

    ``nbr[r, p]`` is the node router ``r`` reaches on port ``p`` (-1 where
    uncabled; nodes numbered as in the network's link-array view); its
    last row, read for router ``-1``, is all -1.  A missing link is
    recorded, not raised, as ``(router, stage, order, target id)``: the
    smallest record is the error a router-by-router fill meets first.
    """

    def __init__(self, net: Network) -> None:
        arr = net.link_arrays()
        width = int(arr.router_ports.max()) if arr.router_ports.size else 1
        self.nbr = np.full((arr.num_routers + 1, width), -1, dtype=np.int32)
        out = np.flatnonzero(arr.src_is_router)
        self.nbr[arr.src[out], arr.src_port[out]] = arr.dst[out]
        self.missing: list[tuple[int, int, int, str]] = []

    def need(self, rows, targets, stage, order, label, wanted) -> np.ndarray:
        """Lowest port from each router in ``rows`` to the node in
        ``targets`` (which broadcast together; a -1 router or target does
        not exist), -1 where there is none.  Misses among ``wanted`` are
        recorded with their ``stage``, ``order`` and ``label`` ids."""
        hit = self.nbr[rows] == targets[..., None]
        port = np.where(hit.any(axis=-1) & (targets >= 0), hit.argmax(axis=-1), -1)
        miss = (port < 0) & wanted
        if miss.any():
            r = np.broadcast_to(rows, miss.shape)[miss].tolist()
            o = np.broadcast_to(order, miss.shape)[miss].tolist()
            self.missing += zip(r, [stage] * len(r), o, label(miss))
        return port


def _router_id(level: int, group: int, layer: int, corner: int) -> str:
    """Canonical id of the router at these coordinates; level 0 is the
    fan-out stage, keyed (0, tetra, port, corner)."""
    if level == 0:
        return general_fanout_id(group, corner, layer)
    return general_router_id(level, group, layer, corner)


def _column(dicts: list[dict], key: str, default: int = -1) -> np.ndarray:
    """``d.get(key, default)`` of every dict, as an integer array."""
    return np.fromiter(map(dict.get, dicts, repeat(key), repeat(default)), np.int64, len(dicts))


def general_tables(net: Network) -> RoutingTable:
    """Compile depth-first routing tables for a generalized fractahedron.

    The §2.3 routing rule -- ascend while the destination's high-order
    address bits differ, descend matching one child index per level with
    at most one lateral hop per assembly -- is written into the
    :class:`~repro.routing.base.RoutingTable` port matrix in block writes,
    one router class at a time: each level, then the fan-out routers.

    The matrix is laid out canonically: rows in build order (within a
    level, router ``(group, layer, corner)`` at ``(group * layers + layer)
    * M + corner``; the fan-out routers by leaf down port), columns in
    address order.  A group's destinations then share an address prefix,
    so they are one contiguous column block, cut into one sub-block per
    child (or per end node of a fan-out router).  Each router's "up" port
    is broadcast over its row, and its group's block is written with the
    port of a small per-router table indexed by child.  That writes every
    cell, so the matrix needs no ``-1`` pre-fill.  A freshly built network
    is in the canonical layout and its matrix is filled in place; any
    other order of routers or ends (or a network with some removed) is
    filled canonically and then gathered by one row and column selection.

    Neighbor ports come from the network's link-array view, routers are
    found by their (level, group, layer, corner) attrs (fan-out routers by
    tetra, corner and port), and destinations by their ``address`` attr,
    so nothing walks the links or formats ids per router.  A missing link
    or router that some route needs raises the ``RoutingError`` a
    router-by-router fill meets first.
    """
    levels = net.attrs.get("levels")
    fat = net.attrs.get("fat")
    m = net.attrs.get("assembly_size")
    d = net.attrs.get("down_ports")
    fanout = net.attrs.get("fanout_width")
    if levels is None or m is None:
        raise RoutingError("network lacks generalized-fractahedron attributes")
    cpg = m * d
    width = fanout or 1

    idx = net.indices()
    R, E = len(idx.router_ids), len(idx.end_ids)
    attrs = attrgetter("attrs")
    addr = np.fromiter(map(itemgetter("address"), map(attrs, net.end_nodes())), np.int64, E)

    # the canonical layout: class k (the fan-out stage is k = 0) has
    # groups[k] groups of layers[k] * m routers (fan-out: one), starting
    # at row first[k]; a group spans span[k] address columns, cpg children
    # of span[k - 1] columns (fan-out: one column per end node)
    groups = [cpg ** (levels - k) for k in range(levels + 1)]
    layers = [0] + [m ** (k - 1) if fat else 1 for k in range(1, levels + 1)]
    span = [cpg**k * width for k in range(levels + 1)]
    first = [0] * (levels + 2)  # first[levels + 1]: past the last level
    for k in range(1, levels + 1):
        first[k + 1] = first[k] + groups[k] * layers[k] * m
    first[0] = first[levels + 1]
    Rc = first[0] + (groups[0] if fanout else 0)
    # an address outside the shape (negative too) is in no group, so any
    # value routes alike: up to the missing top-level parent.  All such
    # ends share one column, in a second block of span[levels] columns
    top = span[levels]
    inside = (addr >= 0) & (addr < top)
    col = np.where(inside, addr, top)
    Ec = top if inside.all() else 2 * top
    counts = np.bincount(col, minlength=Ec)
    # the end node at each address (one of them where ends share one)
    end_at = np.full(Ec, -1, dtype=np.int64)
    end_at[col[inside]] = np.flatnonzero(inside)

    # every router's canonical row, -1 when its coordinates are outside
    # the shape; at[row] is the router there (at[-1]: no router)
    level_groups = np.array([0] + groups[1:] + [0])
    level_layers = np.array(layers + [0])
    level_first = np.array(first)

    def level_row(k, g, y, c):
        k = np.clip(k, 0, levels + 1)
        ok = (g >= 0) & (g < level_groups[k]) & (y >= 0) & (y < level_layers[k])
        ok = ok & (c >= 0) & (c < m)
        return np.where(ok, level_first[k] + (g * level_layers[k] + y) * m + c, -1)

    dicts = list(map(attrs, net.routers()))
    is_fanout = _column(dicts, "fanout", 0) != 0
    corner, tetra, port = (_column(dicts, key) for key in ("corner", "tetra", "port"))
    fanout_ok = (tetra >= 0) & (tetra < groups[1]) & (corner >= 0) & (corner < m)
    fanout_ok &= (port >= 0) & (port < d) & bool(fanout)
    row = np.where(
        is_fanout,
        np.where(fanout_ok, first[0] + (tetra * m + corner) * d + port, -1),
        level_row(*(_column(dicts, key) for key in ("level", "group", "layer")), corner),
    ).astype(np.int64)
    at = np.full(Rc + 1, -1, dtype=np.int64)
    at[row[row >= 0]] = np.flatnonzero(row >= 0)

    def router_at(k, g, y, c):
        return at[level_row(k, g, y, c)]

    in_place = (
        (R, E) == (Rc, Ec) and (row == np.arange(R)).all() and (col == np.arange(E)).all()
    )
    table = RoutingTable.empty(net)
    canon = table.ports if in_place else np.empty((Rc + 1, Ec), table.ports.dtype)

    def write(top: int, n_groups: int, per_group: int, up, down, sub: int) -> None:
        """Rows ``top`` on, ``per_group`` routers per group: ``up[i]``
        across row ``i``, then across its group's columns ``down[i, j]``
        on child ``j``'s ``sub`` columns."""
        block = canon[top : top + n_groups * per_group]
        children = down.shape[-1]
        if block.shape[1] > children * sub:
            block[:] = up.astype(block.dtype)[:, None]  # a cast per cell costs 4x
        view = block.reshape(n_groups, per_group, -1, children, sub)
        g = np.arange(n_groups)
        view[g, :, g] = down.astype(block.dtype).reshape(n_groups, per_group, children, 1)

    nb = _Neighbors(net)
    child = np.arange(cpg)
    owner = child // d
    for k in range(1, levels + 1):
        g, y, c = np.indices((groups[k], layers[k], m)).reshape(3, -1)
        rows = at[first[k] + np.arange(g.size)]
        per_child = counts.reshape(-1, cpg, span[k - 1]).sum(axis=-1)

        # up the local inter-level link (thin: non-zero corners via corner 0)
        via0 = np.full(c.shape, not fat) & (c != 0)
        target = (
            np.where(via0, k, k + 1),
            np.where(via0, g, g // cpg),
            np.where(via0, y, y * m + c if fat else 0),
            np.where(via0, 0, g % cpg // d),
        )
        wanted = (rows >= 0) & (per_child[g].sum(axis=-1) < E)
        up = nb.need(rows, router_at(*target), 0, 0, _labels(_router_id, *target), wanted)

        # per child the destinations lie under (level 1: corner and down
        # port), a lateral port or a down port
        present = (per_child[g] > 0) & (rows >= 0)[:, None]
        lateral = owner != c[:, None]
        rr, gg, yy, cc = rows[:, None], g[:, None], y[:, None], c[:, None]
        lat = (k, gg, yy, owner)
        label = _labels(_router_id, *lat)
        ports = nb.need(rr, router_at(*lat), 1, owner, label, present & lateral)
        if k > 1:
            down = (k - 1, gg * cpg + child, yy // m, yy % m)
            target, order, label = router_at(*down), child, _labels(_router_id, *down)
        elif fanout:  # the fan-out router of (group, corner, child % d)
            target, order = at[first[0] + gg * cpg + child], child % d
            label = _labels(_router_id, 0, gg, order, cc)
        else:  # eject to the end node itself
            order = end_at[gg * cpg + child]
            target = np.where(order >= 0, R + order, -1)
            label = _labels(idx.end_ids.__getitem__, order)
        downs = nb.need(rr, target, 2, order, label, present & ~lateral)
        write(first[k], groups[k], layers[k] * m, up, np.where(lateral, ports, downs), span[k - 1])

    if fanout:
        # up to the leaf router; down to the router's own end nodes
        s = np.arange(groups[0])
        rows = at[first[0] + s]
        target = (1, s // cpg, 0, s // d % m)
        wanted = (rows >= 0) & (counts.reshape(-1, width).sum(axis=-1)[s] < E)
        up = nb.need(rows, router_at(*target), 0, 0, _labels(_router_id, *target), wanted)
        e = end_at[s[:, None] * width + np.arange(width)]
        own = nb.need(
            rows[:, None],
            np.where(e >= 0, R + e, -1),
            1,
            e,
            _labels(idx.end_ids.__getitem__, e),
            (rows >= 0)[:, None] & (e >= 0),
        )
        write(first[0], groups[0], 1, up, own, 1)

    # an end sharing its address with the one end_at holds gets that
    # end's column, except at the router that ejects to it
    dup = np.flatnonzero(inside & (end_at[col] != np.arange(E)))
    a = addr[dup]
    if fanout:
        eject, stage = at[first[0] + a // width], 1
    else:
        eject, stage = router_at(1, a // cpg, 0, a % cpg // d), 2
    label = _labels(idx.end_ids.__getitem__, dup)
    dup_port = nb.need(eject, R + dup, stage, dup, label, eject >= 0)

    if nb.missing:
        r, _, _, target_id = min(nb.missing)
        raise RoutingError(f"no link {idx.router_ids[r]!r} -> {target_id!r}")
    if not in_place:
        canon[-1] = -1
        table.ports = canon[np.where(row >= 0, row, Rc)[:, None], col]
        ok = eject >= 0
        table.ports[eject[ok], dup[ok]] = dup_port[ok]
    return table
