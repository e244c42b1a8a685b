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

import numpy as np

from repro.network.builder import NetworkBuilder
from repro.network.graph import Network, Node, NodeKind
from repro.routing.base import RoutingError, RoutingTable, sorted_unique

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
    # routers of assembly k are nodes k*m .. k*m + m - 1
    nodes = [
        Node(
            general_router_id(level, group, layer, corner),
            router,
            radix,
            {"level": level, "group": group, "layer": layer, "corner": corner},
        )
        for level in range(1, params.levels + 1)
        for group in range(params.groups_at(level))
        for layer in range(params.layers_at(level))
        for corner in range(m)
    ]
    first = np.cumsum(
        [0, 0] + [params.groups_at(k) * params.layers_at(k) * m for k in range(1, params.levels)]
    )
    # then per leaf down port s = (tetra * m + corner) * d + port: its
    # fan-out router and that router's end nodes, or its one end node
    num_routers = len(nodes)
    slots = params.num_leaf_groups * m * d
    per_slot = 1 + fanout if fanout else 1
    for s in range(slots):
        tetra, corner, port = s // (m * d), s // d % m, s % d
        if fanout:
            attrs = {"fanout": True, "tetra": tetra, "corner": corner, "port": port}
            nodes.append(Node(general_fanout_id(tetra, corner, port), router, radix, attrs))
        for w in range(s * (fanout or 1), (s + 1) * (fanout or 1)):
            nodes.append(Node(f"n{w}", end, 1, {"address": w}))
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

#: (router, end) entries the in-group fill writes per numpy pass; bounds
#: its temporaries (a depth-4 top level holds 2M entries).
_PAIR_CHUNK = 1 << 20


def _members(row_group: np.ndarray, end_group: np.ndarray):
    """For each row, the ends whose group equals the row's: returned as
    ``(order, lo, cnt)``, the row's ends being ``order[lo : lo + cnt]``."""
    order = np.argsort(end_group, kind="stable")
    ordered = end_group[order]
    lo = np.searchsorted(ordered, row_group, "left")
    return order, lo, np.searchsorted(ordered, row_group, "right") - lo


def _labels(fmt, *columns):
    """Node ids of the missing targets: ``fmt`` over the masked columns."""

    def label(miss: np.ndarray) -> list[str]:
        picked = (np.broadcast_to(c, miss.shape)[miss].tolist() for c in columns)
        return [fmt(*t) for t in zip(*picked)]

    return label


class _ClassFill:
    """The port matrix and neighbor lookups one router class at a time.

    ``nbr[r, p]`` is the node router ``r`` reaches on port ``p`` (-1 where
    uncabled; nodes numbered as in the network's link-array view).  A
    missing link is recorded, not raised, as ``(router, stage, order,
    target id)``: the smallest record is the error a router-by-router fill
    meets first.
    """

    def __init__(self, net: Network, ports: np.ndarray) -> None:
        arr = net.link_arrays()
        width = int(arr.router_ports.max()) if arr.router_ports.size else 0
        self.nbr = np.full((arr.num_routers, width), -1, dtype=np.int32)
        out = np.flatnonzero(arr.src_is_router)
        self.nbr[arr.src[out], arr.src_port[out]] = arr.dst[out]
        self.ports = ports
        self.missing: list[tuple[int, int, int, str]] = []

    def need(self, rows, targets, stage, order, label, wanted=None) -> np.ndarray:
        """Lowest port from each router in ``rows`` to the node in
        ``targets`` (which broadcast together; a -1 target does not
        exist), -1 where there is none.  Misses among ``wanted`` are
        recorded with their ``stage``, ``order`` and ``label`` ids."""
        hit = self.nbr[rows] == targets[..., None]
        port = np.where(hit.any(axis=-1) & (targets >= 0), hit.argmax(axis=-1), -1)
        miss = port < 0
        if wanted is not None:
            miss &= wanted
        if miss.any():
            r = np.broadcast_to(rows, miss.shape)[miss].tolist()
            o = np.broadcast_to(order, miss.shape)[miss].tolist()
            self.missing += zip(r, [stage] * len(r), o, label(miss))
        return port

    def fill_groups(self, rows: np.ndarray, members, value) -> None:
        """``ports[rows[i], e] = value(i, e)`` for each row ``i`` and each
        end ``e`` among its ``members``; ``value`` must broadcast.  A row
        whose members are all the ends is written whole; the others go as
        (row, end) pairs; both in chunks of about ``_PAIR_CHUNK`` entries."""
        order, lo, cnt = members
        width = self.ports.shape[1]
        whole = np.flatnonzero(cnt == width)
        step = max(1, _PAIR_CHUNK // max(width, 1))
        for k in range(0, whole.size, step):
            w = whole[k : k + step]
            self.ports[rows[w]] = value(w[:, None], np.arange(width))
        part = np.flatnonzero(cnt < width)
        flat = self.ports.reshape(-1)
        upto = np.cumsum(cnt[part])
        start = 0
        while start < part.size:
            done = upto[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(upto, done + _PAIR_CHUNK, "right")))
            rows_i, c = part[start:stop], cnt[part[start:stop]]
            i = np.repeat(rows_i, c)
            within = np.arange(i.size) - np.repeat(np.cumsum(c) - c, c)
            e = order[np.repeat(lo[rows_i], c) + within]
            flat[rows[i] * width + e] = value(i, e)
            start = stop


def _router_id(level: int, group: int, layer: int, corner: int) -> str:
    """Canonical id of the router at these coordinates; level 0 is the
    fan-out stage, keyed (0, tetra, port, corner)."""
    if level == 0:
        return general_fanout_id(group, corner, layer)
    return general_router_id(level, group, layer, corner)


def general_tables(net: Network) -> RoutingTable:
    """Compile depth-first routing tables for a generalized fractahedron.

    The §2.3 routing rule -- ascend while the destination's high-order
    address bits differ, descend matching one child index per level with
    at most one lateral hop per assembly -- fills the
    :class:`~repro.routing.base.RoutingTable` port matrix one router
    class at a time: the fan-out routers, then each level.  A class's
    routers first get their "up" port broadcast over their whole row;
    then each router's in-group destinations get the port of a small
    per-router table indexed by the child (or corner) the destination
    lies under.  Neighbor ports come from the network's link-array view,
    and routers are found by their (level, group, layer, corner) attrs,
    so nothing walks the links or formats ids per router.  Destinations
    are matched by their ``address`` attr, whatever the end order.
    """
    levels = net.attrs.get("levels")
    fat = net.attrs.get("fat")
    m = net.attrs.get("assembly_size")
    d = net.attrs.get("down_ports")
    fanout = net.attrs.get("fanout_width")
    if levels is None or m is None:
        raise RoutingError("network lacks generalized-fractahedron attributes")
    cpg = m * d

    idx = net.indices()
    R, E = len(idx.router_ids), len(idx.end_ids)
    addr = np.fromiter(
        (net.node(e).attrs["address"] for e in idx.end_ids), dtype=np.int64, count=E
    )
    # every destination's leaf down port, decoded as (tetra, corner, port)
    slot = addr // fanout if fanout else addr
    leaf, dest_port = np.divmod(slot, d)
    dest_tetra, dest_corner = np.divmod(leaf, m)

    table = RoutingTable(net)
    fill = _ClassFill(net, table.ports)

    # every router's coordinates, the fan-out stage as level 0, and a dense
    # code per coordinate so a target router is one gather away
    coords = np.array(
        [
            (0, a["tetra"], a["port"], a["corner"])
            if a.get("fanout")
            else (a["level"], a["group"], a["layer"], a["corner"])
            for a in (r.attrs for r in net.routers())
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    groups = np.array(
        [cpg ** (levels - 1) if fanout else 0]
        + [cpg ** (levels - k) for k in range(1, levels + 1)]
        + [0]
    )
    layers = np.array([d] + [m ** (k - 1) if fat else 1 for k in range(1, levels + 1)] + [0])
    offset = np.concatenate(([0], np.cumsum(groups * layers * m)))
    at = np.full(int(offset[-1]) + 1, -1, dtype=np.int64)  # at[-1]: no router

    def code(k, g, y, c):
        k = np.clip(k, 0, levels + 1)
        ok = (g >= 0) & (g < groups[k]) & (y >= 0) & (y < layers[k]) & (c >= 0) & (c < m)
        return np.where(ok, offset[k] + (g * layers[k] + y) * m + c, -1)

    def router_at(k, g, y, c):
        return at[code(k, g, y, c)]

    codes = code(*coords.T)
    at[codes[codes >= 0]] = np.flatnonzero(codes >= 0)

    def fill_fanout(rows, t, p, c) -> None:
        """Up to the leaf router; down to the router's own end nodes."""
        members = _members((t * m + c) * d + p, slot)
        up = members[2] < E  # some destination is not the router's own
        target = router_at(1, t[up], 0, c[up])
        label = _labels(_router_id, 1, t[up], 0, c[up])
        table.ports[rows[up]] = fill.need(rows[up], target, 0, 0, label)[:, None]
        fill.fill_groups(
            rows,
            members,
            lambda i, e: fill.need(rows[i], R + e, 1, e, _labels(idx.end_ids.__getitem__, e)),
        )

    child = np.arange(cpg)
    owner = child // d

    def fill_level(k, rows, g, y, c) -> None:
        """Up the local inter-level link; a lateral or down port per child."""
        end_group = dest_tetra // cpg ** (k - 1)
        members = _members(g, end_group)
        up = members[2] < E  # some destination is outside the router's group
        if up.any():
            # thin: non-zero corners reach the inter-level link via corner 0
            ug, uy, uc = g[up], y[up], c[up]
            via0 = np.full(ug.shape, not fat) & (uc != 0)
            target = (
                np.where(via0, k, k + 1),
                np.where(via0, ug, ug // cpg),
                np.where(via0, uy, uy * m + uc if fat else 0),
                np.where(via0, 0, ug % cpg // d),
            )
            label = _labels(_router_id, *target)
            table.ports[rows[up]] = fill.need(rows[up], router_at(*target), 0, 0, label)[:, None]

        # the child (level 1: corner and down port) each destination lies
        # under, and each router's port per child it has destinations in
        if k > 1:
            child_of = dest_tetra // cpg ** (k - 2) % cpg
        else:
            child_of = dest_corner * d + dest_port
        present = np.isin(g[:, None] * cpg + child, sorted_unique(end_group * cpg + child_of))
        lateral = owner != c[:, None]
        rr, gg, yy, cc = rows[:, None], g[:, None], y[:, None], c[:, None]
        lat = (k, gg, yy, owner)
        ports = fill.need(
            rr, router_at(*lat), 1, owner, _labels(_router_id, *lat), present & lateral
        )
        own_ends = k == 1 and not fanout
        if not own_ends:
            if k > 1:
                down, order = (k - 1, gg * cpg + child, yy // m, yy % m), child
            else:
                down, order = (0, gg, child % d, cc), child % d
            label = _labels(_router_id, *down)
            downs = fill.need(rr, router_at(*down), 2, order, label, present & ~lateral)
            ports = np.where(lateral, ports, downs)

        def value(i: np.ndarray, e: np.ndarray) -> np.ndarray:
            v = ports[i, child_of[e]]
            if own_ends:  # level 1 without fan-out: eject to the end itself
                own = dest_corner[e] == c[i]
                label = _labels(idx.end_ids.__getitem__, e)
                v = np.where(own, fill.need(rows[i], R + e, 2, e, label, own), v)
            return v

        fill.fill_groups(rows, members, value)

    level, group, layer, corner = coords.T
    for k in range(levels + 1):
        rows = np.flatnonzero(level == k)
        if not rows.size:
            continue
        if k == 0:
            fill_fanout(rows, group[rows], layer[rows], corner[rows])
        else:
            fill_level(k, rows, group[rows], layer[rows], corner[rows])

    if fill.missing:
        r, _, _, target_id = min(fill.missing)
        raise RoutingError(f"no link {idx.router_ids[r]!r} -> {target_id!r}")
    return table
