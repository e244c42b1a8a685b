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

from repro.network.builder import NetworkBuilder
from repro.network.graph import Network
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
    """
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

    # --- routers ------------------------------------------------------
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

    # --- end nodes / fan-out stage --------------------------------------
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

    # --- intra-assembly links --------------------------------------------
    for level in range(1, params.levels + 1):
        for group in range(params.groups_at(level)):
            for layer in range(params.layers_at(level)):
                b.fully_connect(
                    [general_router_id(level, group, layer, c) for c in range(m)],
                    kind="intra",
                )

    # --- inter-level links ------------------------------------------------
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
                        general_router_id(
                            level + 1, parent_group, parent_layer, parent_corner
                        ),
                        kind="interlevel",
                        child_group=group,
                        child_position=position,
                    )
    return net


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def _decode(value: int, params: GeneralFractaParams) -> tuple[int, int, int]:
    """Node id -> (leaf group index, corner, down port)."""
    if params.fanout_width:
        value //= params.fanout_width
    value, port = divmod(value, params.down_ports)
    tetra, corner = divmod(value, params.corners)
    return tetra, corner, port


def general_tables(net: Network) -> RoutingTable:
    """Compile depth-first routing tables for a generalized fractahedron.

    The §2.3 routing rule -- ascend while the destination's high-order
    address bits differ, descend matching one child index per level with
    at most one lateral hop per assembly -- is evaluated per *router* over
    the whole destination address vector at once, filling one row of a
    :class:`~repro.routing.base.RoutingTable` port matrix.  The old
    per-(destination, router) Python walk re-scanned every router's port
    list for every one of its ``R x E`` entries, which is what made
    depth-3 fabrics take seconds and depth-4 minutes.
    """
    import numpy as np

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
    # Vectorized :func:`_decode` over every destination at once.
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
