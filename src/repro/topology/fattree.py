"""Fat trees of fixed-radix routers (Figure 6, §3.3).

A ``down-up`` fat tree partitions each router's ports into ``down`` ports
toward the leaves and ``up`` ports toward the root.  The paper studies the
4-2 and 3-3 partitionings of 6-port routers:

* **4-2**: some bandwidth reduction toward the root (bisection grows slower
  than node count) but cheap -- 28 routers connect 64 nodes.
* **3-3**: full bandwidth at every level but expensive -- about 100 routers
  and 5.9 average hops for 64 nodes.

Construction (recursive): a height-1 group is a single router with ``down``
end nodes and ``up`` up-links.  A height-k group is ``down`` height-(k-1)
subgroups topped by ``up**(k-1)`` new routers; subgroup ``j``'s up-link
``p`` (from its top router ``p // up``, slot ``p % up``) cables to new
router ``p``'s down-port ``j``.  The top level's up ports are left free,
matching the paper's reservation of top links for future expansion.

Routing: ServerNet requires a *fixed* path per (source, destination) pair,
so the many equal paths of a fat tree must be statically partitioned.
:func:`fat_tree_tables` implements a partition that achieves the paper's
12:1 worst-case contention on the 64-node 4-2 tree -- which §3.3 argues is
optimal ("other static partitionings ... can do no better than the 12:1
contention ratio").
"""

from __future__ import annotations

import numpy as np

from repro.network.builder import NetworkBuilder
from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable, ejections

__all__ = ["fat_tree", "fat_tree_tables"]


def fat_tree(
    height: int,
    down: int = 4,
    up: int = 2,
    router_radix: int = 6,
    num_nodes: int | None = None,
) -> Network:
    """Build a ``down``-``up`` fat tree of the given height.

    Args:
        height: number of router levels; capacity is ``down ** height`` end
            nodes.
        down: ports per router toward the leaves.
        up: ports per router toward the root.
        router_radix: must satisfy ``down + up <= radix``.
        num_nodes: attach only this many end nodes (filling leaf routers in
            order) and prune routers with empty subtrees.  This is how the
            paper sizes the 3-3 tree for 64 nodes (height 4, capacity 81,
            about 100 routers after pruning).

    Router attributes: ``level`` (1 = leaf level), ``path`` (subgroup
    choices from the root, top choice first) and ``index`` (position among
    its group's top routers).  Link attributes: ``kind`` (``down``/``up``),
    ``subgroup`` (down links) and ``slot`` (up links).
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    if down < 1 or up < 1:
        raise ValueError("down and up must be >= 1")
    if down + up > router_radix:
        raise ValueError(
            f"{down}-{up} partitioning does not fit radix {router_radix}"
        )
    capacity = down**height
    if num_nodes is None:
        num_nodes = capacity
    if not 1 <= num_nodes <= capacity:
        raise ValueError(f"num_nodes {num_nodes} outside 1..{capacity}")

    b = NetworkBuilder(f"fattree{down}-{up}-h{height}", router_radix)
    net = b.net
    net.attrs["topology"] = "fat_tree"
    net.attrs["down"] = down
    net.attrs["up"] = up
    net.attrs["height"] = height

    leaves: list[str] = []

    def rid(level: int, path: tuple[int, ...], index: int) -> str:
        suffix = ".".join(str(j) for j in path)
        return f"F{level}[{suffix}].{index}" if suffix else f"F{level}.{index}"

    def build_group(k: int, path: tuple[int, ...]) -> list[str]:
        """Build a height-k group; return its top routers in index order."""
        if k == 1:
            router = b.router(rid(1, path, 0), level=1, path=path, index=0)
            leaves.append(router)
            return [router]
        subgroup_tops = [build_group(k - 1, path + (j,)) for j in range(down)]
        tops = [
            b.router(rid(k, path, p), level=k, path=path, index=p)
            for p in range(up ** (k - 1))
        ]
        for j, subtops in enumerate(subgroup_tops):
            for p, parent in enumerate(tops):
                child = subtops[p // up]
                b.cable_ports(
                    parent,
                    net.next_free_port(parent),
                    child,
                    net.next_free_port(child),
                    kind="down",
                    subgroup=j,
                    slot=p % up,
                )
        return tops

    build_group(height, ())

    # Attach end nodes leaf by leaf (lexicographic path order = the paper's
    # node numbering: nodes 0..15 under the first top-level branch, etc.).
    remaining = num_nodes
    for leaf in leaves:
        take = min(down, remaining)
        b.attach_end_nodes(leaf, take)
        remaining -= take
        if remaining == 0:
            break

    if num_nodes < capacity:  # a full tree has no empty subtree
        _prune_empty_subtrees(net, height)
    return net


def _prune_empty_subtrees(net: Network, height: int) -> None:
    """Remove routers whose subtree contains no end nodes."""
    for level in range(1, height + 1):
        for router in list(net.routers()):
            if router.attrs.get("level") != level:
                continue
            if level == 1:
                empty = not net.attached_end_nodes(router.node_id)
            else:
                empty = not any(
                    net.node(l.dst).is_router
                    and net.node(l.dst).attrs.get("level") == level - 1
                    for l in net.out_links(router.node_id)
                )
            if empty:
                net.remove_node(router.node_id)


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def fat_tree_tables(net: Network) -> RoutingTable:
    """Static partitioned routing for a fat tree (Figure 6).

    Down paths are unique (each router has exactly one down link per
    subgroup); the partitioning freedom is which up slot to take.  For the
    paper's 64-node 4-2 tree the threshold rule below realizes the optimal
    12:1 worst-case contention derived in §3.3; for other shapes a
    deterministic round-robin mix is used.

    A router's port toward a destination depends only on the destination's
    leaf router, so one column is worked out per leaf router and shared by
    its end nodes.  Down and up ports are read once from the network's
    link-array view: the lowest-port link to a router one level below with
    the wanted ``subgroup`` attr, or one level above with the wanted
    ``slot``.  Cable attributes are shared by both directions, so the
    direction is told by the endpoint levels.
    """
    down = net.attrs["down"]
    up = net.attrs["up"]
    height = net.attrs["height"]
    optimal_42 = down == 4 and up == 2 and height == 3

    idx = net.indices()
    arr = net.link_arrays()
    routers = net.routers()
    levels = [r.attrs.get("level") for r in routers]
    # (router index, subgroup) -> down port and (router index, slot) -> up port
    downs: dict[tuple[int, object], int] = {}
    ups: dict[tuple[int, object], int] = {}
    attrs = [None] * len(idx.link_ids)
    for i, link_attrs in zip(map(idx.link_index.__getitem__, net.link_ids()), net.link_attrs()):
        attrs[i] = link_attrs
    src, dst, src_port = arr.src.tolist(), arr.dst.tolist(), arr.src_port.tolist()
    for i in np.flatnonzero(arr.src_is_router & arr.dst_is_router).tolist():
        r, own, peer = src[i], levels[src[i]], levels[dst[i]]
        if own is not None and peer == own - 1:
            ports, key = downs, (r, attrs[i].get("subgroup"))
        elif own is not None and peer == own + 1:
            ports, key = ups, (r, attrs[i].get("slot"))
        else:
            continue
        if src_port[i] < ports.get(key, src_port[i] + 1):
            ports[key] = src_port[i]

    def column(dest_router: int) -> list[int]:
        """Every router's port toward the ends of ``dest_router``."""
        # subgroup choices (top first) identifying the leaf router
        dbranch = tuple(routers[dest_router].attrs["path"])
        col = [-1] * len(routers)
        for r, router in enumerate(routers):
            if r == dest_router:
                continue
            rid = router.node_id
            path = tuple(router.attrs["path"])
            depth = height - router.attrs["level"]  # length of the router's path
            if dbranch[:depth] == path:
                # Destination below this router: unique down step.
                subgroup = dbranch[depth]
                port = downs.get((r, subgroup))
                if port is None:
                    raise RoutingError(f"{rid!r} has no down link to subgroup {subgroup}")
            else:
                slot = _up_slot(net, router, dbranch, down, up, height, optimal_42)
                port = ups.get((r, slot))
                if port is None:
                    raise RoutingError(f"{rid!r} has no up link with slot {slot}")
            col[r] = port
        return col

    tables = RoutingTable(net)
    ej = ejections(net)
    columns: dict[int, list[int]] = {}
    for e, dest in enumerate(idx.end_ids):
        _, dest_router, port, _ = ej.require(net, dest)
        if dest_router not in columns:
            columns[dest_router] = column(dest_router)
        tables.ports[:, e] = columns[dest_router]
        tables.ports[dest_router, e] = port
    return tables


def _up_slot(
    net: Network,
    router,
    dbranch: tuple[int, ...],
    down: int,
    up: int,
    height: int,
    optimal_42: bool,
) -> int:
    """Choose the up slot for a destination outside the router's subtree."""
    level = router.attrs["level"]
    path = tuple(router.attrs["path"])
    index = router.attrs["index"]
    # First branch position (from the top) where destination and router part.
    mismatch = 0
    while mismatch < len(path) and dbranch[mismatch] == path[mismatch]:
        mismatch += 1

    if optimal_42:
        if mismatch == 0:
            # Destinations under a different top-level branch.
            delta = (dbranch[0] - path[0]) % down  # 1..3
            if level == 1:
                i = path[-1]  # position within the height-2 group
                return 0 if i < delta else 1
            # level == 2 routers: index 0 is "L2a" (slots reach T0/T1),
            # index 1 is "L2b" (slots reach T2/T3).
            if index == 0:
                return 0 if delta == 3 else 1
            return 0 if delta == 1 else 1
        # Same top-level branch, different height-2 group member (level 1
        # routers only): any slot balances; use own position.
        return path[-1] % up

    # Generic deterministic mix for other tree shapes.
    delta = (dbranch[mismatch] - path[mismatch]) % down if path else 0
    salt = path[-1] if path else 0
    return (delta + index + salt) % up
