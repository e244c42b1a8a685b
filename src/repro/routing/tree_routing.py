"""Tree-structured routing: plain trees, up*/down*, and fat-tree tables.

Trees are the paper's benchmark for loop-freedom: *"Tree networks are free
of routing loops, but their bisection bandwidth is determined by the
bandwidth through the router at the root node"* (§2.2).  This module
provides:

* :func:`tree_tables` -- unique-path routing on an actual tree topology.
* :func:`up_down_tables` -- up*/down* routing, the general technique for
  making an *arbitrary* connected fabric deadlock-free with destination-only
  tables (every route climbs toward a root, then only descends).
* :func:`fat_tree_tables` -- the static partitioned fat-tree routing of
  Figure 6 (delegates to the fat-tree topology module, which knows the
  level/group structure).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.network.graph import Link, Network
from repro.routing.base import RoutingError, RoutingTable, ejections

__all__ = ["tree_tables", "up_down_tables", "fat_tree_tables"]

LinkPredicate = Callable[[Link], bool]


def tree_tables(net: Network) -> RoutingTable:
    """Routing tables for a tree fabric (paths are unique, so this is just
    deterministic shortest-path routing plus a cheap acyclicity check)."""
    import networkx as nx

    from repro.routing.shortest_path import shortest_path_tables

    g = net.to_networkx_undirected(routers_only=True)
    if g.number_of_edges() != g.number_of_nodes() - 1 or not nx.is_connected(g):
        raise RoutingError("router fabric is not a tree")
    return shortest_path_tables(net)


def _bfs_levels(
    net: Network, root: str, allowed: LinkPredicate | None = None
) -> dict[str, int]:
    if root not in net or not net.node(root).is_router:
        raise ValueError(
            f"root {root!r} is not a router of {net.name!r}; pass a router id "
            "or omit root to use the smallest router id"
        )
    levels = {root: 0}
    queue: deque[str] = deque([root])
    while queue:
        current = queue.popleft()
        for link in net.out_links(current):
            if allowed is not None and not allowed(link):
                continue
            if net.node(link.dst).is_router and link.dst not in levels:
                levels[link.dst] = levels[current] + 1
                queue.append(link.dst)
    return levels


def up_down_tables(
    net: Network,
    root: str | None = None,
    allowed: LinkPredicate | None = None,
) -> RoutingTable:
    """Up*/down* routing over an arbitrary connected router fabric.

    Links are oriented by BFS level from a root (ties by node id): the
    direction toward the root is *up*.  A legal route is zero or more up
    hops followed by zero or more down hops, which provably breaks every
    channel-dependency cycle.  The tables realize, for each destination:

    * if an all-down path to the destination exists, take the shortest one;
    * otherwise forward on an up link toward smaller up-distance.

    Because "has an all-down path" is a property of the *current* router
    and destination only, destination-indexed tables suffice -- once a
    packet starts descending it keeps descending.  Both properties depend
    on the destination's router alone, so each router's column is
    computed once and shared by the end nodes attached to it.

    ``allowed`` restricts which router-to-router links may be used (the
    ServerNet path-disable mechanism, and how the recovery subsystem
    routes around failed links): disallowed links are invisible to both
    the orientation BFS and the table construction, so the result is
    deadlock-free over whatever fabric survives -- as long as it is still
    connected.
    """
    routers = net.router_ids()
    if not routers:
        raise RoutingError("network has no routers")
    root = root or min(routers)
    levels = _bfs_levels(net, root, allowed)
    if len(levels) != len(routers):
        raise RoutingError(
            "router fabric is not connected"
            + (" over the allowed links" if allowed is not None else "")
        )

    def is_up(src: str, dst: str) -> bool:
        """Orientation of the link src -> dst (True when heading rootward)."""
        return (levels[dst], dst) < (levels[src], src)

    # The allowed router-to-router links (every router has a level by
    # now), split by orientation once, in port order: (src, port) down
    # links into each router, (dst, port) up links out of each.
    down_in: dict[str, list[tuple[str, int]]] = {r: [] for r in routers}
    up_out: dict[str, list[tuple[str, int]]] = {r: [] for r in routers}
    for router in routers:
        for link in net.out_links(router):
            if link.dst not in levels or (allowed is not None and not allowed(link)):
                continue
            if is_up(router, link.dst):
                up_out[router].append((link.dst, link.src_port))
    for router in routers:
        for link in net.in_links(router):
            if link.src not in levels or (allowed is not None and not allowed(link)):
                continue
            if not is_up(link.src, router):
                down_in[router].append((link.src, link.src_port))

    def column(dest_router: str) -> dict[str, int]:
        """Output port toward ``dest_router`` at every other router."""
        # Phase 1: shortest all-down distances to dest_router (BFS over
        # reversed down links).
        down_dist: dict[str, int] = {dest_router: 0}
        down_port: dict[str, int] = {}
        queue: deque[str] = deque([dest_router])
        while queue:
            current = queue.popleft()
            for src, port in down_in[current]:
                if src not in down_dist:
                    down_dist[src] = down_dist[current] + 1
                    down_port[src] = port
                    queue.append(src)

        # Phase 2: routers with no all-down path climb; distance counts the
        # up hops until a router with an all-down path is reached.
        up_dist: dict[str, int] = dict(down_dist)
        up_port: dict[str, int] = {}
        # Process routers from the root outward is not sufficient in general
        # graphs, so relax until fixpoint (up links form a DAG, so this
        # terminates in at most |routers| sweeps; fabrics are small).
        changed = True
        while changed:
            changed = False
            for router in routers:
                for nxt, port in up_out[router]:
                    if nxt in up_dist:
                        cand = up_dist[nxt] + 1
                        if router not in up_dist or cand < up_dist[router]:
                            up_dist[router] = cand
                            if router not in down_dist:
                                up_port[router] = port
                            changed = True
        return {**up_port, **down_port}

    # each destination router's column, in router order, is written over
    # the columns of the end nodes attached to it
    tables = RoutingTable(net)
    columns: dict[str, np.ndarray] = {}
    for e, (dest, dest_router, port, _) in enumerate(ejections(net).ends(net)):
        ports = columns.get(dest_router)
        if ports is None:
            found = column(dest_router)
            found[dest_router] = -1  # the ejection port is set per end
            if len(found) < len(routers):
                router = next(r for r in routers if r not in found)
                raise RoutingError(f"{router!r} cannot reach {dest!r} via up*/down*")
            ports = np.fromiter(map(found.__getitem__, routers), np.int64, len(routers))
            columns[dest_router] = ports
        tables.ports[:, e] = ports
        tables.set(dest_router, dest, port)
    return tables


def fat_tree_tables(net: Network) -> RoutingTable:
    """Static partitioned fat-tree routing (Figure 6).

    Thin wrapper; the real work is in
    :func:`repro.topology.fattree.fat_tree_tables` which understands the
    builder's level/group attributes.  Imported lazily to avoid a package
    cycle.
    """
    from repro.topology.fattree import fat_tree_tables as impl

    return impl(net)
