"""Generic deterministic shortest-path routing.

This is the "unrestricted" baseline: for every destination it builds a
breadth-first in-tree over the router graph with deterministic (lowest port
number) tie-breaking, then compiles routing tables.  On topologies with
loops this routing is *not* deadlock-free -- which is the point: the
channel-dependency analysis and the wormhole simulator both demonstrate the
resulting cycles, and restricted routings (dimension order, disables,
up*/down*, fractahedral) remove them.

An ``allowed`` predicate restricts which unidirectional links may be used,
which is how ServerNet path disables (§2.2, Figure 2) are applied.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Iterable

import numpy as np

from repro.network.graph import Link, Network
from repro.routing.base import RoutingError, RoutingTable, ejections

__all__ = ["shortest_path_tables", "bfs_router_distances", "rotating_tie_break"]

LinkPredicate = Callable[[Link], bool]
#: tie_break(dest, link) -> sortable key; smaller keys win equal-distance ties.
TieBreak = Callable[[str, Link], tuple]


def rotating_tie_break(dest: str, link: Link) -> tuple:
    """Adversarial deterministic tie-break: rotate preference per destination.

    ServerNet routing tables can hold *any* in-tree per destination; this
    tie-break models an unlucky (but perfectly legal) choice by rotating
    which equal-length parent each destination prefers.  On looped
    topologies it produces the conflicting turn directions that close
    channel-dependency cycles -- the behaviour path disables exist to
    forbid (§2.2, Figure 2).
    """
    salt = zlib.crc32(dest.encode())
    return ((zlib.crc32(link.src.encode()) + salt) & 0xFFFF, link.src, link.src_port)


def _bfs_column(dest_r: int, starts, counts, inc_src, inc_port):
    """Output-port column of the reverse BFS rooted at router ``dest_r``.

    Edges arriving at router ``r`` occupy ``starts[r] : starts[r]+counts[r]``
    of ``inc_src``/``inc_port``, already in tie-break order.  Returns
    ``(col, visited)``: ``col[r]`` is the port router ``r`` forwards on
    (-1 for the root and for unreachable routers).

    A FIFO BFS discovers each distance-(d+1) router while it dequeues the
    distance-d frontier, in the order the previous pass enqueued it, and
    the first (dequeued router, sorted incoming link) to reach a router
    wins.  So one level is resolved at once: gather the frontier's edges
    in (frontier position, CSR rank) order and keep the first edge into
    each undiscovered router.
    """
    R = counts.size
    col = np.full(R, -1, dtype=inc_port.dtype)
    visited = np.zeros(R, dtype=bool)
    visited[dest_r] = True
    frontier = np.array([dest_r], dtype=np.int64)
    while frontier.size:
        fcounts = counts[frontier]
        total = int(fcounts.sum())
        if total == 0:
            break
        # `eidx` walks each frontier router's CSR slice in turn
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(fcounts) - fcounts, fcounts
        )
        eidx = np.repeat(starts[frontier], fcounts) + offs
        fresh = ~visited[inc_src[eidx]]
        if not fresh.any():
            break
        eidx = eidx[fresh]
        uniq, first = np.unique(inc_src[eidx], return_index=True)
        col[uniq] = inc_port[eidx[first]]
        visited[uniq] = True
        # the next frontier in discovery (enqueue) order
        frontier = uniq[np.argsort(first)]
    return col, visited


def shortest_path_tables(
    net: Network,
    allowed: LinkPredicate | None = None,
    tie_break: TieBreak | None = None,
    dests: "Iterable[str] | None" = None,
) -> RoutingTable:
    """Compile shortest-path routing tables for all end-node destinations.

    Each destination's in-tree is a reverse BFS from its router over an
    integer CSR of the allowed router links (:func:`_bfs_column`).  With
    the default tie-break the CSR is sorted once and the ends on one
    router share its column; a custom ``tie_break`` orders the CSR per
    destination.

    Args:
        net: the network.
        allowed: optional predicate over router-to-router links; links for
            which it returns False are never routed over (path disables).
        tie_break: orders equal-distance parents per destination; defaults
            to lexicographic ``(link.src, link.src_port)``.
            :func:`rotating_tie_break` gives the adversarial-but-legal
            tables used by the Figure 2 experiment.
        dests: optional subset of destination end-node ids to compile
            (sampled sweeps on fabrics too large for all destinations).

    Raises:
        RoutingError: for the first destination (in ``dests`` order) some
            router cannot reach under the restriction (the disables
            disconnected the fabric).
    """
    table = RoutingTable(net)
    ports = table.ports
    idx = net.indices()
    router_ids = idx.router_ids
    router_index = idx.router_index
    R = len(router_ids)
    links = [l for l in net.router_links() if allowed is None or allowed(l)]
    src = np.array([router_index[l.src] for l in links], dtype=np.int64)
    dst = np.array([router_index[l.dst] for l in links], dtype=np.int64)
    port = np.array([l.src_port for l in links], dtype=ports.dtype)
    counts = np.bincount(dst, minlength=R)
    starts = np.cumsum(counts) - counts
    # router indices in id order: comparing ranks compares id strings
    lex = np.array(sorted(range(R), key=router_ids.__getitem__), dtype=np.int64)
    if tie_break is None:
        rank = np.empty(R, dtype=np.int64)
        rank[lex] = np.arange(R)
        order = np.lexsort((port, rank[src], dst))
        inc_src, inc_port = src[order], port[order]
    columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    ej = ejections(net)

    for dest in net.end_node_ids() if dests is None else dests:
        e, dest_r, ejection_port, _ = ej.require(net, dest)
        if tie_break is None:
            if dest_r not in columns:
                columns[dest_r] = _bfs_column(dest_r, starts, counts, inc_src, inc_port)
            col, visited = columns[dest_r]
        else:
            keys = [tie_break(dest, l) for l in links]
            link_rank = np.empty(len(links), dtype=np.int64)
            link_rank[sorted(range(len(links)), key=keys.__getitem__)] = np.arange(len(links))
            order = np.lexsort((link_rank, dst))
            col, visited = _bfs_column(dest_r, starts, counts, src[order], port[order])
        if not visited.all():
            missing = lex[~visited[lex]]
            raise RoutingError(
                f"{missing.size} router(s) cannot reach {dest!r} "
                f"under the given restriction (e.g. {router_ids[missing[0]]!r})"
            )
        ports[:, e] = col
        ports[dest_r, e] = ejection_port
    return table


def bfs_router_distances(
    net: Network, source_router: str, allowed: LinkPredicate | None = None
) -> dict[str, int]:
    """Hop distances from a router to all routers over allowed links."""
    outgoing: dict[str, list[Link]] = {r: [] for r in net.router_ids()}
    for link in net.router_links():
        if allowed is None or allowed(link):
            outgoing[link.src].append(link)
    dist = {source_router: 0}
    queue: deque[str] = deque([source_router])
    while queue:
        current = queue.popleft()
        for link in outgoing[current]:
            if link.dst not in dist:
                dist[link.dst] = dist[current] + 1
                queue.append(link.dst)
    return dist
