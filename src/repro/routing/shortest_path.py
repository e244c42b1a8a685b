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

from repro.network.graph import Link, Network
from repro.routing.base import RoutingError, RoutingTable

__all__ = ["shortest_path_tables", "bfs_router_distances", "rotating_tie_break"]

LinkPredicate = Callable[[Link], bool]
#: tie_break(dest, link) -> sortable key; smaller keys win equal-distance ties.
TieBreak = Callable[[str, Link], tuple]


def _lex_tie_break(_dest: str, link: Link) -> tuple:
    return (link.src, link.src_port)


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


def _router_in_adjacency(
    net: Network, allowed: LinkPredicate | None
) -> dict[str, list[Link]]:
    """For each router, the allowed router-to-router links arriving at it."""
    incoming: dict[str, list[Link]] = {r: [] for r in net.router_ids()}
    for link in net.router_links():
        if allowed is None or allowed(link):
            incoming[link.dst].append(link)
    return incoming


def shortest_path_tables(
    net: Network,
    allowed: LinkPredicate | None = None,
    tie_break: TieBreak | None = None,
    dests: "Iterable[str] | None" = None,
) -> RoutingTable:
    """Compile shortest-path routing tables for all end-node destinations.

    Args:
        net: the network.
        allowed: optional predicate over router-to-router links; links for
            which it returns False are never routed over (path disables).
        tie_break: orders equal-distance parents per destination; defaults
            to lexicographic.  :func:`rotating_tie_break` gives the
            adversarial-but-legal tables used by the Figure 2 experiment.
        dests: optional subset of destination end-node ids to compile,
            used when this builder serves as the cross-check oracle for a
            sampled sweep on a fabric too large for all destinations.

    Raises:
        RoutingError: if some router cannot reach some destination under the
            restriction (the disables disconnected the fabric).
    """
    tables = RoutingTable(net)
    incoming = _router_in_adjacency(net, allowed)
    routers = set(net.router_ids())
    breaker = tie_break or _lex_tie_break

    for dest in net.end_node_ids() if dests is None else dests:
        dest_router = net.attached_router(dest)
        # Ejection entry at the destination's router.
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest]
        tables.set(dest_router, dest, ejection[0].src_port)

        # Reverse BFS from the destination router; each router remembers the
        # best (per tie-break) link that leads one hop closer.
        dist: dict[str, int] = {dest_router: 0}
        queue: deque[str] = deque([dest_router])
        while queue:
            current = queue.popleft()
            for link in sorted(incoming[current], key=lambda l: breaker(dest, l)):
                if link.src not in dist:
                    dist[link.src] = dist[current] + 1
                    tables.set(link.src, dest, link.src_port)
                    queue.append(link.src)

        missing = routers - dist.keys()
        if missing:
            raise RoutingError(
                f"{len(missing)} router(s) cannot reach {dest!r} "
                f"under the given restriction (e.g. {sorted(missing)[0]!r})"
            )
    return tables


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
