"""Router-hop statistics.

The paper counts delay in *router hops* -- the number of routers a packet
traverses ("a maximum delay between CPUs of four router hops -- two within
the tetrahedron, and one each to get to and from the tetrahedron", §2.2).
Table 2 compares averages: 4.4 for the 64-node 4-2 fat tree versus 4.3 for
the fat fractahedron.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RouteSet, RoutingTable, compute_route
from repro.routing.walk import walk_pairs, walkable

__all__ = ["HopStats", "hop_stats", "hop_stats_sampled"]


@dataclass(frozen=True)
class HopStats:
    """Distribution of router hops over a route set."""

    count: int
    minimum: int
    maximum: int
    mean: float
    histogram: tuple[tuple[int, int], ...]  # (hops, routes) ascending

    def __str__(self) -> str:  # pragma: no cover - display helper
        hist = ", ".join(f"{h}:{n}" for h, n in self.histogram)
        return (
            f"{self.count} routes, hops min={self.minimum} max={self.maximum} "
            f"avg={self.mean:.2f}  [{hist}]"
        )


def hop_stats(routes: RouteSet) -> HopStats:
    """Hop statistics over an explicit route set (usually all pairs)."""
    counts: dict[int, int] = {}
    total = 0
    n = 0
    for route in routes:
        hops = route.router_hops
        counts[hops] = counts.get(hops, 0) + 1
        total += hops
        n += 1
    if n == 0:
        raise ValueError("empty route set")
    return HopStats(
        count=n,
        minimum=min(counts),
        maximum=max(counts),
        mean=total / n,
        histogram=tuple(sorted(counts.items())),
    )


def hop_stats_sampled(
    net: Network,
    tables: RoutingTable,
    max_pairs: int = 20000,
    seed: int = 12345,
) -> HopStats:
    """Hop statistics from a random sample of pairs (for 1000+-node nets).

    Uses a deterministic linear-congruential shuffle so results are
    reproducible without pulling in global random state.  Tables the
    array walker reads (:func:`~repro.routing.walk.walkable`) walk the
    sample at once; a pair it flags is re-walked through
    :func:`~repro.routing.base.compute_route`, which raises the same
    :class:`~repro.routing.base.RoutingError` as the per-pair walk.
    """
    ends = net.indices().end_ids
    n = len(ends)
    if n * (n - 1) <= max_pairs:
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    else:
        pairs = []
        state = seed
        for _ in range(max_pairs):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            s = state % n
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            d = state % n
            if s != d:
                pairs.append((s, d))
    if walkable(tables):
        src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        walk = walk_pairs(net, tables, src, dst)
        hops = walk.router_hops.astype(np.int64)
        for i in np.flatnonzero(~walk.ok).tolist():
            hops[i] = compute_route(net, tables, ends[src[i]], ends[dst[i]]).router_hops
    else:
        hops = np.array(
            [compute_route(net, tables, ends[s], ends[d]).router_hops for s, d in pairs],
            dtype=np.int64,
        )
    values, counts = (a.tolist() for a in np.unique(hops, return_counts=True))
    return HopStats(
        count=len(pairs),
        minimum=min(values),
        maximum=max(values),
        mean=int(hops.sum()) / len(pairs),
        histogram=tuple(zip(values, counts)),
    )
