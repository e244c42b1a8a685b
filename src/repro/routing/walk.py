"""Array-native route walks: every (source, destination) pair at once.

:func:`~repro.routing.base.compute_route` walks one pair hop by hop in
Python.  Routing validation and channel-order certification need every
ordered end-node pair, so this module walks all pairs together: each
numpy step advances every still-travelling pair by one router hop,
reading the next link straight out of the tables.

The tables' ``ports`` matrix is gathered through the per-router
port -> link lookup one hop at a time
(:func:`~repro.routing.base.next_channel`, the simulators' route step),
so no walk materializes a routers x ends link matrix.  Subclasses (which
may override ``lookup``) are not :func:`walkable`; callers keep the
per-pair walk for them.

Destination-indexed routing is deterministic per (router, destination),
so a walk that revisits a router loops forever: a pair that arrives
within ``R`` router hops (``R`` = router count) is loop-free and simple,
and one still travelling after ``R`` hops is a loop.  The walker does not
name failures -- it flags them; callers re-walk flagged pairs through
``compute_route`` for the exact diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RoutingTable, next_channel, port_link_lut, sorted_unique

__all__ = ["PairWalk", "walk_all_pairs", "walk_pairs", "walkable"]

#: Pairs advanced per numpy pass.  Bounds the per-step temporaries (and
#: the recorded dependency codes) at depth-3 all-pairs, ~1M pairs.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class PairWalk:
    """Outcome of walking a list of pairs through the tables.

    Attributes:
        ok: per pair, True when the walk reached its destination end node
            without a missing entry, uncabled port, wrong end node or loop.
        router_hops: per pair, routers visited (meaningful where ``ok``).
        channels: sorted link indices (``Network.indices().link_ids``)
            traversed by the ``ok`` pairs.
        dependencies: ``(k, 2)`` sorted, deduplicated (held, waited) link
            index pairs of consecutive channels on the ``ok`` pairs.
    """

    ok: np.ndarray
    router_hops: np.ndarray
    channels: np.ndarray
    dependencies: np.ndarray

    @property
    def link_counts(self) -> np.ndarray:
        """Links per route: the injection link plus one per router hop."""
        return self.router_hops + 1


def walkable(tables: RoutingTable) -> bool:
    """True when ``tables`` is an exact type the array walk can read."""
    return type(tables) is RoutingTable


def _link_targets(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per link: destination router / end index (-1 when the other kind);
    per end node: its single injection link (-1 unless exactly one)."""
    arr = net.link_arrays()
    injection = np.where(arr.end_out_degree == 1, arr.injection, -1)
    return arr.dst_router(), arr.dst_end(), injection


def _walk(
    net: Network,
    tables: RoutingTable,
    n: int,
    chunk: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
) -> PairWalk:
    idx = net.indices()
    L = len(idx.link_ids)
    max_hops = len(idx.router_ids)
    ports = tables.ports_on(net)
    lut = port_link_lut(net, ports)
    dst_router, dst_end, injection = _link_targets(net)
    ok = np.zeros(n, dtype=bool)
    hops = np.zeros(n, dtype=np.int32)
    used = np.zeros(L, dtype=bool)
    dep_chunks: list[np.ndarray] = []
    for start in range(0, n, _CHUNK):
        src, dst = chunk(start, min(n, start + _CHUNK))
        m = src.size
        c_ok = np.zeros(m, dtype=bool)
        c_hops = np.zeros(m, dtype=np.int32)
        valid = (src >= 0) & (dst >= 0) & (src != dst)
        inj = np.where(valid, injection[np.maximum(src, 0)], -1)
        act = np.flatnonzero(inj >= 0)
        link = inj[act]
        c_ok[act[dst_end[link] == dst[act]]] = True
        # travel on only from routers; any other node is the destination
        # (arrived) or a wrong end node (failed)
        at_router = dst_router[link] >= 0
        act, prev = act[at_router], link[at_router]
        r, e = dst_router[prev], dst[act]
        held: list[np.ndarray] = []
        waited: list[np.ndarray] = []
        walkers: list[np.ndarray] = []
        for _ in range(max_hops):
            if not act.size:
                break
            link = next_channel(lut, ports, r, e)
            has = link >= 0
            act, prev, link, e = act[has], prev[has], link[has], e[has]
            c_hops[act] += 1
            walkers.append(act)
            held.append(prev)
            waited.append(link)
            c_ok[act[dst_end[link] == e]] = True
            at_router = dst_router[link] >= 0
            act, prev, e = act[at_router], link[at_router], e[at_router]
            r = dst_router[prev]
        # pairs still travelling after max_hops revisited a router: a loop
        ok[start : start + m] = c_ok
        hops[start : start + m] = c_hops
        used[inj[c_ok]] = True
        if walkers:
            keep = c_ok[np.concatenate(walkers)]
            h = np.concatenate(held)[keep].astype(np.int64)
            w = np.concatenate(waited)[keep].astype(np.int64)
            used[w] = True
            dep_chunks.append(sorted_unique(h * L + w))
    codes = sorted_unique(np.concatenate(dep_chunks)) if dep_chunks else np.zeros(0, np.int64)
    return PairWalk(
        ok=ok,
        router_hops=hops,
        channels=np.flatnonzero(used),
        dependencies=np.stack([codes // max(L, 1), codes % max(L, 1)], axis=1),
    )


def walk_pairs(
    net: Network, tables: RoutingTable, src: np.ndarray, dst: np.ndarray
) -> PairWalk:
    """Walk explicit pairs given as end indices (``-1`` marks an id that
    is not an end node of ``net``; such pairs come back not ``ok``)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    return _walk(net, tables, src.size, lambda a, b: (src[a:b], dst[a:b]))


def walk_all_pairs(net: Network, tables: RoutingTable) -> PairWalk:
    """Walk every ordered pair of distinct end nodes.

    Pair ``i`` is ``src = i // (E - 1)``, ``dst`` the ``i % (E - 1)``-th
    other end node -- the order of
    :func:`~repro.routing.base.all_pairs_routes` -- generated per chunk,
    so the quadratic pair list is never materialized.
    """
    E = net.num_end_nodes
    n = E * (E - 1)

    def chunk(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        i = np.arange(a, b, dtype=np.int64)
        src, k = np.divmod(i, E - 1)
        return src, k + (k >= src)

    return _walk(net, tables, n, chunk)
