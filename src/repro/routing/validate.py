"""Routing validation: every pair deliverable, no loops, fixed paths.

ServerNet's in-order delivery guarantee requires *"a fixed path between each
pair of nodes"* (§3.3).  Table-driven routing gives that by construction;
this module checks the remaining requirements: completeness (every pair has
entries), termination (no table loops), and optional bounds like shortest-
path optimality or maximum hop counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable, compute_route
from repro.routing.walk import PairWalk, walk_all_pairs, walk_pairs, walkable

__all__ = ["RoutingReport", "sample_pairs", "validate_routing"]


@dataclass
class RoutingReport:
    """Result of :func:`validate_routing`."""

    pairs_checked: int = 0
    failures: list[str] = field(default_factory=list)
    max_router_hops: int = 0
    max_links: int = 0
    #: the array walk the report was computed from (None when the tables
    #: took the per-pair walk); the channel-order certifier reads its
    #: channels and dependencies instead of walking the routes again
    walk: PairWalk | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures


def _pair_at(ends: list[str], index: int) -> tuple[str, str]:
    """The ``index``-th ordered pair of distinct end nodes.

    Pairs are numbered ``src * (n - 1) + k`` where ``k`` skips the
    diagonal, so a pair can be materialized from its index alone -- the
    sampler never builds the quadratic cross product.
    """
    n = len(ends)
    src, k = divmod(index, n - 1)
    return ends[src], ends[k if k < src else k + 1]


def _sample_indices(num_ends: int, count: int, seed: int) -> np.ndarray | None:
    """The pair indices :func:`sample_pairs` draws, in its order; None
    when the sample covers every pair."""
    if count <= 0:
        raise ValueError(f"sample count must be positive, got {count}")
    total = num_ends * (num_ends - 1)
    if count >= total:
        return None
    return np.array(random.Random(seed).sample(range(total), count), dtype=np.int64)


def sample_pairs(net: Network, count: int, seed: int = 0) -> list[tuple[str, str]]:
    """A deterministic seeded sample of ordered end-node pairs.

    Samples ``count`` distinct pairs (all of them when ``count`` covers
    the population) without enumerating the full ``n * (n - 1)`` cross
    product, so a depth-3 fractahedron's million-pair space costs only
    ``count`` index draws.  The same ``(net, count, seed)`` always yields
    the same pairs, in the same order -- reproducible by construction.
    """
    ends = net.end_node_ids()
    indices = _sample_indices(len(ends), count, seed)
    if indices is None:
        return [(s, d) for s in ends for d in ends if s != d]
    return [_pair_at(ends, i) for i in indices.tolist()]


def validate_routing(
    net: Network,
    tables: RoutingTable,
    max_router_hops: int | None = None,
    require_simple: bool = True,
    pairs: Iterable[tuple[str, str]] | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> RoutingReport:
    """Walk every route and verify it is deliverable and well-formed.

    Args:
        net: the network.
        tables: routing tables to validate.
        max_router_hops: if given, any route visiting more routers fails.
        require_simple: fail routes that revisit a node (a symptom of
            near-miss table bugs even when the walk terminates).
        pairs: restrict the check to these (src, dst) pairs; defaults to all
            ordered pairs of end nodes.
        sample: walk a deterministic seeded sample of this many pairs
            instead of all of them (see :func:`sample_pairs`) -- the scale
            mode for fabrics where the all-pairs walk is quadratic in the
            thousands of end nodes.  Ignored when ``pairs`` is given.
        seed: sample seed.

    Tables the array walker reads (:func:`~repro.routing.walk.walkable`)
    are walked all pairs at once; only the pairs it flags -- and, under a
    ``max_router_hops`` bound, the pairs over it -- are re-walked through
    :func:`~repro.routing.base.compute_route`, in pair order, so failure
    messages, their order and any raised error match the per-pair walk
    exactly.  Other table types take the per-pair walk.
    """
    drawn = None
    if pairs is None and sample is not None:
        drawn = _sample_indices(net.num_end_nodes, sample, seed)
        if drawn is not None and not walkable(tables):
            pairs = sample_pairs(net, sample, seed)
    if not walkable(tables):
        if pairs is None:
            # lazy: never materialize the quadratic cross product
            ends = net.end_node_ids()
            pairs = ((s, d) for s in ends for d in ends if s != d)
        report = RoutingReport()
        for src, dst in pairs:
            report.pairs_checked += 1
            _check_pair(net, tables, src, dst, max_router_hops, require_simple, report)
        return report

    if pairs is None and drawn is None:
        walk = walk_all_pairs(net, tables)
        ends = net.end_node_ids()

        def pair(i: int) -> tuple[str, str]:
            return _pair_at(ends, i)
    elif pairs is None:
        # the sampled pairs as end indices; ids only for flagged pairs
        src, k = np.divmod(drawn, net.num_end_nodes - 1)
        walk = walk_pairs(net, tables, src, k + (k >= src))
        ends = net.end_node_ids()

        def pair(i: int) -> tuple[str, str]:
            return _pair_at(ends, int(drawn[i]))
    else:
        pairs = list(pairs)
        ei = net.indices().end_index
        walk = walk_pairs(
            net,
            tables,
            np.fromiter((ei.get(s, -1) for s, _ in pairs), np.int64, len(pairs)),
            np.fromiter((ei.get(d, -1) for _, d in pairs), np.int64, len(pairs)),
        )
        pair = pairs.__getitem__
    report = RoutingReport(pairs_checked=int(walk.ok.size), walk=walk)
    passed = walk.ok.copy()
    if max_router_hops is not None:
        passed &= walk.router_hops <= max_router_hops
    for i in np.flatnonzero(~passed).tolist():
        src, dst = pair(i)
        _check_pair(net, tables, src, dst, max_router_hops, require_simple, report)
    if passed.any():
        top = int(walk.router_hops[passed].max())
        report.max_router_hops = max(report.max_router_hops, top)
        report.max_links = max(report.max_links, top + 1)
    return report


def _check_pair(
    net: Network,
    tables: RoutingTable,
    src: str,
    dst: str,
    max_router_hops: int | None,
    require_simple: bool,
    report: RoutingReport,
) -> None:
    """Walk one pair through ``compute_route`` and record the outcome."""
    try:
        route = compute_route(net, tables, src, dst)
    except RoutingError as exc:
        report.failures.append(f"{src}->{dst}: {exc}")
        return
    if route.nodes[-1] != dst:
        report.failures.append(f"{src}->{dst}: terminated at {route.nodes[-1]}")
        return
    if require_simple and len(set(route.nodes)) != len(route.nodes):
        report.failures.append(f"{src}->{dst}: revisits a node {route.nodes}")
        return
    if max_router_hops is not None and route.router_hops > max_router_hops:
        report.failures.append(
            f"{src}->{dst}: {route.router_hops} router hops "
            f"exceeds bound {max_router_hops}"
        )
        return
    report.max_router_hops = max(report.max_router_hops, route.router_hops)
    report.max_links = max(report.max_links, len(route.links))
