"""HyperX routing: dimension-order minimal and Valiant-style non-minimal.

Minimal routing on a HyperX is dimension-order routing with one hop per
dimension: each aligned group is fully connected, so offset correction in
a dimension is a single link.  Every route's channel sequence visits
strictly ascending dimensions, which makes the scheme orderable -- rank
channels by dimension and :func:`repro.deadlock.certifier.certify_channel_order`
finds the ascending witness -- with **zero** virtual channels.

Non-minimal (Valiant / DAL-style) routing doubles the path through a
random intermediate switch to spread adversarial loads.  Chaining two
minimal phases *can* close dependency cycles (phase 2 of one route shares
channels with phase 1 of another), so the scheme carries the standard
escape ladder: virtual channel 0 for the misrouting phase, virtual
channel 1 after the intermediate.  Per VC the dependencies still ascend
dimensions and the only cross-VC edges go 0 -> 1, so the VC-aware CDG
(:func:`repro.deadlock.cdg.channel_dependency_graph_vc`) is acyclic.
"""

from __future__ import annotations

import random

from repro.network.graph import Network
from repro.routing.base import Route, RouteSet, RoutingTable, ejections, router_attrs
from repro.routing.dimension_order import DimensionOrder

__all__ = ["hyperx_dor_tables", "hyperx_valiant_routes"]


def _dimension_order(net: Network) -> DimensionOrder:
    """HyperX dimension order: every dimension jumps, lowest first."""
    coords = router_attrs(net, "coord", "router {!r} has no coord attribute (not a hyperx?)")
    ndim = len(coords[0]) if coords else 0
    return DimensionOrder(net, coords, range(ndim), ["jump"] * ndim)


def hyperx_dor_tables(net: Network) -> RoutingTable:
    """Dimension-order minimal routing tables for a HyperX.

    Corrects the lowest differing dimension first; one link per dimension,
    so the worst case is L switch-to-switch hops and the channel order
    "injection < dim 0 < dim 1 < ... < ejection" ascends along every
    route.
    """
    return _dimension_order(net).tables()


def hyperx_valiant_routes(
    net: Network,
    seed: int = 1996,
    pairs: "list[tuple[str, str]] | None" = None,
):
    """Valiant non-minimal routes plus their escape-ladder VC assignment.

    Each (src, dst) pair routes DOR to a seeded-uniform random
    intermediate switch, then DOR to the destination -- the per-pair
    intermediate is exactly what destination-indexed tables cannot
    encode, so the scheme is returned as an explicit
    :class:`~repro.routing.base.RouteSet`.

    Returns ``(routes, vc_assign)`` where ``vc_assign(route)`` gives the
    per-link virtual channels (0 up to and including the arrival at the
    intermediate, 1 after) for
    :func:`repro.deadlock.cdg.channel_dependency_graph_vc`.
    """
    dor = _dimension_order(net)
    idx = net.indices()
    router_ids, link_ids = idx.router_ids, idx.link_ids
    routers = sorted(router_ids)
    injection = net.link_arrays().injection
    ej = ejections(net)
    #: target router index -> per router, (next router, link) lists
    steps: dict[int, tuple[list[int], list[int]]] = {}

    def dor_links(a: int, b: int) -> tuple[list[str], list[str]]:
        """Links and intermediate routers of the DOR path from ``a`` to ``b``."""
        if b not in steps:
            steps[b] = tuple(column.tolist() for column in dor.hops(b))
        nxt, link = steps[b]
        links, hops = [], []
        while a != b:
            if link[a] < 0:
                raise dor.missing_hop(b, a, router_ids[b])
            links.append(link_ids[link[a]])
            a = nxt[a]
            hops.append(router_ids[a])
        return links, hops

    ends = net.end_node_ids()
    if pairs is None:
        pairs = [(s, d) for s in ends for d in ends if s != d]

    routes = RouteSet()
    phase1_len: dict[tuple[str, str], int] = {}
    for src, dst in pairs:
        s, rs, _, _ = ej.require(net, src)
        _, rd, _, ejection = ej.require(net, dst)
        rng = random.Random(f"{seed}:{src}:{dst}")
        candidates = [r for r in routers if r not in (router_ids[rs], router_ids[rd])]
        mid = idx.router_index[rng.choice(candidates)] if candidates else rs
        links1, routers1 = dor_links(rs, mid)
        links2, routers2 = dor_links(mid, rd)
        links = (link_ids[injection[s]], *links1, *links2, link_ids[ejection])
        nodes = (src, router_ids[rs], *routers1, *routers2, dst)
        routes.add(Route(src=src, dst=dst, links=links, nodes=nodes))
        phase1_len[(src, dst)] = 1 + len(links1)

    def vc_assign(route: Route) -> list[int]:
        k = phase1_len[(route.src, route.dst)]
        return [0] * k + [1] * (len(route.links) - k)

    return routes, vc_assign
