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
from repro.routing.base import Route, RouteSet, RoutingError, RoutingTable

__all__ = ["hyperx_dor_tables", "hyperx_valiant_routes"]


def _coords(net: Network) -> dict[str, tuple[int, ...]]:
    coords: dict[str, tuple[int, ...]] = {}
    for rid in net.router_ids():
        coord = net.node(rid).attrs.get("coord")
        if coord is None:
            raise RoutingError(f"router {rid!r} has no coord attribute (not a hyperx?)")
        coords[rid] = tuple(coord)
    return coords


def _router_at(coords: dict[str, tuple[int, ...]]) -> dict[tuple[int, ...], str]:
    return {coord: rid for rid, coord in coords.items()}


def _dor_links(
    net: Network,
    coords: dict[str, tuple[int, ...]],
    at: dict[tuple[int, ...], str],
    src_router: str,
    dst_router: str,
) -> tuple[list[str], list[str]]:
    """Links and intermediate routers of the DOR path between two switches."""
    links: list[str] = []
    routers: list[str] = []
    current = src_router
    target = coords[dst_router]
    while current != dst_router:
        here = coords[current]
        dim = next(i for i, (a, b) in enumerate(zip(here, target)) if a != b)
        step = list(here)
        step[dim] = target[dim]
        nxt = at[tuple(step)]
        links.append(net.links_between(current, nxt)[0].link_id)
        routers.append(nxt)
        current = nxt
    return links, routers


def hyperx_dor_tables(net: Network) -> RoutingTable:
    """Dimension-order minimal routing tables for a HyperX.

    Corrects the lowest differing dimension first; one link per dimension,
    so the worst case is L switch-to-switch hops and the channel order
    "injection < dim 0 < dim 1 < ... < ejection" ascends along every
    route.
    """
    coords = _coords(net)
    at = _router_at(coords)
    tables = RoutingTable(net)
    for dest in net.end_node_ids():
        dest_router = net.attached_router(dest)
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest][0]
        tables.set(dest_router, dest, ejection.src_port)
        target = coords[dest_router]
        for router, here in coords.items():
            if router == dest_router:
                continue
            dim = next(i for i, (a, b) in enumerate(zip(here, target)) if a != b)
            step = list(here)
            step[dim] = target[dim]
            link = net.links_between(router, at[tuple(step)])[0]
            tables.set(router, dest, link.src_port)
    return tables


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
    coords = _coords(net)
    at = _router_at(coords)
    routers = sorted(coords)
    ends = net.end_node_ids()
    if pairs is None:
        pairs = [(s, d) for s in ends for d in ends if s != d]

    routes = RouteSet()
    phase1_len: dict[tuple[str, str], int] = {}
    for src, dst in pairs:
        rs = net.attached_router(src)
        rd = net.attached_router(dst)
        injection = [l for l in net.out_links(src) if l.dst == rs][0]
        ejection = [l for l in net.out_links(rd) if l.dst == dst][0]
        rng = random.Random(f"{seed}:{src}:{dst}")
        candidates = [r for r in routers if r not in (rs, rd)]
        mid = rng.choice(candidates) if candidates else rs
        links1, routers1 = _dor_links(net, coords, at, rs, mid)
        links2, routers2 = _dor_links(net, coords, at, mid, rd)
        links = (injection.link_id, *links1, *links2, ejection.link_id)
        nodes = (src, rs, *routers1, *routers2, dst)
        routes.add(Route(src=src, dst=dst, links=links, nodes=nodes))
        phase1_len[(src, dst)] = 1 + len(links1)

    def vc_assign(route: Route) -> list[int]:
        k = phase1_len[(route.src, route.dst)]
        return [0] * k + [1] * (len(route.links) - k)

    return routes, vc_assign
