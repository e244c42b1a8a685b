"""Dragonfly minimal (l-g-l) routing with its hop-class VC ladder.

Minimal dragonfly routing takes at most one local hop to the router
owning the right global link, the global hop, and one local hop inside
the destination group.  Unlike HyperX dimension order, the *same class*
of channel (a local link) appears both before and after the global hop,
and chained across groups those dependencies can close a cycle -- the
textbook reason dragonfly deploys one virtual channel per hop class even
for minimal routing.  :func:`dragonfly_vc_assign` is that ladder: local
channels before the global hop (and the global channel itself) ride VC 0,
channels after it ride VC 1.  Per VC the dependency graph is bipartite
(local -> global on VC 0, local -> ejection on VC 1) and cross edges only
ascend, so the VC-aware CDG is acyclic and the scheme certifies with two
virtual channels.
"""

from __future__ import annotations

from repro.network.graph import Network
from repro.routing.base import Route, RoutingError, RoutingTable, ejections, router_attrs

__all__ = ["dragonfly_minimal_tables", "dragonfly_vc_assign"]


def _global_owners(net: Network, groups: dict[str, int]) -> dict[int, dict[int, str]]:
    """owners[g1][g2] -> the router in group g1 holding the global link to g2."""
    owners: dict[int, dict[int, str]] = {}
    for link in net.router_links():
        if link.attrs.get("scope") != "global":
            continue
        g_src, g_dst = groups[link.src], groups[link.dst]
        owners.setdefault(g_src, {})[g_dst] = link.src
    return owners


def dragonfly_minimal_tables(net: Network) -> RoutingTable:
    """Minimal local-global-local routing tables for a dragonfly.

    For a destination in another group the packet first hops (locally) to
    the router owning the global link toward that group, crosses it, and
    finishes with at most one local hop -- certified deadlock-free with
    the two-VC ladder of :func:`dragonfly_vc_assign`.
    """
    missing = "router {!r} has no group attribute (not a dragonfly?)"
    groups = dict(zip(net.router_ids(), map(int, router_attrs(net, "group", missing))))
    owners = _global_owners(net, groups)
    tables = RoutingTable(net)
    for dest, dest_router, port, _ in ejections(net).ends(net):
        dest_group = groups[dest_router]
        tables.set(dest_router, dest, port)
        for router, group in groups.items():
            if router == dest_router:
                continue
            if group == dest_group:
                hop = net.links_between(router, dest_router)[0]
            else:
                owner = owners.get(group, {}).get(dest_group)
                if owner is None:
                    raise RoutingError(
                        f"group {group} has no global link to group {dest_group}"
                    )
                if router == owner:
                    hop = [
                        l
                        for l in net.out_links(router)
                        if l.attrs.get("scope") == "global"
                        and groups.get(l.dst) == dest_group
                    ][0]
                else:
                    hop = net.links_between(router, owner)[0]
            tables.set(router, dest, hop.src_port)
    return tables


def dragonfly_vc_assign(net: Network):
    """The hop-class escape ladder: VC 1 after the route's global hop.

    Returns ``f(route) -> list[int]`` for
    :func:`repro.deadlock.cdg.channel_dependency_graph_vc`: every channel
    up to and including the global link is virtual channel 0, everything
    after it (the destination group's local hop and the ejection) is
    virtual channel 1; purely local routes stay on VC 0.
    """

    def vc_assign(route: Route) -> list[int]:
        vcs: list[int] = []
        crossed = 0
        for link_id in route.links:
            vcs.append(crossed)
            if net.link(link_id).attrs.get("scope") == "global":
                crossed = 1
        return vcs

    return vc_assign
