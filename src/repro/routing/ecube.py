"""E-cube (dimension-order) routing for hypercubes.

Corrects address bits in a fixed order (lowest differing bit first by
default).  Because every route crosses dimensions in ascending order, the
channel-dependency graph is acyclic and the routing is deadlock-free -- the
hypercube analogue of mesh dimension-order routing referenced in §2.2.

Routers must carry an integer ``haddr`` attribute (their hypercube corner),
which the hypercube builder provides.
"""

from __future__ import annotations

from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable

__all__ = ["ecube_tables"]


def ecube_tables(net: Network, high_first: bool = False) -> RoutingTable:
    """Compile e-cube routing tables for a hypercube network.

    Args:
        net: hypercube whose routers carry ``haddr`` and whose
            ``attrs['dimensions']`` gives the cube order.
        high_first: correct the highest differing bit first instead of the
            lowest (both orders are deadlock-free; they stress different
            links).
    """
    ndim = net.attrs.get("dimensions")
    if ndim is None:
        raise RoutingError("network has no 'dimensions' attribute (not a hypercube?)")

    addr_to_router: dict[int, str] = {}
    for router in net.router_ids():
        haddr = net.node(router).attrs.get("haddr")
        if haddr is None:
            raise RoutingError(f"router {router!r} has no 'haddr' attribute")
        addr_to_router[haddr] = router

    bit_order = range(ndim - 1, -1, -1) if high_first else range(ndim)

    tables = RoutingTable(net)
    for dest in net.end_node_ids():
        dest_router = net.attached_router(dest)
        dest_addr = net.node(dest_router).attrs["haddr"]
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest][0]
        tables.set(dest_router, dest, ejection.src_port)

        for router in net.router_ids():
            if router == dest_router:
                continue
            addr = net.node(router).attrs["haddr"]
            diff = addr ^ dest_addr
            for bit in bit_order:
                if diff & (1 << bit):
                    neighbor = addr_to_router[addr ^ (1 << bit)]
                    links = net.links_between(router, neighbor)
                    tables.set(router, dest, links[0].src_port)
                    break
    return tables
