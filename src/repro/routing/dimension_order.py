"""Dimension-order routing for meshes and tori.

The classic deadlock-avoidance routing the paper describes in §2.2:
*"packets are routed first in one direction, say the X direction, then the
Y direction"*.  Completing one dimension before starting the next removes
every turn that could close a cycle in the channel-dependency graph of a
mesh, making wormhole routing deadlock-free without virtual channels.

Routers must carry a ``coord`` attribute (a tuple of per-dimension indices),
which the mesh/torus builders provide.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable

__all__ = ["dimension_order_tables"]


def _coord(net: Network, router: str) -> tuple[int, ...]:
    coord = net.node(router).attrs.get("coord")
    if coord is None:
        raise RoutingError(f"router {router!r} has no 'coord' attribute")
    return tuple(coord)


def _link_port(net: Network, a: str, b: str) -> int:
    links = net.links_between(a, b)
    if not links:
        raise RoutingError(f"no link {a!r} -> {b!r}")
    return links[0].src_port


def dimension_order_tables(
    net: Network,
    order: Sequence[int] | None = None,
    wrap: Sequence[int] | None = None,
) -> RoutingTable:
    """Compile dimension-order routing tables.

    Args:
        net: a mesh or torus whose routers have ``coord`` tuples and whose
            ``attrs['shape']`` records per-dimension sizes.
        order: dimension indices in routing order (default: ``0, 1, ...``).
            The paper's 2-D example corrects one dimension completely, then
            the other.
        wrap: dimensions that are rings (torus); in a wrapped dimension the
            shorter way around is taken, ties broken toward increasing index.
            Note that wrapped dimension-order routing is *not* deadlock-free
            without virtual channels -- the CDG analysis shows the ring cycle.

    Returns:
        RoutingTable with entries for every (router, end node) pair.
    """
    shape = net.attrs.get("shape")
    if shape is None:
        raise RoutingError("network has no 'shape' attribute (not a mesh/torus?)")
    ndim = len(shape)
    dims = list(order) if order is not None else list(range(ndim))
    if sorted(dims) != list(range(ndim)):
        raise RoutingError(f"order {dims} is not a permutation of dimensions")
    wrapped = set(wrap or net.attrs.get("wrap", ()))

    coord_to_router = {_coord(net, r): r for r in net.router_ids()}

    tables = RoutingTable(net)
    for dest in net.end_node_ids():
        dest_router = net.attached_router(dest)
        dest_coord = _coord(net, dest_router)
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest][0]
        tables.set(dest_router, dest, ejection.src_port)

        for router in net.router_ids():
            if router == dest_router:
                continue
            coord = _coord(net, router)
            nxt = _next_coord(coord, dest_coord, dims, shape, wrapped)
            tables.set(router, dest, _link_port(net, router, coord_to_router[nxt]))
    return tables


def _next_coord(
    coord: tuple[int, ...],
    dest: tuple[int, ...],
    dims: list[int],
    shape: Sequence[int],
    wrapped: set[int],
) -> tuple[int, ...]:
    """One dimension-order step from ``coord`` toward ``dest``."""
    for dim in dims:
        if coord[dim] == dest[dim]:
            continue
        size = shape[dim]
        if dim in wrapped:
            forward = (dest[dim] - coord[dim]) % size
            backward = (coord[dim] - dest[dim]) % size
            step = 1 if forward <= backward else -1
            new = (coord[dim] + step) % size
        else:
            step = 1 if dest[dim] > coord[dim] else -1
            new = coord[dim] + step
        out = list(coord)
        out[dim] = new
        return tuple(out)
    raise RoutingError("already at destination coordinate")
