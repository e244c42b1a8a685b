"""Routes, routing tables and route sets.

The paper's routing model (§2.3): *"these matches are actually done by
looking up entries in the routing table inside each router"*.  A routing
table maps a destination end node to an output port at each router; walking
the tables from a source yields the unique fixed path ServerNet requires for
in-order delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from repro.network.graph import Network, NetworkError

__all__ = [
    "Ejections",
    "Route",
    "RouteSet",
    "RoutingError",
    "RoutingTable",
    "all_pairs_routes",
    "compute_route",
    "ejections",
    "next_channel",
    "port_link_lut",
    "router_attrs",
    "routes_for_pairs",
    "sorted_unique",
]


class RoutingError(Exception):
    """Raised when a route cannot be derived from the tables."""


@dataclass(frozen=True)
class Route:
    """A fixed path from a source end node to a destination end node.

    Attributes:
        src: source end node id.
        dst: destination end node id.
        links: the unidirectional link ids traversed, in order.  The first
            link is the injection link (end node to router) and the last is
            the ejection link (router to end node) unless source and
            destination share a router in degenerate single-router systems.
        nodes: every node visited, starting at ``src`` and ending at ``dst``.
    """

    src: str
    dst: str
    links: tuple[str, ...]
    nodes: tuple[str, ...]

    @property
    def router_hops(self) -> int:
        """Number of routers traversed (the paper's "router hops"/"delays").

        A transfer between two nodes on the same router counts 1; the paper's
        "maximum delay of four router hops" for a 16-CPU system counts the
        routers visited, not the links.
        """
        return len(self.nodes) - 2

    @property
    def router_links(self) -> tuple[str, ...]:
        """The router-to-router links only (contention is measured on these)."""
        return self.links[1:-1]

    def __len__(self) -> int:
        return len(self.links)


#: Largest port a table entry can name: an ``int16`` cell's range (a
#: one-byte matrix widens to ``int16`` on the first port above 127).
MAX_PORT = 32767

#: Largest port a one-byte (``int8``) matrix cell holds.
_BYTE_MAX = 127


def _port_dtype(net: Network) -> type:
    """``int8`` when the network's widest router has at most 127 ports
    (every port number fits one byte), ``int16`` otherwise."""
    widths = net.link_arrays().router_ports
    return np.int8 if not widths.size or int(widths.max()) <= _BYTE_MAX else np.int16


class RoutingTable:
    """Per-router destination-indexed forwarding tables.

    ``table[router][dest] -> output port``.  Destinations are end-node ids;
    entries exist for every destination a router may have to forward toward,
    including locally-attached ones (whose entry names the ejection port).

    The entries live in one dense matrix,
    ``ports[router_index, end_index]`` over the indices of the network the
    table was built on, with ``-1`` where the router has no entry for that
    destination.  A ServerNet router has 6 ports (§2.3), so the matrix is
    ``int8`` whenever the network's widest router has at most 127 ports:
    one byte per cell keeps a depth-4 fractahedron's ~65M entries at
    ~65 MB.  Wider routers start at ``int16``, and :meth:`set` widens a
    one-byte matrix the first time it names a port above 127.  The
    engines and the array route walk read this matrix directly
    (:func:`next_channel`), never a widened copy.
    """

    def __init__(
        self, net: Network, entries: Mapping[str, Mapping[str, int]] | None = None
    ) -> None:
        self._idx = idx = net.indices()
        shape = (len(idx.router_ids), len(idx.end_ids))
        self.ports = np.full(shape, -1, dtype=_port_dtype(net))
        for router, dests in (entries or {}).items():
            for dest, port in dests.items():
                self.set(router, dest, port)

    def set(self, router: str, dest: str, port: int) -> None:
        if not self.ports.flags.writeable:
            raise RoutingError(
                "routing table is frozen (shared by the routing-table cache); "
                "edit a .copy() instead"
            )
        if not 0 <= port <= MAX_PORT:
            raise RoutingError(f"port {port!r} outside 0-{MAX_PORT}")
        r = self._idx.router_index.get(router)
        e = self._idx.end_index.get(dest)
        if r is None or e is None:
            raise RoutingError(f"{router!r}/{dest!r} not indexed by this RoutingTable")
        if port > _BYTE_MAX and self.ports.itemsize == 1:
            self.ports = self.ports.astype(np.int16)
        self.ports[r, e] = port

    def freeze(self) -> "RoutingTable":
        """Make the table read-only (``set`` raises); returns ``self``."""
        self.ports.flags.writeable = False
        return self

    def lookup(self, router: str, dest: str) -> int:
        r = self._idx.router_index.get(router)
        e = self._idx.end_index.get(dest)
        if r is not None and e is not None:
            port = self.ports.item(r, e)
            if port >= 0:
                return port
        raise RoutingError(f"router {router!r} has no entry for dest {dest!r}")

    def has_entry(self, router: str, dest: str) -> bool:
        r = self._idx.router_index.get(router)
        e = self._idx.end_index.get(dest)
        return r is not None and e is not None and self.ports.item(r, e) >= 0

    def routers(self) -> list[str]:
        used = (self.ports >= 0).any(axis=1)
        return [r for r, u in zip(self._idx.router_ids, used.tolist()) if u]

    def entries(self, router: str) -> dict[str, int]:
        """Copy of one router's table."""
        r = self._idx.router_index.get(router)
        if r is None:
            return {}
        row = self.ports[r]
        cols = np.flatnonzero(row >= 0)
        end_ids = self._idx.end_ids
        return {end_ids[e]: p for e, p in zip(cols.tolist(), row[cols].tolist())}

    def items(self) -> Iterator[tuple[str, str, int]]:
        router_ids, end_ids = self._idx.router_ids, self._idx.end_ids
        rs, es = np.nonzero(self.ports >= 0)
        for r, e, port in zip(rs.tolist(), es.tolist(), self.ports[rs, es].tolist()):
            yield router_ids[r], end_ids[e], port

    def num_entries(self) -> int:
        return int(np.count_nonzero(self.ports >= 0))

    def used_output_ports(self, router: str) -> set[int]:
        """Ports a router ever forwards onto (for disable synthesis)."""
        r = self._idx.router_index.get(router)
        if r is None:
            return set()
        row = self.ports[r]
        return set(row[row >= 0].tolist())

    def copy(self) -> "RoutingTable":
        """An editable copy (also of a frozen table)."""
        out = object.__new__(type(self))
        out._idx, out.ports = self._idx, self.ports.copy()
        return out

    def ports_on(self, net: Network) -> np.ndarray:
        """The port matrix indexed by ``net.indices()``.

        ``ports`` itself when the network still has the router and end ids
        the table was built on; otherwise a copy re-indexed by id, where
        entries for ids the network no longer has drop out and ids the
        table never saw have none.  Either way the dtype is the table's.
        """
        idx, own = net.indices(), self._idx
        if idx.router_ids == own.router_ids and idx.end_ids == own.end_ids:
            return self.ports
        padded = np.full((self.ports.shape[0] + 1, self.ports.shape[1] + 1), -1, self.ports.dtype)
        padded[:-1, :-1] = self.ports
        # ids the table lacks map to -1: the padding row / column
        rows = np.array([own.router_index.get(r, -1) for r in idx.router_ids], np.intp)
        cols = np.array([own.end_index.get(e, -1) for e in idx.end_ids], np.intp)
        return padded[rows[:, None], cols]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RoutingTable {self.ports.shape[0]} routers x "
            f"{self.ports.shape[1]} dests, {self.num_entries()} entries>"
        )


class Ejections(NamedTuple):
    """Per end node (``indices()`` order): the router it hangs off, and
    that router's lowest port and link to it; ``-1`` where the end is not
    cabled to exactly one router."""

    router: np.ndarray
    port: np.ndarray
    link: np.ndarray

    def require(self, net: Network, end_id: str) -> tuple[int, int, int, int]:
        """``(end index, router, port, link)`` of end node ``end_id``, or
        :meth:`Network.attached_router`'s :class:`NetworkError` for an id
        that is not an end on one router."""
        e = net.indices().end_index.get(end_id)
        if e is None or self.link[e] < 0:
            other = net.attached_router(end_id)  # raises unless an end on one node
            raise NetworkError(f"end node {end_id!r} attaches to {other!r}, not a router")
        return e, int(self.router[e]), int(self.port[e]), int(self.link[e])

    def ends(self, net: Network) -> Iterator[tuple[str, str, int, str]]:
        """``(end, router, port, link id)`` per end node, in order; raises
        at the first end not on one router, as :meth:`require` does."""
        idx = net.indices()
        for dest in idx.end_ids:
            _, r, port, link = self.require(net, dest)
            yield dest, idx.router_ids[r], port, idx.link_ids[link]


def ejections(net: Network) -> Ejections:
    """Every end node's :class:`Ejections` entry, from ``link_arrays()``."""
    arr = net.link_arrays()
    R, E = arr.num_routers, arr.injection.size
    # an end is on one node when all its links go where its injection link goes
    hub = np.full(E, -1, dtype=np.int64)
    cabled = arr.injection >= 0
    hub[cabled] = arr.dst[arr.injection[cabled]]
    out = np.flatnonzero(~arr.src_is_router)
    end = arr.src[out] - R
    stray = np.bincount(end[arr.dst[out] != hub[end]], minlength=E)
    router = np.where(stray == 0, hub, -1)
    # that router's links back to the end, lowest port first
    back = np.flatnonzero(arr.src_is_router & ~arr.dst_is_router)
    back = back[arr.src[back] == router[arr.dst[back] - R]]
    back = back[np.argsort(arr.src_port[back], kind="stable")]
    ends, first = np.unique(arr.dst[back] - R, return_index=True)
    link = np.full(E, -1, dtype=np.int64)
    link[ends] = back[first]
    has = link >= 0
    return Ejections(np.where(has, router, -1), np.where(has, arr.src_port[link], -1), link)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of an integer array, by sort and neighbour compare.

    A plain ``np.unique`` imports :mod:`numpy.ma` on its first call in a
    process, 10-20 ms that would land in a cold run's set-up.
    """
    out = np.sort(values, axis=None)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def router_attrs(net: Network, name: str, missing: str) -> list:
    """Every router's ``name`` attribute, in order; the first router
    without one raises a :class:`RoutingError` of ``missing.format(id)``."""
    values = [net.node(r).attrs.get(name) for r in net.router_ids()]
    if None in values:
        raise RoutingError(missing.format(net.router_ids()[values.index(None)]))
    return values


def port_link_lut(net: Network, ports: np.ndarray, vc_count: int = 1) -> np.ndarray:
    """Per-router ``port -> link_index * vc_count`` lookup for ``ports``.

    Indexed by ``net.indices()``; ``-1`` where a port is uncabled.  The
    table is wide enough for the largest port in ``ports`` plus one
    trailing ``-1`` column, so an absent entry (``-1``, which reads the
    last column), an uncabled port and a port past the widest router all
    read ``-1`` with no per-lookup clamp.  Reads the network's
    :meth:`~repro.network.graph.Network.link_arrays` view.
    """
    arr = net.link_arrays()
    max_ports = int(arr.router_ports.max()) if arr.router_ports.size else 0
    top = int(ports.max()) + 1 if ports.size else 0
    lut = np.full((arr.num_routers, max(max_ports, top) + 1), -1, dtype=np.int32)
    out = np.flatnonzero(arr.src_is_router)
    lut[arr.src[out], arr.src_port[out]] = out * vc_count
    return lut


def next_channel(
    lut: np.ndarray, ports: np.ndarray, routers: np.ndarray, dests: np.ndarray
) -> np.ndarray:
    """``lut[r, ports[r, e]]`` for each (router, destination end) pair: the
    base channel a head at router ``r`` bound for end ``e`` forwards onto,
    ``-1`` where the router has no usable entry.

    Both gathers are flat ``take``s over C-contiguous matrices.  A ``-1``
    port lands on the previous row's last column (or, for router 0, the
    matrix's last cell), which :func:`port_link_lut` keeps ``-1``.
    """
    p = ports.take(routers * ports.shape[1] + dests)
    return lut.take(routers * lut.shape[1] + p)


def compute_route(net: Network, tables: RoutingTable, src: str, dst: str) -> Route:
    """Walk the routing tables from ``src`` to ``dst`` as a packet would.

    Raises :class:`RoutingError` on missing entries, routing loops (more
    steps than links in the network) or arrival anywhere but ``dst``.
    """
    if src == dst:
        raise RoutingError("source and destination are identical")
    src_node = net.node(src)
    if not src_node.is_end_node:
        raise RoutingError(f"source {src!r} is not an end node")

    injection = net.out_links(src)
    if len(injection) != 1:
        raise RoutingError(f"source {src!r} must have exactly one injection link")
    links = [injection[0].link_id]
    nodes = [src, injection[0].dst]
    current = injection[0].dst

    max_steps = net.num_links + 1
    for _ in range(max_steps):
        if current == dst:
            return Route(src, dst, tuple(links), tuple(nodes))
        if not net.node(current).is_router:
            raise RoutingError(
                f"route {src}->{dst} entered non-router, non-destination node {current!r}"
            )
        port = tables.lookup(current, dst)
        link = net.out_link_on_port(current, port)
        links.append(link.link_id)
        nodes.append(link.dst)
        current = link.dst
    raise RoutingError(f"routing loop detected for {src}->{dst}")


class RouteSet:
    """A collection of fixed routes, indexed by (source, destination).

    This is the object every static metric (contention, channel load,
    hop statistics, channel-dependency graph) is computed from.
    """

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        self._routes: dict[tuple[str, str], Route] = {}
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> None:
        self._routes[(route.src, route.dst)] = route

    def get(self, src: str, dst: str) -> Route:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise RoutingError(f"no route {src}->{dst} in route set") from None

    def has(self, src: str, dst: str) -> bool:
        return (src, dst) in self._routes

    def routes(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def pairs(self) -> list[tuple[str, str]]:
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def link_usage(self) -> dict[str, list[Route]]:
        """Map each link id to the routes traversing it."""
        usage: dict[str, list[Route]] = {}
        for route in self._routes.values():
            for link in route.links:
                usage.setdefault(link, []).append(route)
        return usage

    def router_link_usage(self, net: Network) -> dict[str, list[Route]]:
        """Like :meth:`link_usage` but restricted to router-to-router links."""
        usage = self.link_usage()
        return {
            l.link_id: usage.get(l.link_id, [])
            for l in net.router_links()
        }


def all_pairs_routes(net: Network, tables: RoutingTable) -> RouteSet:
    """Routes between every ordered pair of distinct end nodes."""
    ends = net.end_node_ids()
    return routes_for_pairs(net, tables, ((s, d) for s in ends for d in ends if s != d))


def routes_for_pairs(
    net: Network, tables: RoutingTable, pairs: Iterable[tuple[str, str]]
) -> RouteSet:
    """Routes for an explicit set of (source, destination) pairs."""
    rs = RouteSet()
    for src, dst in pairs:
        rs.add(compute_route(net, tables, src, dst))
    return rs
