"""Core network data model: nodes, ports, unidirectional links.

The model mirrors the physical structure of a ServerNet fabric:

* **Routers** are packet switches with a fixed number of ports (6 for the
  first-generation ServerNet router ASIC).
* **End nodes** (CPUs, I/O adapters) have one or more ports.
* A **port** is full duplex: connecting port ``pa`` of node ``a`` to port
  ``pb`` of node ``b`` creates *two* unidirectional links (:class:`Link`),
  one per direction, exactly like the paired unidirectional cables of a
  ServerNet link.

Unidirectional links are the *channels* of Dally & Seitz channel-dependency
analysis, so modelling them explicitly (rather than as undirected edges)
is what lets the deadlock machinery work unmodified on every topology.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from typing import Any, Iterable, Iterator

import numpy as np

__all__ = [
    "LINK_SEP",
    "Link",
    "LinkArrays",
    "LinkPair",
    "Network",
    "NetworkError",
    "NetworkIndices",
    "Node",
    "NodeKind",
    "PortBudgetError",
    "PortInUseError",
]

#: Separator used when composing link identifiers from endpoint identifiers.
LINK_SEP = "->"


class NetworkError(Exception):
    """Base class for structural network errors."""


class PortBudgetError(NetworkError):
    """Raised when a connection would exceed a node's port count."""


class PortInUseError(NetworkError):
    """Raised when a connection targets a port that is already cabled."""


class NodeKind(Enum):
    """The two kinds of network citizens."""

    ROUTER = "router"
    END_NODE = "end_node"


@dataclass(frozen=True)
class Node:
    """A router or end node.

    Attributes:
        node_id: Unique string identifier.
        kind: Whether this is a packet switch or a traffic endpoint.
        num_ports: Total full-duplex ports available on the device.
        attrs: Free-form metadata (e.g. grid coordinates, tetra corner).
    """

    node_id: str
    kind: NodeKind
    num_ports: int
    attrs: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def is_router(self) -> bool:
        return self.kind is NodeKind.ROUTER

    @property
    def is_end_node(self) -> bool:
        return self.kind is NodeKind.END_NODE


@dataclass(frozen=True)
class Link:
    """One unidirectional channel between two nodes.

    Links always exist in duplex pairs; :attr:`reverse_id` names the paired
    channel running the opposite way over the same cable.
    """

    link_id: str
    src: str
    src_port: int
    dst: str
    dst_port: int
    attrs: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def reverse_id(self) -> str:
        return make_link_id(self.dst, self.dst_port, self.src, self.src_port)


def make_link_id(src: str, src_port: int, dst: str, dst_port: int) -> str:
    """Canonical identifier for the channel ``src:port -> dst:port``."""
    return f"{src}:{src_port}{LINK_SEP}{dst}:{dst_port}"


@dataclass(frozen=True)
class NetworkIndices:
    """Stable dense integer indices for one structural revision of a network.

    Link indices follow ``sorted(link_ids)`` so that sorting by index is
    exactly sorting by link-id string -- the property the compiled simulator
    core relies on to reproduce the reference engine's arbitration order
    bit for bit.  Router and end-node indices follow insertion order, the
    same order ``router_ids()`` / ``end_node_ids()`` report.
    """

    version: int
    link_ids: tuple[str, ...]
    link_index: dict[str, int]
    router_ids: tuple[str, ...]
    router_index: dict[str, int]
    end_ids: tuple[str, ...]
    end_index: dict[str, int]


@dataclass(frozen=True)
class LinkArrays:
    """Integer arrays over the links of one structural revision.

    Link ``i`` is ``NetworkIndices.link_ids[i]``.  Nodes are numbered
    routers first, then end nodes, each in ``indices()`` order: node
    ``n < num_routers`` is router index ``n``, any other is end index
    ``n - num_routers``.  Built from the network's cable columns and cached
    per :attr:`Network.version`, so the route LUT, the array route walk, the
    simulator IR, the fractahedral table fill and the network fingerprint
    all read the same read-only arrays, and none of them needs a
    :class:`Link` object.
    """

    version: int
    num_routers: int
    #: per link: source / destination node index and cabled port
    src: np.ndarray
    dst: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    #: per link: whether the source / destination is a router
    src_is_router: np.ndarray
    dst_is_router: np.ndarray
    #: per router: its port count
    router_ports: np.ndarray
    #: per end node: its lowest-port outgoing link (-1 when uncabled) and
    #: its number of outgoing links
    injection: np.ndarray
    end_out_degree: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # shared by every reader

    def dst_router(self) -> np.ndarray:
        """Per link: the destination's router index, -1 for an end node."""
        return np.where(self.dst_is_router, self.dst, -1)

    def dst_end(self) -> np.ndarray:
        """Per link: the destination's end index, -1 for a router."""
        return np.where(self.dst_is_router, -1, self.dst - self.num_routers)


class LinkPair(Sequence[Link]):
    """The ``(a_to_b, b_to_a)`` links of one cable, made on first access.

    :meth:`Network.connect` returns this rather than a tuple, so a build
    that never looks at the links it cables creates no :class:`Link`.
    Unpacking, indexing and comparing behave as for the tuple, and the
    links are the network's own objects while the cable is connected.
    """

    __slots__ = ("_net", "_cable")

    def __init__(self, net: "Network", cable: int) -> None:
        self._net = net
        self._cable = cable

    def _pair(self) -> tuple[Link, Link]:
        return self._net._cable_links(self._cable)

    def __getitem__(self, i):
        return self._pair()[i]

    def __iter__(self) -> Iterator[Link]:
        return iter(self._pair())

    def __len__(self) -> int:
        return 2

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LinkPair):
            other = other._pair()
        return self._pair() == other

    def __hash__(self) -> int:
        return hash(self._pair())

    def __repr__(self) -> str:
        return repr(self._pair())


class Network:
    """A directed network of routers and end nodes.

    The class stores nodes and unidirectional links, maintains per-node port
    occupancy, and offers the queries the rest of the library builds on
    (neighbours, attached routers, router/end-node iteration, conversion to
    :mod:`networkx` graphs for min-cut and path computations).

    Cables are kept as columns: cable ``c`` (the ``c``-th one cabled)
    holds its two node slots and ports, and its two directions are link
    slots ``2c`` (``a -> b``) and ``2c + 1`` (``b -> a``).  :class:`Link`
    objects are a view over the columns, built on the first query that
    returns one and then kept in step by every mutation.
    :meth:`add_nodes` and :meth:`connect_many` fill the columns many rows
    at a time, with the same results and errors as the one-at-a-time
    calls.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self.attrs: dict[str, Any] = {}
        #: structural revision counter -- bumped on every node/link mutation
        #: so derived artifacts (index maps, compiled IRs) can detect staleness
        self._version = 0
        self._indices: "NetworkIndices | None" = None
        #: per link index of ``_indices``: its link slot
        self._index_slots: np.ndarray | None = None
        self._link_arrays: LinkArrays | None = None
        #: insertion-ordered id arenas, so router/end iteration is O(kind
        #: size) instead of a full-node scan (which turned every table
        #: build into an O(N^2) pass on deep fractahedrons)
        self._router_ids: list[str] = []
        self._end_ids: list[str] = []
        #: node id -> node slot; slots are never reused, so a removed
        #: node's cables keep naming it
        self._node_slot: dict[str, int] = {}
        #: per node slot: its id, and per port the link slot of the
        #: outgoing link cabled there (-1 when free); the incoming link on
        #: that port is the other direction of the same cable, ``slot ^ 1``.
        #: The ports of every slot share one column: slot ``s`` owns
        #: entries ``_port_base[s]`` up to ``_port_base[s + 1]``
        self._slot_ids: list[str] = []
        self._port_link = array("i")
        self._port_base = array("i", [0])
        #: per cable: a's node slot, a's port, b's node slot, b's port
        self._cables = array("i")
        #: per cable: 1 while connected; a disconnected cable stays in the
        #: columns, so the others keep their insertion order
        self._live = bytearray()
        #: per link slot: that direction's attrs, or while its
        #: ``_attrs_shared`` byte is set, the template of a
        #: :meth:`connect_many` call, copied on first use
        self._link_attrs: list[dict[str, Any]] = []
        self._attrs_shared = bytearray()
        self._num_links = 0
        #: (version, link slots, link ids) of the live links in insertion order
        self._live_cache: tuple[int, np.ndarray, list[str]] | None = None
        #: the Link view: link id -> Link in insertion order, and per link
        #: slot its Link (None once disconnected); None until first queried
        self._view: dict[str, Link] | None = None
        self._slot_link: list[Link | None] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_router(self, node_id: str, num_ports: int, **attrs: Any) -> Node:
        """Add a router with ``num_ports`` full-duplex ports."""
        return self._add_node(Node(node_id, NodeKind.ROUTER, num_ports, dict(attrs)))

    def add_end_node(self, node_id: str, num_ports: int = 1, **attrs: Any) -> Node:
        """Add an end node (CPU or I/O adapter); single-ported by default."""
        return self._add_node(Node(node_id, NodeKind.END_NODE, num_ports, dict(attrs)))

    def _add_node(self, node: Node) -> Node:
        if node.node_id in self._nodes:
            raise NetworkError(f"duplicate node id {node.node_id!r}")
        if node.num_ports < 1:
            raise NetworkError(f"node {node.node_id!r} must have at least one port")
        self._nodes[node.node_id] = node
        self._node_slot[node.node_id] = len(self._slot_ids)
        self._slot_ids.append(node.node_id)
        self._port_link.extend(repeat(-1, node.num_ports))
        self._port_base.append(len(self._port_link))
        if node.is_router:
            self._router_ids.append(node.node_id)
        else:
            self._end_ids.append(node.node_id)
        self._version += 1
        return node

    def connect(
        self,
        a: str,
        a_port: int,
        b: str,
        b_port: int,
        **attrs: Any,
    ) -> LinkPair:
        """Cable port ``a_port`` of ``a`` to port ``b_port`` of ``b``.

        Creates the duplex pair of unidirectional links and returns
        ``(a_to_b, b_to_a)`` as a :class:`LinkPair`.  Raises
        :class:`PortBudgetError` or :class:`PortInUseError` when the
        physical connection is impossible.
        """
        sa, sb = self._node_slot.get(a), self._node_slot.get(b)
        if sa is None or sb is None:
            self._slot(a)
            self._slot(b)  # raises: one of the two is unknown
        if a == b:
            raise NetworkError(f"self-link on {a!r} is not allowed")
        base, links = self._port_base, self._port_link
        for node_id, slot, port in ((a, sa, a_port), (b, sb, b_port)):
            lo = base[slot]
            if not 0 <= port < base[slot + 1] - lo:
                raise PortBudgetError(
                    f"port {port} out of range for {node_id!r} "
                    f"({base[slot + 1] - lo} ports)"
                )
            if links[lo + port] >= 0:
                raise PortInUseError(f"port {port} of {node_id!r} already cabled")
        cable = len(self._live)
        links[base[sa] + a_port] = 2 * cable
        links[base[sb] + b_port] = 2 * cable + 1
        self._cables.extend((sa, a_port, sb, b_port))
        self._live.append(1)
        self._link_attrs += (attrs, dict(attrs))
        self._attrs_shared += b"\0\0"
        self._num_links += 2
        self._version += 1
        if self._view is not None:
            self._slot_link += self._view_add(cable)
        return LinkPair(self, cable)

    def connect_next_free(self, a: str, b: str, **attrs: Any) -> LinkPair:
        """Cable ``a`` to ``b`` using the lowest free port on each side."""
        return self.connect(a, self.next_free_port(a), b, self.next_free_port(b), **attrs)

    def add_nodes(self, nodes: Sequence[Node]) -> None:
        """Add many nodes, as :meth:`add_router` / :meth:`add_end_node`
        would one by one, in order.

        The nodes are kept as given, their attrs dicts included.  When a
        node is invalid (duplicate id, no ports), the nodes are added one
        at a time instead, so the first invalid one raises the same error
        after the ones before it are in.
        """
        ids = [node.node_id for node in nodes]
        ports = np.asarray([node.num_ports for node in nodes])
        if (
            len(set(ids)) < len(ids)
            or not self._nodes.keys().isdisjoint(ids)
            or (ports.size and (ports.dtype.kind != "i" or ports.min() < 1))
        ):
            for node in nodes:
                self._add_node(node)
            return
        first = len(self._slot_ids)
        self._nodes.update(zip(ids, nodes))
        self._node_slot.update(zip(ids, range(first, first + len(ids))))
        self._slot_ids += ids
        top = len(self._port_link)
        self._port_link += array("i", [-1]) * int(ports.sum())
        self._port_base.extend((np.cumsum(ports) + top).tolist())
        routers = [node.kind is NodeKind.ROUTER for node in nodes]
        self._router_ids += compress(ids, routers)
        self._end_ids += compress(ids, [not r for r in routers])
        self._version += len(ids)

    def connect_many(
        self,
        a: Sequence[str],
        b: Sequence[str],
        ports: tuple[Sequence[int], Sequence[int]] | None = None,
        attrs: Sequence[dict[str, Any]] | None = None,
        attrs_of: Sequence[int] | None = None,
    ) -> None:
        """Cable ``a[i]`` to ``b[i]`` for every row ``i``, in order.

        With ``ports=(a_ports, b_ports)`` this is one :meth:`connect` per
        row; without, one :meth:`connect_next_free` per row: each node's
        k-th cable of the call takes its k-th port free at the start.
        Row ``i``'s attrs are ``attrs[attrs_of[i]]`` (``attrs[0]`` when
        ``attrs_of`` is None; none when ``attrs`` is None).  The cables
        share that dict as a template: each direction gets its own copy
        the first time its :class:`Link` is made, so editing one never
        changes another.

        The rows are checked with array passes before anything changes.
        When one is invalid, the rows are replayed through
        :meth:`connect` / :meth:`connect_next_free`, so the first invalid
        row raises the same error after the rows before it are cabled.
        """
        n = len(a)
        if len(b) != n:
            raise ValueError(f"{n} a ends but {len(b)} b ends")
        templates = list(attrs) if attrs is not None else [{}]
        which = (
            np.zeros(n, np.intp) if attrs_of is None else np.asarray(attrs_of, np.intp)
        )
        get = self._node_slot.get
        ends = np.empty((n, 2), np.int64)
        ends[:, 0] = np.fromiter(map(get, a, repeat(-1)), np.int64, n)
        ends[:, 1] = np.fromiter(map(get, b, repeat(-1)), np.int64, n)
        ends = ends.reshape(-1)  # call order: row i's a end, then its b end
        ok = bool((ends >= 0).all() and (ends[0::2] != ends[1::2]).all())
        if ok:
            base = np.frombuffer(self._port_base, np.intc)
            lo, hi = base[ends], base[ends + 1]
            taken = np.frombuffer(self._port_link, np.intc) >= 0
            if ports is None:
                port, ok = _next_free(ends, lo, hi, taken)
            else:
                given = [np.asarray(p) for p in ports]
                ok = all(p.dtype.kind in "iu" for p in given)  # else connect raises
                if ok:
                    port = np.empty(2 * n, np.int64)
                    port[0::2], port[1::2] = given
                    ok = bool(((port >= 0) & (port < hi - lo)).all())
                if ok:
                    pos = np.sort(lo + port)
                    ok = not taken[pos].any() and bool((pos[1:] != pos[:-1]).all())
            del base, taken  # no numpy view may pin the growable columns
        if not ok:
            for i in range(n):
                kw = templates[which[i]]
                if ports is None:
                    self.connect_next_free(a[i], b[i], **kw)
                else:
                    self.connect(a[i], ports[0][i], b[i], ports[1][i], **kw)
            return
        shared = np.empty(len(templates), object)
        shared[:] = templates
        per_link = shared[np.repeat(which, 2)].tolist()
        cable = len(self._live)
        np.frombuffer(self._port_link, np.intc)[lo + port] = np.arange(
            2 * cable, 2 * (cable + n), dtype=np.intc
        )
        self._cables += array("i", np.stack([ends, port], 1).astype(np.intc).tobytes())
        self._live += b"\1" * n
        self._link_attrs += per_link
        self._attrs_shared += b"\1" * (2 * n)
        self._num_links += 2 * n
        self._version += n
        if self._view is not None:
            for c in range(cable, cable + n):
                self._slot_link += self._view_add(c)

    def disconnect(self, link_id: str) -> None:
        """Remove a duplex connection given either direction's link id."""
        slot = self._find_link(link_id)
        if slot < 0:
            raise NetworkError(f"unknown link {link_id!r}")
        self._cut(slot >> 1)

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every cable attached to it."""
        node = self.node(node_id)
        slot = self._node_slot.pop(node_id)
        for link in self._node_ports(slot):
            if link >= 0:
                self._cut(link >> 1)
        del self._nodes[node_id]
        if node.is_router:
            self._router_ids.remove(node_id)
        else:
            self._end_ids.remove(node_id)
        self._version += 1

    def _cut(self, cable: int) -> None:
        sa, pa, sb, pb = self._cables[4 * cable : 4 * cable + 4]
        base = self._port_base
        self._port_link[base[sa] + pa] = self._port_link[base[sb] + pb] = -1
        self._live[cable] = 0
        self._num_links -= 2
        if self._view is not None:
            for slot in (2 * cable, 2 * cable + 1):
                del self._view[self._slot_link[slot].link_id]
                self._slot_link[slot] = None
        self._version += 1

    def _node_ports(self, slot: int) -> array:
        """Per port of a node slot: the outgoing link slot, -1 when free."""
        return self._port_link[self._port_base[slot] : self._port_base[slot + 1]]

    def _link_ends(self, slot: int) -> tuple[int, int, int, int]:
        """A link slot's (source slot, port, destination slot, port)."""
        sa, pa, sb, pb = self._cables[2 * (slot & ~1) : 2 * (slot & ~1) + 4]
        return (sb, pb, sa, pa) if slot & 1 else (sa, pa, sb, pb)

    def _find_link(self, link_id: str) -> int:
        """The link slot of a connected link's id, or -1, without the
        Link view: each ``->`` in the id is tried as the separator."""
        at = link_id.find(LINK_SEP)
        while at >= 0:
            node, _, port = link_id[:at].rpartition(":")
            slot = self._node_slot.get(node)
            ports = self._node_ports(slot) if slot is not None else ()
            if port.isdecimal() and int(port) < len(ports):
                link = ports[int(port)]
                if link >= 0:
                    sa, pa, sb, pb = self._link_ends(link)
                    names = self._slot_ids
                    if make_link_id(names[sa], pa, names[sb], pb) == link_id:
                        return link
            at = link_id.find(LINK_SEP, at + 1)
        return -1

    # ------------------------------------------------------------------
    # the Link view
    # ------------------------------------------------------------------
    def _own_attrs(self, slot: int) -> dict[str, Any]:
        """A link slot's own attrs dict, copied from its template on first use."""
        if self._attrs_shared[slot]:
            self._link_attrs[slot] = dict(self._link_attrs[slot])
            self._attrs_shared[slot] = 0
        return self._link_attrs[slot]

    def _make_links(self, cable: int) -> tuple[Link, Link]:
        sa, pa, sb, pb = self._cables[4 * cable : 4 * cable + 4]
        a, b = self._slot_ids[sa], self._slot_ids[sb]
        fwd, rev = self._own_attrs(2 * cable), self._own_attrs(2 * cable + 1)
        return (
            Link(make_link_id(a, pa, b, pb), a, pa, b, pb, fwd),
            Link(make_link_id(b, pb, a, pa), b, pb, a, pa, rev),
        )

    def _view_add(self, cable: int) -> tuple[Link, Link]:
        fwd, rev = pair = self._make_links(cable)
        self._view[fwd.link_id] = fwd
        self._view[rev.link_id] = rev
        return pair

    def _links_view(self) -> dict[str, Link]:
        """The Link view, built from the columns on first use."""
        view = self._view
        if view is None:
            view = self._view = {}
            slot_link: list[Link | None] = [None] * len(self._link_attrs)
            for cable in np.flatnonzero(np.frombuffer(self._live, np.uint8)).tolist():
                slot_link[2 * cable : 2 * cable + 2] = self._view_add(cable)
            self._slot_link = slot_link
        return view

    def _slot_links(self) -> list[Link | None]:
        self._links_view()
        return self._slot_link

    def _cable_links(self, cable: int) -> tuple[Link, Link]:
        """A cable's two links: the view's while connected, else fresh copies."""
        if not self._live[cable]:
            return self._make_links(cable)
        links = self._slot_links()
        return links[2 * cable], links[2 * cable + 1]

    def _live_links(self) -> tuple[np.ndarray, list[str]]:
        """Link slots and ids of the connected links, in insertion order."""
        got = self._live_cache
        if got is None or got[0] != self._version:
            cables = np.flatnonzero(np.frombuffer(self._live, np.uint8))
            slots = np.repeat(2 * cables, 2)
            slots[1::2] += 1
            # fancy indexing copies, so no numpy view pins the growable buffer
            a, pa, b, pb = np.frombuffer(self._cables, np.intc).reshape(-1, 4)[cables].T
            names = self._slot_ids
            a_end = [f"{names[n]}:{p}" for n, p in zip(a.tolist(), pa.tolist())]
            b_end = [f"{names[n]}:{p}" for n, p in zip(b.tolist(), pb.tolist())]
            ids = [""] * slots.size
            ids[0::2] = [x + LINK_SEP + y for x, y in zip(a_end, b_end)]
            ids[1::2] = [y + LINK_SEP + x for x, y in zip(a_end, b_end)]
            got = self._live_cache = (self._version, slots, ids)
        return got[1], got[2]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def _slot(self, node_id: str) -> int:
        try:
            return self._node_slot[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def link(self, link_id: str) -> Link:
        try:
            return self._links_view()[link_id]
        except KeyError:
            raise NetworkError(f"unknown link {link_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def has_link(self, link_id: str) -> bool:
        return link_id in self._links_view()

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def links(self) -> Iterator[Link]:
        return iter(self._links_view().values())

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def link_ids(self) -> list[str]:
        return list(self._live_links()[1])

    def link_attrs(self) -> list[dict[str, Any]]:
        """Every link's attrs, in :meth:`link_ids` order, without the Link view.

        For reading: a direction cabled by :meth:`connect_many` whose
        :class:`Link` was never made is listed with its call's shared
        template.  Edit attrs through :meth:`link`.
        """
        return list(map(self._link_attrs.__getitem__, self._live_links()[0].tolist()))

    def routers(self) -> list[Node]:
        return [self._nodes[nid] for nid in self._router_ids]

    def end_nodes(self) -> list[Node]:
        return [self._nodes[nid] for nid in self._end_ids]

    def router_ids(self) -> list[str]:
        return list(self._router_ids)

    def end_node_ids(self) -> list[str]:
        return list(self._end_ids)

    @property
    def version(self) -> int:
        """Structural revision; changes whenever nodes or links change."""
        return self._version

    def indices(self) -> NetworkIndices:
        """Dense integer index assignment for the current structure.

        Cached per :attr:`version`; any topology mutation invalidates it,
        so holders can compare ``indices().version`` to detect staleness.
        """
        got = self._indices
        if got is None or got.version != self._version:
            slots, ids = self._live_links()
            order = sorted(range(len(ids)), key=ids.__getitem__)
            link_ids = tuple(map(ids.__getitem__, order))
            self._index_slots = slots[np.array(order, dtype=np.intp)]
            got = self._indices = NetworkIndices(
                version=self._version,
                link_ids=link_ids,
                link_index=dict(zip(link_ids, range(len(link_ids)))),
                router_ids=tuple(self._router_ids),
                router_index={r: i for i, r in enumerate(self._router_ids)},
                end_ids=tuple(self._end_ids),
                end_index={e: i for i, e in enumerate(self._end_ids)},
            )
        return got

    def link_arrays(self) -> LinkArrays:
        """The :class:`LinkArrays` view of the current structure.

        Cached per :attr:`version` like :meth:`indices`; any mutation
        rebuilds it on the next call.  Read straight from the cable
        columns.
        """
        got = self._link_arrays
        if got is not None and got.version == self._version:
            return got
        idx = self.indices()
        slots = self._index_slots
        R, E, L = len(idx.router_ids), len(idx.end_ids), len(idx.link_ids)
        router_slots = list(map(self._node_slot.__getitem__, idx.router_ids))
        node_index = np.full(len(self._slot_ids), -1, dtype=np.int32)
        node_index[router_slots] = np.arange(R)
        node_index[list(map(self._node_slot.__getitem__, idx.end_ids))] = np.arange(R, R + E)
        # per link: its cable's (slot, port) ends, a's first; a reverse
        # link (odd slot) runs from b to a
        ends = np.frombuffer(self._cables, np.intc).reshape(-1, 2, 2)[slots >> 1]
        rev = slots & 1
        rows = np.arange(L)
        src_end, dst_end = ends[rows, rev], ends[rows, 1 - rev]
        src, dst = node_index[src_end[:, 0]], node_index[dst_end[:, 0]]
        src_port = np.ascontiguousarray(src_end[:, 1], dtype=np.int32)
        # end-sourced links sorted by (end, port): each end's first is its
        # lowest-port link
        from_end = np.flatnonzero(src >= R)
        by_end = from_end[np.lexsort((src_port[from_end], src[from_end]))]
        end_of = src[by_end] - R
        first = np.ones(end_of.size, dtype=bool)
        first[1:] = end_of[1:] != end_of[:-1]
        injection = np.full(E, -1, dtype=np.int32)
        injection[end_of[first]] = by_end[first]
        got = LinkArrays(
            version=self._version,
            num_routers=R,
            src=src,
            dst=dst,
            src_port=src_port,
            dst_port=np.ascontiguousarray(dst_end[:, 1], dtype=np.int32),
            src_is_router=src < R,
            dst_is_router=dst < R,
            router_ports=np.diff(np.frombuffer(self._port_base, np.intc))[router_slots].astype(
                np.int32
            ),
            injection=injection,
            end_out_degree=np.bincount(end_of, minlength=E).astype(np.int32),
        )
        self._link_arrays = got
        return got

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return self._num_links

    @property
    def num_routers(self) -> int:
        return len(self._router_ids)

    @property
    def num_end_nodes(self) -> int:
        return len(self._end_ids)

    def out_links(self, node_id: str) -> list[Link]:
        """Outgoing links of a node, in port order."""
        ports = self._node_ports(self._slot(node_id))
        links = self._slot_links()
        return [links[s] for s in ports if s >= 0]

    def in_links(self, node_id: str) -> list[Link]:
        """Incoming links of a node, in port order."""
        ports = self._node_ports(self._slot(node_id))
        links = self._slot_links()
        return [links[s ^ 1] for s in ports if s >= 0]

    def out_link_on_port(self, node_id: str, port: int) -> Link:
        """The outgoing link occupying a given port."""
        try:
            slot = self._node_ports(self._node_slot[node_id])[port] if port >= 0 else -1
        except (KeyError, IndexError, TypeError):
            slot = -1
        if slot < 0:
            raise NetworkError(f"no connection on port {port} of {node_id!r}")
        return self._slot_links()[slot]

    def port_of_link(self, link_id: str) -> int:
        """Output port used by a link at its source node."""
        return self.link(link_id).src_port

    def neighbors(self, node_id: str) -> list[str]:
        """Distinct nodes reachable over one outgoing link, in port order."""
        seen: list[str] = []
        for link in self.out_links(node_id):
            if link.dst not in seen:
                seen.append(link.dst)
        return seen

    def links_between(self, a: str, b: str) -> list[Link]:
        """All unidirectional links from ``a`` to ``b``."""
        return [l for l in self.out_links(a) if l.dst == b]

    def used_ports(self, node_id: str) -> int:
        """Number of ports of a node that are cabled."""
        ports = self._node_ports(self._slot(node_id))
        return len(ports) - ports.count(-1)

    def free_ports(self, node_id: str) -> int:
        return self._node_ports(self._slot(node_id)).count(-1)

    def next_free_port(self, node_id: str) -> int:
        """Lowest-numbered uncabled port, or raise :class:`PortBudgetError`."""
        try:
            return self._node_ports(self._slot(node_id)).index(-1)
        except ValueError:
            raise PortBudgetError(f"no free ports on {node_id!r}") from None

    def attached_router(self, end_node_id: str) -> str:
        """The router an end node hangs off (end nodes attach to exactly one)."""
        node = self.node(end_node_id)
        if not node.is_end_node:
            raise NetworkError(f"{end_node_id!r} is not an end node")
        routers = {l.dst for l in self.out_links(end_node_id)}
        if len(routers) != 1:
            raise NetworkError(
                f"end node {end_node_id!r} attaches to {len(routers)} routers; expected 1"
            )
        return routers.pop()

    def attached_end_nodes(self, router_id: str) -> list[str]:
        """End nodes directly cabled to a router, in port order."""
        return [l.dst for l in self.out_links(router_id) if self.node(l.dst).is_end_node]

    def router_links(self) -> list[Link]:
        """All router-to-router unidirectional links (the contention carriers)."""
        return [
            l
            for l in self._links_view().values()
            if self._nodes[l.src].is_router and self._nodes[l.dst].is_router
        ]

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_networkx(self, routers_only: bool = False):
        """Directed graph view (one edge per unidirectional link).

        Args:
            routers_only: drop end nodes and their injection/ejection links.
        """
        import networkx as nx

        g = nx.DiGraph()
        for node in self._nodes.values():
            if routers_only and not node.is_router:
                continue
            g.add_node(node.node_id, kind=node.kind.value, **node.attrs)
        for link in self._links_view().values():
            if routers_only and not (
                self._nodes[link.src].is_router and self._nodes[link.dst].is_router
            ):
                continue
            g.add_edge(link.src, link.dst, link_id=link.link_id, **link.attrs)
        return g

    def to_networkx_undirected(self, routers_only: bool = False):
        """Undirected view with one edge per duplex cable (for min-cuts)."""
        import networkx as nx

        g = nx.Graph()
        for node in self._nodes.values():
            if routers_only and not node.is_router:
                continue
            g.add_node(node.node_id, kind=node.kind.value, **node.attrs)
        seen: set[str] = set()
        for link in self._links_view().values():
            if link.link_id in seen:
                continue  # the reverse direction of a cable already counted
            seen.add(link.link_id)
            seen.add(link.reverse_id)
            if routers_only and not (
                self._nodes[link.src].is_router and self._nodes[link.dst].is_router
            ):
                continue
            if not g.has_edge(link.src, link.dst):
                g.add_edge(link.src, link.dst, capacity=1)
            else:
                # Parallel duplex cables between the same pair add capacity.
                g[link.src][link.dst]["capacity"] += 1
        return g

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def port_histogram(self) -> dict[int, int]:
        """Map ``used port count -> number of routers`` (for cost analysis)."""
        hist: dict[int, int] = {}
        for router in self.routers():
            used = self.used_ports(router.node_id)
            hist[used] = hist.get(used, 0) + 1
        return hist

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network {self.name!r}: {self.num_routers} routers, "
            f"{self.num_end_nodes} end nodes, {self.num_links} links>"
        )


def _next_free(
    ends: np.ndarray, lo: np.ndarray, hi: np.ndarray, taken: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Per entry of ``ends`` (node slots in call order, spanning ports
    ``lo`` up to ``hi`` of the ``taken`` column): the port a run of
    :meth:`Network.connect_next_free` calls would give it, that is the
    node's k-th free port for its k-th entry; and whether every node had
    enough free ports."""
    order = np.argsort(ends, kind="stable")
    run = np.ones(ends.size, dtype=bool)
    run[1:] = ends[order[1:]] != ends[order[:-1]]
    start = np.flatnonzero(run)
    rank = np.empty(ends.size, np.int64)
    rank[order] = np.arange(ends.size) - np.repeat(start, np.diff(np.append(start, ends.size)))
    free = np.flatnonzero(~taken)
    below = np.zeros(taken.size + 1, np.int64)
    np.cumsum(~taken, out=below[1:])  # below[p]: free ports before port p
    if not (rank < below[hi] - below[lo]).all():
        return rank, False
    return free[below[lo] + rank] - lo, True


def subnetwork(net: Network, node_ids: Iterable[str], name: str | None = None) -> Network:
    """Copy of ``net`` induced on ``node_ids`` (used by fault experiments)."""
    keep = set(node_ids)
    sub = Network(name or f"{net.name}-sub")
    for node in net.nodes():
        if node.node_id in keep:
            if node.is_router:
                sub.add_router(node.node_id, node.num_ports, **node.attrs)
            else:
                sub.add_end_node(node.node_id, node.num_ports, **node.attrs)
    seen: set[str] = set()
    for link in net.links():
        if link.src in keep and link.dst in keep and link.link_id not in seen:
            seen.add(link.link_id)
            seen.add(link.reverse_id)
            sub.connect(link.src, link.src_port, link.dst, link.dst_port, **link.attrs)
    return sub
