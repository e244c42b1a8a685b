"""The column-store ``Network`` against the dict-of-``Link`` model it replaced.

``OracleNetwork`` below is the earlier storage: one frozen ``Link`` per
direction in an insertion-ordered dict, and per-node port -> link-id
dicts.  Hypothesis drives both through random sequences of node adds,
cabling (explicit ports and lowest-free), disconnects by either
direction's id, node removals and re-adds, and attrs edits.  After every
step each query must agree, raised errors included (type and text).

Two column-store networks take every step: ``viewed`` answers every query
(so its Link view is built early and then kept in step by the mutations),
``cold`` only answers the queries that read the columns, so its Link view
is built only at the end.
"""

from operator import attrgetter
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import (
    LINK_SEP,
    Link,
    LinkArrays,
    Network,
    NetworkError,
    NetworkIndices,
    Node,
    NodeKind,
    PortBudgetError,
    PortInUseError,
)


def make_link_id(src: str, src_port: int, dst: str, dst_port: int) -> str:
    return f"{src}:{src_port}{LINK_SEP}{dst}:{dst_port}"


class OracleNetwork:
    """The dict-of-``Link`` network model, as the column store replaced it."""

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._links: dict[str, Link] = {}
        self._out_ports: dict[str, dict[int, str]] = {}
        self._in_ports: dict[str, dict[int, str]] = {}
        self._router_ids: list[str] = []
        self._end_ids: list[str] = []
        self.version = 0

    def add_router(self, node_id: str, num_ports: int, **attrs: Any) -> Node:
        return self._add_node(Node(node_id, NodeKind.ROUTER, num_ports, dict(attrs)))

    def add_end_node(self, node_id: str, num_ports: int = 1, **attrs: Any) -> Node:
        return self._add_node(Node(node_id, NodeKind.END_NODE, num_ports, dict(attrs)))

    def _add_node(self, node: Node) -> Node:
        if node.node_id in self._nodes:
            raise NetworkError(f"duplicate node id {node.node_id!r}")
        if node.num_ports < 1:
            raise NetworkError(f"node {node.node_id!r} must have at least one port")
        self._nodes[node.node_id] = node
        self._out_ports[node.node_id] = {}
        self._in_ports[node.node_id] = {}
        (self._router_ids if node.is_router else self._end_ids).append(node.node_id)
        self.version += 1
        return node

    def connect(self, a: str, a_port: int, b: str, b_port: int, **attrs: Any):
        na, nb = self.node(a), self.node(b)
        if a == b:
            raise NetworkError(f"self-link on {a!r} is not allowed")
        for node, port in ((na, a_port), (nb, b_port)):
            if not 0 <= port < node.num_ports:
                raise PortBudgetError(
                    f"port {port} out of range for {node.node_id!r} "
                    f"({node.num_ports} ports)"
                )
            if port in self._out_ports[node.node_id] or port in self._in_ports[node.node_id]:
                raise PortInUseError(f"port {port} of {node.node_id!r} already cabled")
        fwd = Link(make_link_id(a, a_port, b, b_port), a, a_port, b, b_port, dict(attrs))
        rev = Link(make_link_id(b, b_port, a, a_port), b, b_port, a, a_port, dict(attrs))
        self._links[fwd.link_id] = fwd
        self._links[rev.link_id] = rev
        self._out_ports[a][a_port] = fwd.link_id
        self._in_ports[a][a_port] = rev.link_id
        self._out_ports[b][b_port] = rev.link_id
        self._in_ports[b][b_port] = fwd.link_id
        self.version += 1
        return fwd, rev

    def connect_next_free(self, a: str, b: str, **attrs: Any):
        return self.connect(a, self.next_free_port(a), b, self.next_free_port(b), **attrs)

    def disconnect(self, link_id: str) -> None:
        link = self.link(link_id)
        rev = self._links[link.reverse_id]
        for l in (link, rev):
            del self._links[l.link_id]
            del self._out_ports[l.src][l.src_port]
            del self._in_ports[l.dst][l.dst_port]
        self.version += 1

    def remove_node(self, node_id: str) -> None:
        node = self.node(node_id)
        for link in list(self.out_links(node_id)):
            self.disconnect(link.link_id)
        del self._nodes[node_id]
        del self._out_ports[node_id]
        del self._in_ports[node_id]
        (self._router_ids if node.is_router else self._end_ids).remove(node_id)
        self.version += 1

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise NetworkError(f"unknown link {link_id!r}") from None

    def has_link(self, link_id: str) -> bool:
        return link_id in self._links

    def links(self):
        return iter(self._links.values())

    def link_ids(self) -> list[str]:
        return list(self._links)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def out_links(self, node_id: str) -> list[Link]:
        ports = self._out_ports[self.node(node_id).node_id]
        return [self._links[ports[p]] for p in sorted(ports)]

    def in_links(self, node_id: str) -> list[Link]:
        ports = self._in_ports[self.node(node_id).node_id]
        return [self._links[ports[p]] for p in sorted(ports)]

    def out_link_on_port(self, node_id: str, port: int) -> Link:
        try:
            return self._links[self._out_ports[node_id][port]]
        except KeyError:
            raise NetworkError(f"no connection on port {port} of {node_id!r}") from None

    def neighbors(self, node_id: str) -> list[str]:
        seen: list[str] = []
        for link in self.out_links(node_id):
            if link.dst not in seen:
                seen.append(link.dst)
        return seen

    def links_between(self, a: str, b: str) -> list[Link]:
        return [l for l in self.out_links(a) if l.dst == b]

    def used_ports(self, node_id: str) -> int:
        self.node(node_id)
        return len(self._out_ports[node_id])

    def free_ports(self, node_id: str) -> int:
        return self.node(node_id).num_ports - self.used_ports(node_id)

    def next_free_port(self, node_id: str) -> int:
        node = self.node(node_id)
        out, into = self._out_ports[node_id], self._in_ports[node_id]
        for port in range(node.num_ports):
            if port not in out and port not in into:
                return port
        raise PortBudgetError(f"no free ports on {node_id!r}")

    def attached_router(self, end_node_id: str) -> str:
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
        return [l.dst for l in self.out_links(router_id) if self.node(l.dst).is_end_node]

    def router_links(self) -> list[Link]:
        return [
            l
            for l in self._links.values()
            if self._nodes[l.src].is_router and self._nodes[l.dst].is_router
        ]

    def indices(self) -> NetworkIndices:
        link_ids = tuple(sorted(self._links))
        return NetworkIndices(
            version=self.version,
            link_ids=link_ids,
            link_index={lid: i for i, lid in enumerate(link_ids)},
            router_ids=tuple(self._router_ids),
            router_index={r: i for i, r in enumerate(self._router_ids)},
            end_ids=tuple(self._end_ids),
            end_index={e: i for i, e in enumerate(self._end_ids)},
        )

    def link_arrays(self) -> LinkArrays:
        idx = self.indices()
        R, E = len(idx.router_ids), len(idx.end_ids)
        node_index = dict(idx.router_index)
        node_index.update(zip(idx.end_ids, range(R, R + E)))
        links = list(map(self._links.__getitem__, idx.link_ids))
        L = len(links)

        def column(values) -> np.ndarray:
            return np.fromiter(values, np.int32, L)

        src = column(map(node_index.__getitem__, map(attrgetter("src"), links)))
        dst = column(map(node_index.__getitem__, map(attrgetter("dst"), links)))
        src_port = column(map(attrgetter("src_port"), links))
        from_end = np.flatnonzero(src >= R)
        by_end = from_end[np.lexsort((src_port[from_end], src[from_end]))]
        ends = src[by_end] - R
        first = np.ones(ends.size, dtype=bool)
        first[1:] = ends[1:] != ends[:-1]
        injection = np.full(E, -1, dtype=np.int32)
        injection[ends[first]] = by_end[first]
        return LinkArrays(
            version=self.version,
            num_routers=R,
            src=src,
            dst=dst,
            src_port=src_port,
            dst_port=column(map(attrgetter("dst_port"), links)),
            src_is_router=src < R,
            dst_is_router=dst < R,
            router_ports=np.fromiter(
                map(attrgetter("num_ports"), map(self._nodes.__getitem__, idx.router_ids)),
                np.int32,
                R,
            ),
            injection=injection,
            end_out_degree=np.bincount(ends, minlength=E).astype(np.int32),
        )


POOL = ("R0", "R1", "R2", "R,3", "n0", "n1", "n:2")
ATTRS = st.sampled_from([{}, {"dim": 0}, {"dim": 1, "wraparound": True}, {"kind": "up"}])
node_ix = st.integers(0, len(POOL) - 1)
port = st.integers(-1, 4)

OPS = st.one_of(
    st.tuples(st.just("router"), node_ix, st.integers(0, 4)),
    st.tuples(st.just("end"), node_ix, st.integers(1, 2)),
    st.tuples(st.just("connect"), node_ix, port, node_ix, port, ATTRS),
    st.tuples(st.just("connect"), node_ix, port, node_ix, port, ATTRS),
    st.tuples(st.just("next_free"), node_ix, node_ix, ATTRS),
    st.tuples(st.just("next_free"), node_ix, node_ix, ATTRS),
    st.tuples(st.just("disconnect"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("remove"), node_ix),
    st.tuples(st.just("touch"), st.integers(0, 63)),
)


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("error", type, text)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except NetworkError as exc:
        return ("error", type(exc), str(exc))


def full(link: Link) -> tuple:
    return (link.link_id, link.src, link.src_port, link.dst, link.dst_port, link.attrs)


def normal(result):
    """Links compared with their attrs (``Link`` equality skips them)."""
    if isinstance(result, Link):
        return full(result)
    if isinstance(result, (list, tuple)):
        return [normal(r) for r in result]
    return result


def apply(net, op, resolve: bool = True) -> tuple:
    """Run one step; ``resolve=False`` leaves a connect's LinkPair unread."""
    kind = op[0]
    if kind == "router":
        return outcome(net.add_router, POOL[op[1]], op[2], tier=op[1])
    if kind == "end":
        return outcome(net.add_end_node, POOL[op[1]], op[2])
    if kind == "connect":
        _, a, pa, b, pb, attrs = op
        got = outcome(net.connect, POOL[a], pa, POOL[b], pb, **attrs)
        return got if got[0] == "error" else ("ok", tuple(got[1]) if resolve else None)
    if kind == "next_free":
        _, a, b, attrs = op
        got = outcome(net.connect_next_free, POOL[a], POOL[b], **attrs)
        return got if got[0] == "error" else ("ok", tuple(got[1]) if resolve else None)
    if kind == "remove":
        return outcome(net.remove_node, POOL[op[1]])
    ids = net.link_ids()
    pick = ids[op[1] % len(ids)] if ids else "nope:0->nope:0"
    if kind == "disconnect":
        if op[2]:  # by the other direction's id
            src, dst = pick.split(LINK_SEP)
            pick = dst + LINK_SEP + src
        return outcome(net.disconnect, pick)
    # touch: edit one direction's attrs in place
    if not ids:
        return ("ok", None)
    link = net.link(pick)
    other = dict(net.link(link.reverse_id).attrs)
    link.attrs["touched"] = link.attrs.get("touched", 0) + 1
    assert net.link(link.reverse_id).attrs == other
    return ("ok", normal(link))


def column_queries(net) -> dict:
    """Queries that read the cable columns (no Link objects)."""
    got: dict = {
        "link_ids": net.link_ids(),
        "num_links": net.num_links,
        "version": net.version,
        "indices": net.indices(),
    }
    arr = net.link_arrays()
    got["link_arrays"] = {
        name: (value.tolist(), value.dtype.str) if isinstance(value, np.ndarray) else value
        for name, value in vars(arr).items()
    }
    for nid in POOL:
        got[nid] = (
            outcome(net.next_free_port, nid),
            outcome(net.used_ports, nid),
            outcome(net.free_ports, nid),
        )
    return got


def object_queries(net) -> dict:
    """Queries that return Link objects."""
    got: dict = {
        "links": [full(l) for l in net.links()],
        "router_links": normal(net.router_links()),
    }
    for nid in POOL:
        got[nid] = (
            normal(outcome(net.out_links, nid)),
            normal(outcome(net.in_links, nid)),
            [normal(outcome(net.out_link_on_port, nid, p)) for p in range(-1, 6)],
            [normal(outcome(net.links_between, nid, other)) for other in POOL],
            outcome(net.neighbors, nid),
            outcome(net.attached_router, nid),
            outcome(net.attached_end_nodes, nid),
        )
    return got


@settings(max_examples=80, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_column_store_matches_dict_of_links(ops):
    oracle, viewed, cold = OracleNetwork(), Network(), Network()
    for op in ops:
        expect = normal(apply(oracle, op))
        assert normal(apply(viewed, op)) == expect, op
        if op[0] in ("connect", "next_free"):
            got = normal(apply(cold, op, resolve=False))
            assert got == (expect if expect[0] == "error" else ["ok", None]), op
        elif op[0] != "touch":
            assert normal(apply(cold, op)) == expect, op
        else:  # mirror the edit without the Link view
            ids = cold.link_ids()
            if ids:
                cold.link_attrs()[op[1] % len(ids)]["touched"] = expect[1][5]["touched"]
        want = column_queries(oracle)
        assert column_queries(viewed) == want
        assert column_queries(cold) == want
        assert viewed.link_attrs() == [l.attrs for l in oracle.links()]
        assert cold.link_attrs() == [l.attrs for l in oracle.links()]
        assert object_queries(viewed) == object_queries(oracle)
        for link in viewed.links():
            assert viewed.link(link.link_id) is link  # identity stays stable
    if not any(op[0] in ("disconnect", "touch") for op in ops):
        assert cold._view is None  # the column queries never built Links
    assert object_queries(cold) == object_queries(oracle)


def test_directions_have_their_own_attrs():
    net = Network()
    net.add_router("A", 2)
    net.add_router("B", 2)
    fwd, rev = net.connect("A", 0, "B", 1, dim=0)
    fwd.attrs["dim"] = 7
    assert rev.attrs == {"dim": 0}
    assert net.link_attrs() == [{"dim": 7}, {"dim": 0}]
    net.link_attrs()[1]["kind"] = "x"
    assert fwd.attrs == {"dim": 7} and rev.attrs == {"dim": 0, "kind": "x"}


def test_connect_result_acts_as_the_tuple():
    net = Network()
    for r in "ABC":
        net.add_router(r, 3)
    pair = net.connect("A", 0, "B", 0)
    fwd, rev = pair
    assert len(pair) == 2 and pair[0] is fwd and pair[1] is rev
    assert pair == (fwd, rev) and (fwd, rev) == pair
    assert hash(pair) == hash((fwd, rev))
    assert fwd is net.link("A:0->B:0") and rev is net.link("B:0->A:0")
    net.disconnect("A:0->B:0")
    assert tuple(pair) == (fwd, rev)  # a cut cable still reads back its links
    again = net.connect_next_free("A", "C")
    assert [l.link_id for l in again] == ["A:0->C:0", "C:0->A:0"]


def test_alternating_connect_and_out_links_builds_each_link_once(monkeypatch):
    made = []
    init = Link.__init__

    def counted(self, *args, **kwargs):
        made.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Link, "__init__", counted)
    net = Network()
    net.add_router("hub", 64)
    for i in range(64):
        net.add_end_node(f"n{i}")
        net.connect_next_free(f"n{i}", "hub")
        assert len(net.out_links("hub")) == i + 1
    assert len(made) == net.num_links == 128
