"""up*/down* tables against a per-destination oracle.

``up_down_tables`` computes each destination router's column once and
shares it among the end nodes on that router.  The oracle below is the
straightforward form it replaced: both phases recomputed for every
destination end node, over the raw link lists.  The two must agree byte
for byte on the port matrix, and raise the same error on fabrics that
up*/down* cannot route.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.routing.base import RoutingError, RoutingTable
from repro.routing.tree_routing import up_down_tables
from repro.topology.ccc import cube_connected_cycles
from repro.topology.ring import ring
from repro.topology.shuffle_exchange import shuffle_exchange


def oracle_up_down_tables(net, root=None, allowed=None):
    """Per-destination up*/down* (the reference construction)."""
    routers = net.router_ids()
    root = root or min(routers)
    levels = {root: 0}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for link in net.out_links(current):
            if allowed is not None and not allowed(link):
                continue
            if net.node(link.dst).is_router and link.dst not in levels:
                levels[link.dst] = levels[current] + 1
                queue.append(link.dst)
    if len(levels) != len(routers):
        raise RoutingError(
            "router fabric is not connected"
            + (" over the allowed links" if allowed is not None else "")
        )

    def is_up(src, dst):
        return (levels[dst], dst) < (levels[src], src)

    tables = RoutingTable(net)
    for dest in net.end_node_ids():
        dest_router = net.attached_router(dest)
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest][0]
        tables.set(dest_router, dest, ejection.src_port)
        down_dist = {dest_router: 0}
        down_port = {}
        queue = deque([dest_router])
        while queue:
            current = queue.popleft()
            for link in net.in_links(current):
                src = link.src
                if not net.node(src).is_router:
                    continue
                if allowed is not None and not allowed(link):
                    continue
                if not is_up(src, current) and src not in down_dist:
                    down_dist[src] = down_dist[current] + 1
                    down_port[src] = link.src_port
                    queue.append(src)
        up_dist = dict(down_dist)
        up_port = {}
        changed = True
        while changed:
            changed = False
            for router in routers:
                for link in net.out_links(router):
                    nxt = link.dst
                    if not net.node(nxt).is_router or not is_up(router, nxt):
                        continue
                    if allowed is not None and not allowed(link):
                        continue
                    if nxt in up_dist:
                        cand = up_dist[nxt] + 1
                        if router not in up_dist or cand < up_dist[router]:
                            up_dist[router] = cand
                            if router not in down_dist:
                                up_port[router] = link.src_port
                            changed = True
        for router in routers:
            if router == dest_router:
                continue
            if router in down_port:
                tables.set(router, dest, down_port[router])
            elif router in up_port:
                tables.set(router, dest, up_port[router])
            else:
                raise RoutingError(f"{router!r} cannot reach {dest!r} via up*/down*")
    return tables


FABRICS = {
    "fat-fracta-1": lambda: fat_fractahedron(1),
    "fat-fracta-2": lambda: fat_fractahedron(2, fanout_width=2),
    "ring": lambda: ring(6, nodes_per_router=2),
    "ccc": lambda: cube_connected_cycles(3, nodes_per_router=1),
    "shufflex": lambda: shuffle_exchange(3, nodes_per_router=1),
}


def _outcome(build, net, allowed):
    """Port-matrix bytes, or the RoutingError text."""
    try:
        return build(net, allowed=allowed).ports_on(net).tobytes()
    except RoutingError as exc:
        return f"RoutingError: {exc}"


@pytest.mark.parametrize("disabled", range(7))
@pytest.mark.parametrize("name", sorted(FABRICS))
def test_matches_per_destination_oracle(name, disabled):
    net = FABRICS[name]()
    links = sorted(l.link_id for l in net.router_links())
    rng = np.random.default_rng([disabled, len(links)])
    off = set(rng.choice(links, size=disabled, replace=False).tolist())
    allowed = (lambda link: link.link_id not in off) if off else None
    expected = _outcome(oracle_up_down_tables, net, allowed)
    assert _outcome(up_down_tables, net, allowed) == expected


def test_disconnected_remnant_raises_oracle_error():
    net = ring(4, nodes_per_router=1)
    # cut both cables around R0: the remaining routers cannot reach it
    cut = {l.link_id for l in net.router_links() if "R0" in (l.src, l.dst)}
    allowed = lambda link: link.link_id not in cut  # noqa: E731
    expected = _outcome(oracle_up_down_tables, net, allowed)
    assert expected.startswith("RoutingError: router fabric is not connected")
    assert _outcome(up_down_tables, net, allowed) == expected


def test_end_node_root_is_rejected_with_remedy():
    net = ring(4, nodes_per_router=1)
    end = net.end_node_ids()[0]
    with pytest.raises(ValueError, match=f"root '{end}' is not a router") as info:
        up_down_tables(net, root=end)
    assert "pass a router id or omit root" in str(info.value)
