"""up*/down* tables against a per-destination oracle.

``up_down_tables`` computes each destination router's column once and
writes it over the end nodes on that router.  The oracle below is the
straightforward form it replaced: both phases recomputed for every
destination end node, over the raw link lists.  The two must agree byte
for byte on the port matrix, dtype included, and raise the same error on
fabrics that up*/down* cannot route.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.network.graph import NetworkError
from repro.routing.base import RoutingError, RoutingTable
from repro.routing.tree_routing import up_down_tables
from repro.topology.ccc import cube_connected_cycles
from repro.topology.registry import build_topology
from repro.topology.ring import ring
from repro.topology.shuffle_exchange import shuffle_exchange
from tests.routing.test_walk import PARAMS


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


def _outcome(build, net, allowed, **kwargs):
    """Port-matrix dtype and bytes, or the error's type and text."""
    try:
        ports = build(net, allowed=allowed, **kwargs).ports_on(net)
        return ports.dtype.str, ports.tobytes()
    except (RoutingError, NetworkError) as exc:
        return f"{type(exc).__name__}: {exc}"


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


@pytest.mark.parametrize("cuts", [0, 1, 4, 12, "third"])
@pytest.mark.parametrize("name", sorted(PARAMS))
def test_registry_cuts_match_oracle(name, cuts):
    """Registry topologies with seeded sets of disabled links: the larger
    sets leave some fabrics disconnected or some routers unable to
    reach a destination, and both must raise the same error."""
    net = build_topology(name, **PARAMS[name])
    links = sorted(l.link_id for l in net.router_links())
    size = len(links) // 3 if cuts == "third" else min(cuts, len(links))
    rng = np.random.default_rng([size, len(links)])
    off = set(rng.choice(links, size=size, replace=False).tolist())
    allowed = (lambda link: link.link_id not in off) if off else None
    expected = _outcome(oracle_up_down_tables, net, allowed)
    assert _outcome(up_down_tables, net, allowed) == expected
    if not off:
        assert isinstance(expected, tuple), expected
        root = max(net.router_ids())
        assert _outcome(up_down_tables, net, None, root=root) == _outcome(
            oracle_up_down_tables, net, None, root=root
        )


def test_seeded_cuts_reach_both_errors():
    """The cut sets above do exercise both failure texts."""
    texts = set()
    for name in sorted(PARAMS):
        net = build_topology(name, **PARAMS[name])
        links = sorted(l.link_id for l in net.router_links())
        for size in (12, len(links) // 3):
            rng = np.random.default_rng([size, len(links)])
            off = set(rng.choice(links, size=min(size, len(links)), replace=False).tolist())
            got = _outcome(up_down_tables, net, lambda link: link.link_id not in off)
            if isinstance(got, str):
                texts.add(got.split(" ")[-1] if "cannot reach" in got else got[:45])
    assert "up*/down*" in texts
    assert "RoutingError: router fabric is not connected " in texts


def test_end_on_two_routers_raises_like_the_oracle():
    net = ring(4, nodes_per_router=1)
    net.add_end_node("stray", 2)
    net.connect_next_free("stray", "R1")
    net.connect_next_free("stray", "R2")
    expected = _outcome(oracle_up_down_tables, net, None)
    assert expected.startswith("NetworkError")
    assert _outcome(up_down_tables, net, None) == expected
