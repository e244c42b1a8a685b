"""``fat_tree_tables`` from the link arrays against its per-link loop.

``loop_fat_tree_tables`` is the builder as it scanned ``Network.out_links``
once per (router, destination); the array builder must give the same port
matrix, dtype included, and the same errors.
"""

import numpy as np
import pytest

from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable, ejections
from repro.topology.fattree import _up_slot, fat_tree, fat_tree_tables
from repro.topology.registry import build_topology
from tests.routing.test_walk import PARAMS


def loop_fat_tree_tables(net: Network) -> RoutingTable:
    down = net.attrs["down"]
    up = net.attrs["up"]
    height = net.attrs["height"]
    optimal_42 = down == 4 and up == 2 and height == 3
    tables = RoutingTable(net)
    for dest, dest_router, port, _ in ejections(net).ends(net):
        dbranch = tuple(net.node(dest_router).attrs["path"])
        tables.set(dest_router, dest, port)
        for router in net.routers():
            rid = router.node_id
            if rid == dest_router:
                continue
            level = router.attrs["level"]
            path = tuple(router.attrs["path"])
            depth = height - level
            if dbranch[:depth] == path:
                port = _down_port(net, rid, dbranch[depth])
            else:
                slot = _up_slot(net, router, dbranch, down, up, height, optimal_42)
                port = _up_port(net, rid, slot)
            tables.set(rid, dest, port)
    return tables


def _down_port(net: Network, rid: str, subgroup: int) -> int:
    own_level = net.node(rid).attrs["level"]
    for link in net.out_links(rid):
        peer = net.node(link.dst)
        if (
            peer.is_router
            and peer.attrs.get("level") == own_level - 1
            and link.attrs.get("subgroup") == subgroup
        ):
            return link.src_port
    raise RoutingError(f"{rid!r} has no down link to subgroup {subgroup}")


def _up_port(net: Network, rid: str, slot: int) -> int:
    own_level = net.node(rid).attrs["level"]
    for link in net.out_links(rid):
        peer = net.node(link.dst)
        if (
            peer.is_router
            and peer.attrs.get("level") == own_level + 1
            and link.attrs.get("slot") == slot
        ):
            return link.src_port
    raise RoutingError(f"{rid!r} has no up link with slot {slot}")


TREES = {
    "registry": lambda: build_topology("fat_tree", **PARAMS["fat_tree"]),
    "registry-default": lambda: build_topology("fat_tree", height=2),
    "4-2": lambda: fat_tree(3, down=4, up=2),
    "3-3-pruned": lambda: fat_tree(4, down=3, up=3, num_nodes=64),
    "2-2": lambda: fat_tree(3, down=2, up=2),
    "2-4": lambda: fat_tree(2, down=2, up=4),
    "4-2-partial": lambda: fat_tree(3, down=4, up=2, num_nodes=21),
    "leaf-only": lambda: fat_tree(1, down=4, up=2),
}


@pytest.mark.parametrize("name", TREES)
def test_port_matrix_matches_the_loop(name):
    net = TREES[name]()
    got, want = fat_tree_tables(net).ports, loop_fat_tree_tables(net).ports
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_missing_links_raise_the_loops_error():
    seen = set()
    for cut, which in (("F2[0].0", 0), ("F1[3.3].0", 0), ("F1[3.3].0", 1)):
        errors = []
        for build in (fat_tree_tables, loop_fat_tree_tables):
            net = fat_tree(3, down=4, up=2)
            links = [l for l in net.out_links(cut) if net.node(l.dst).is_router]
            net.disconnect(links[which].link_id)
            with pytest.raises(RoutingError) as got:
                build(net)
            errors.append(str(got.value))
        assert errors[0] == errors[1]
        seen.add(errors[0].split(" has ")[1][:10])
    assert seen == {"no down li", "no up link"}


def test_tables_make_almost_no_out_links_calls(monkeypatch):
    net = fat_tree(3, down=4, up=2)
    calls = []
    out_links = Network.out_links

    def counted(self, node_id):
        calls.append(node_id)
        return out_links(self, node_id)

    monkeypatch.setattr(Network, "out_links", counted)
    fat_tree_tables(net)
    assert len(calls) < net.num_routers * net.num_end_nodes // 100
