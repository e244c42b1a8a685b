"""Round-trip tests for fabric configuration persistence."""

import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.core.routing import fractahedral_tables
from repro.network.graph import NetworkError
from repro.network.serialize import (
    load_fabric,
    network_from_dict,
    network_to_dict,
    save_fabric,
)
from repro.routing.base import all_pairs_routes, compute_route
from repro.topology.hypercube import figure2_routing, hypercube
from repro.topology.mesh import mesh


def _networks_equal(a, b) -> bool:
    if a.node_ids() != b.node_ids():
        return False
    if sorted(a.link_ids()) != sorted(b.link_ids()):
        return False
    for node in a.nodes():
        other = b.node(node.node_id)
        if (node.kind, node.num_ports, node.attrs) != (
            other.kind,
            other.num_ports,
            other.attrs,
        ):
            return False
    return a.attrs == b.attrs


class TestNetworkRoundTrip:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: mesh((3, 3), nodes_per_router=2),
            lambda: fat_fractahedron(2),
            lambda: fat_fractahedron(1, fanout_width=2),
            lambda: hypercube(3, nodes_per_router=1),
        ],
        ids=["mesh", "fracta", "fracta-fanout", "cube"],
    )
    def test_structure_survives(self, build):
        net = build()
        restored = network_from_dict(network_to_dict(net))
        assert _networks_equal(net, restored)

    def test_bad_version_rejected(self):
        doc = network_to_dict(mesh((2, 2)))
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            network_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d["nodes"].append(dict(d["nodes"][0])), "duplicate node id 'R0,0'"),
            (lambda d: d["cables"].append(dict(d["cables"][3])), "already cabled"),
            (lambda d: d["cables"][5].update(b="nope"), "unknown node 'nope'"),
            (lambda d: d["cables"][5].update(a_port=9), "port 9 out of range"),
        ],
        ids=["node-twice", "cable-twice", "unknown-node", "bad-port"],
    )
    def test_bad_documents_raise_the_per_call_errors(self, edit, error):
        doc = network_to_dict(mesh((2, 2), nodes_per_router=1))
        edit(doc)
        with pytest.raises(NetworkError, match=error):
            network_from_dict(doc)

    def test_unserializable_attr_rejected(self):
        net = mesh((2, 2))
        net.attrs["bad"] = object()
        with pytest.raises(TypeError):
            network_to_dict(net)


class TestFabricFiles:
    def test_full_round_trip_routes_identically(self, tmp_path):
        net = fat_fractahedron(2)
        tables = fractahedral_tables(net)
        path = tmp_path / "fabric.json"
        save_fabric(path, net, tables)
        net2, tables2, disables = load_fabric(path)
        assert disables is None
        # the reloaded fabric routes byte-identically
        for src, dst in (("n0", "n63"), ("n17", "n5"), ("n33", "n32")):
            a = compute_route(net, tables, src, dst)
            b = compute_route(net2, tables2, src, dst)
            assert a.links == b.links

    def test_all_pairs_identical(self, tmp_path):
        net = mesh((3, 3), nodes_per_router=1)
        from repro.routing.dimension_order import dimension_order_tables

        tables = dimension_order_tables(net)
        path = tmp_path / "mesh.json"
        save_fabric(path, net, tables)
        net2, tables2, _ = load_fabric(path)
        original = {
            (r.src, r.dst): r.links for r in all_pairs_routes(net, tables)
        }
        restored = {
            (r.src, r.dst): r.links for r in all_pairs_routes(net2, tables2)
        }
        assert original == restored

    def test_disables_round_trip(self, tmp_path):
        net = hypercube(3, nodes_per_router=1)
        turns, tables = figure2_routing(net)
        path = tmp_path / "cube.json"
        save_fabric(path, net, tables, disables=turns)
        net2, tables2, turns2 = load_fabric(path)
        assert turns2 is not None
        assert turns2.turns() == turns.turns()

    def test_network_only_file(self, tmp_path):
        net = mesh((2, 2))
        path = tmp_path / "net.json"
        save_fabric(path, net)
        net2, tables, disables = load_fabric(path)
        assert tables is None and disables is None
        assert _networks_equal(net, net2)
