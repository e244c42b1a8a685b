"""``network_fingerprint`` values pinned to the dict-of-``Link`` network model.

The fingerprint keys the routing-table cache.  It hashes link ids in
insertion order, every link's attrs and the link-array columns, so the
cable column store must feed it the same content in the same order.  The
hex values below were recorded with the earlier storage; a store that
reorders links or drops attrs changes them.  A ``serialize`` round trip
must reproduce each value too.
"""

import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.network.serialize import network_from_dict, network_to_dict
from repro.routing.cache import network_fingerprint
from repro.topology.registry import available_topologies, build_topology
from tests.routing.test_walk import PARAMS

PINNED = {
    "mesh": "c429df3356ada3902fb854b6d8587baa25fbd049e8de54e3a5232219a9695890",
    "torus": "3c27a413c6b6116b68aab3e16fa7b3f6e78849705ab312ce119274cdf2a74f01",
    "ring": "58bc2856de6a44df8bc8ebe458b50867c0c112f55859fb2540fb224a6afe5c63",
    "star": "9ceda8a3db7d60a9ea1316d0953aee5896b413c2be2ed5b65525d8335658bd23",
    "binary_tree": "3953ebb242de390ae4632aa142a49fd31c310ffb97e232709ac0ba81aba9926b",
    "butterfly": "6af2a7db0bdda49a4e07ef405b5aa65e20514105f38b0cc91b97237c9e7f4ffc",
    "kary_tree": "d0bb583efadc0576de27ad767f7b2bc311feace64c1fb87c69b0320ee56a63f1",
    "hypercube": "ce50b18a18cdbec729ebfbdeb0225b50c76706696b593c9da11581adeb4c5049",
    "ccc": "f4b33f81289dde409cd9820b178c14f5544aa4c729ac8d33070138c30bd505e6",
    "shuffle_exchange": "cff670da036c0c7bb52dec72d3052ced5c6819df886cc0a4135a92aef847902e",
    "fully_connected": "4953eba4675fe88d91808eb81d7afa0b87ac1bfdcc5b58d3a57f607bfe43c533",
    "hyperx": "f584d5072fe3370cd9b1d285b5da0dd8400b80a6454926c21e55be583f830ce9",
    "dragonfly": "447e72dfe20fa352f0322ec99d18b50ed566531994222c658240a872af444631",
    "fat_tree": "9ac1a95267f5fb093c43ce6b4e9ac150a1850f7b39f88bfea33478440061a9a1",
    "thin_fractahedron": "025bd5d43af8de30b9662bcf8146598a5b8b75d678938de03368071373329951",
    "fat_fractahedron": "8816c3427d6bdd921030c4fb05d85e3c86b48d21f5ae67e2d7e175e4d8a29502",
    "fat_fractahedron_d3": "8075f90bff1dccc26e6e2160b782fa4789fc744dfcdadde8057b022122911427",
}


def recabled_mesh():
    """A 3x3 mesh with one cable cut and re-made, and one end node removed."""
    net = build_topology("mesh", shape=(3, 3))
    cut = net.router_links()[0]
    net.disconnect(cut.link_id)
    net.connect(cut.dst, cut.dst_port, cut.src, cut.src_port, dim=cut.attrs["dim"], recabled=True)
    net.remove_node(net.end_node_ids()[0])
    return net


def build(name):
    if name == "fat_fractahedron_d3":
        return fat_fractahedron(3)
    return build_topology(name, **PARAMS[name])


def test_every_registry_topology_is_pinned():
    assert set(PINNED) - {"fat_fractahedron_d3"} == set(available_topologies())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fingerprint_is_pinned(name):
    net = build(name)
    assert network_fingerprint(net) == PINNED[name]
    assert network_fingerprint(network_from_dict(network_to_dict(net))) == PINNED[name]


def test_mutated_network_fingerprint_is_pinned():
    assert network_fingerprint(recabled_mesh()) == (
        "9d19645d26f5dc041e140cad8b0ce4604267426ad6117ba4ed8562043359ce28"
    )
