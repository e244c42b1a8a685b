"""End-to-end integration: build -> route -> certify -> simulate -> verify,
for each of the paper's 64-node contenders."""

import pytest

from repro.core.fractahedron import fat_fractahedron, thin_fractahedron
from repro.core.routing import fractahedral_tables
from repro.deadlock.analysis import certify_deadlock_free
from repro.network.validate import validate_network
from repro.routing.dimension_order import dimension_order_tables
from repro.servernet.protocol import SessionLayer
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import uniform_traffic
from repro.topology.fattree import fat_tree, fat_tree_tables
from repro.topology.mesh import mesh

CONTENDERS = {
    "mesh": lambda: (mesh((6, 6), nodes_per_router=2), None),
    "fat_tree": lambda: (fat_tree(3, down=4, up=2), None),
    "fat_fracta": lambda: (fat_fractahedron(2), None),
    "thin_fracta": lambda: (thin_fractahedron(2), None),
}


def _route(net):
    topology = net.attrs.get("topology", "")
    if "fractahedron" in topology:
        return fractahedral_tables(net)
    if topology == "fat_tree":
        return fat_tree_tables(net)
    return dimension_order_tables(net, order=(1, 0))


@pytest.mark.parametrize("name", sorted(CONTENDERS))
def test_full_pipeline(name):
    net, _ = CONTENDERS[name]()
    # 1. structural validity
    assert validate_network(net, require_end_nodes=True) == []
    # 2. routing + certification
    tables = _route(net)
    cert = certify_deadlock_free(net, tables)
    assert cert.certified, cert
    # 3. simulate moderate uniform load to completion
    traffic = uniform_traffic(net.end_node_ids(), rate=0.02, packet_size=6, seed=3)
    sim = make_sim(
        net, tables, traffic, SimConfig(buffer_depth=4, stall_threshold=128)
    )
    stats = sim.run(800, drain=True)
    assert not stats.deadlocked
    assert stats.packets_delivered == stats.packets_offered > 0
    # 4. protocol contract: complete, in-order transfers everywhere
    session = SessionLayer(sim)
    assert session.all_ok()
    assert sim.finalize().in_order_violations == []
