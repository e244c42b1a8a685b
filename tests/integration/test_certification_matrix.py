"""Certification matrix: every shipped topology has a deadlock-free routing.

One row per (topology, routing algorithm) pairing the library recommends;
each must build within its port budget, validate structurally, deliver
all pairs, and certify deadlock-free -- the end-to-end promise of the
whole stack.
"""

import pytest

from repro.core.fractahedron import fat_fractahedron, thin_fractahedron
from repro.core.generalized import (
    GeneralFractaParams,
    general_fractahedron,
    general_tables,
)
from repro.core.routing import fractahedral_tables
from repro.core.tetrahedron import tetrahedron
from repro.deadlock.analysis import certify_deadlock_free
from repro.network.validate import validate_network
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.dimension_order import ecube_tables
from repro.routing.shortest_path import shortest_path_tables
from repro.routing.tree_routing import tree_tables, up_down_tables
from repro.topology.butterfly import butterfly, butterfly_tables
from repro.topology.ccc import cube_connected_cycles
from repro.topology.fattree import fat_tree, fat_tree_tables
from repro.topology.fully_connected import fully_connected_assembly
from repro.topology.hypercube import hypercube
from repro.topology.mesh import mesh
from repro.topology.ring import ring
from repro.topology.shuffle_exchange import shuffle_exchange
from repro.topology.star import star
from repro.topology.tree import binary_tree, kary_tree

MATRIX = {
    "mesh+dor": (lambda: mesh((4, 3), nodes_per_router=2), dimension_order_tables),
    "ring+updown": (lambda: ring(6, nodes_per_router=2), up_down_tables),
    "star+shortest": (lambda: star(5, nodes_per_leaf=2), shortest_path_tables),
    "binary-tree": (lambda: binary_tree(3, nodes_per_leaf=2), tree_tables),
    "kary-tree": (lambda: kary_tree(4, 2, nodes_per_leaf=2), tree_tables),
    "hypercube+ecube": (lambda: hypercube(4, nodes_per_router=1), ecube_tables),
    "ccc+updown": (lambda: cube_connected_cycles(3, nodes_per_router=1), up_down_tables),
    "shufflex+updown": (lambda: shuffle_exchange(3, nodes_per_router=1), up_down_tables),
    "assembly": (lambda: fully_connected_assembly(4), shortest_path_tables),
    "tetrahedron": (lambda: tetrahedron(), shortest_path_tables),
    "fat-tree-4-2": (lambda: fat_tree(3, down=4, up=2), fat_tree_tables),
    "fat-tree-3-3": (
        lambda: fat_tree(4, down=3, up=3, num_nodes=64),
        fat_tree_tables,
    ),
    "butterfly": (lambda: butterfly(3, 2), butterfly_tables),
    "thin-fracta": (lambda: thin_fractahedron(2), fractahedral_tables),
    "fat-fracta": (lambda: fat_fractahedron(2), fractahedral_tables),
    "fracta-fanout": (
        lambda: fat_fractahedron(1, fanout_width=2),
        fractahedral_tables,
    ),
    "general-fracta-m3": (
        lambda: general_fractahedron(GeneralFractaParams(2, assembly_size=3)),
        general_tables,
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_topology_routing_pair_certifies(name):
    build, route = MATRIX[name]
    net = build()
    errors = [
        i
        for i in validate_network(net, require_end_nodes=True)
        if i.severity == "error"
    ]
    assert errors == [], (name, errors)
    tables = route(net)
    result = certify_deadlock_free(net, tables)
    assert result.certified, (name, result)
