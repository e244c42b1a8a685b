"""Unit tests for deadlock certification."""

import pytest

from repro.deadlock.analysis import certify_deadlock_free
from repro.deadlock.cdg import channel_dependency_graph, find_cycle
from repro.experiments.fig1_deadlock import build, clockwise_tables
from repro.routing.base import RouteSet, RoutingTable, all_pairs_routes
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.validate import validate_routing
from tests.integration.test_certification_matrix import MATRIX


def test_certified_pair():
    net = build()
    result = certify_deadlock_free(net, dimension_order_tables(net))
    assert result.certified
    assert result.deliverable and result.deadlock_free
    assert result.counterexample is None
    assert result.num_channels > 0


def test_cyclic_pair_fails_certification():
    net = build()
    result = certify_deadlock_free(net, clockwise_tables(net))
    assert result.deliverable
    assert not result.deadlock_free
    assert not result.certified
    assert result.counterexample and len(result.counterexample) == 4


def test_incomplete_tables_fail_deliverability():
    net = build()
    result = certify_deadlock_free(net, RoutingTable(net))
    assert not result.deliverable
    assert not result.certified
    assert result.failures


def test_paper_networks_certified(
    fracta64, fracta64_tables, thin64, thin64_tables, fattree64, fattree64_tables
):
    for net, tables in (
        (fracta64, fracta64_tables),
        (thin64, thin64_tables),
        (fattree64, fattree64_tables),
    ):
        assert certify_deadlock_free(net, tables).certified, net.name


class PerPairTable(RoutingTable):
    """The same entries in a type the array walk does not read, so the
    oracle's routes come from the pure-Python per-pair walk."""


def _per_pair(net, tables):
    oracle = PerPairTable(net)
    oracle.ports[...] = tables.ports
    return oracle


def _assert_paths_agree(net, tables):
    """The certifier's array walk agrees with the networkx CDG of the
    Python-walk routes: verdict, channel and dependency counts."""
    walk = certify_deadlock_free(net, tables)
    oracle = _per_pair(net, tables)
    report = validate_routing(net, oracle)
    routes = all_pairs_routes(net, oracle) if report.ok else RouteSet()
    graph = channel_dependency_graph(net, routes)
    assert walk.deliverable == report.ok
    assert walk.failures == tuple(report.failures[:10])
    assert walk.deadlock_free == (find_cycle(graph) is None)
    assert walk.num_channels == graph.number_of_nodes()
    assert walk.num_dependencies == graph.number_of_edges()
    return walk, graph


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_walk_path_matches_networkx_path(name):
    build_net, route = MATRIX[name]
    net = build_net()
    walk, _ = _assert_paths_agree(net, route(net))
    assert walk.certified and walk.num_dependencies > 0


def test_paths_agree_on_undeliverable_tables():
    net = build()
    walk, _ = _assert_paths_agree(net, RoutingTable(net))
    assert not walk.deliverable and walk.failures
    assert (walk.num_channels, walk.num_dependencies) == (0, 0)


def test_paths_agree_on_rejected_tables():
    net = build()
    walk, graph = _assert_paths_agree(net, clockwise_tables(net))
    assert walk.deliverable and not walk.deadlock_free
    # the counterexample is a cycle of the CDG over the Python-walk routes,
    # as long as the one networkx finds
    cycle = walk.counterexample
    assert len(cycle) == len(find_cycle(graph))
    assert all(graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
