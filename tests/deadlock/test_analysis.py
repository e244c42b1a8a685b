"""Unit tests for deadlock certification."""

import pytest

from repro.deadlock.analysis import certify_deadlock_free
from repro.deadlock.cdg import channel_dependency_graph
from repro.experiments.fig1_deadlock import build, clockwise_tables
from repro.routing.base import RoutingTable, all_pairs_routes
from repro.routing.dimension_order import dimension_order_tables
from tests.integration.test_certification_matrix import MATRIX


def test_certified_pair():
    net = build()
    result = certify_deadlock_free(net, dimension_order_tables(net))
    assert result.certified
    assert result.deliverable and result.deadlock_free
    assert result.sample_cycle is None
    assert result.num_channels > 0


def test_cyclic_pair_fails_certification():
    net = build()
    result = certify_deadlock_free(net, clockwise_tables(net))
    assert result.deliverable
    assert not result.deadlock_free
    assert not result.certified
    assert result.sample_cycle and len(result.sample_cycle) == 4


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
    """The same entries in a type the array walk does not read, so
    certification takes the per-route networkx CDG path."""


def _per_pair(net, tables):
    oracle = PerPairTable(net)
    oracle.ports[...] = tables.ports
    return oracle


def _assert_paths_agree(net, tables):
    """The walk path and the networkx path agree field by field."""
    walk = certify_deadlock_free(net, tables)
    cdg = certify_deadlock_free(net, _per_pair(net, tables))
    for field in ("deliverable", "deadlock_free", "num_channels", "num_dependencies", "failures"):
        assert getattr(walk, field) == getattr(cdg, field), field
    return walk, cdg


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
    tables = clockwise_tables(net)
    walk, cdg = _assert_paths_agree(net, tables)
    assert walk.deliverable and not walk.deadlock_free
    assert walk.sample_cycle == cdg.sample_cycle
    # the witness is a cycle of the CDG over the Python-walk routes
    graph = channel_dependency_graph(net, all_pairs_routes(net, tables))
    cycle = walk.sample_cycle
    assert all(graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
