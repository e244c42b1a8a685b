"""Unit tests for deadlock certification."""

from repro.deadlock.analysis import certify_deadlock_free
from repro.experiments.fig1_deadlock import build, clockwise_tables
from repro.routing.base import RoutingTable
from repro.routing.dimension_order import dimension_order_tables


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
