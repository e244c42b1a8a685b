"""Unit tests for the ascending channel-order certifier."""

import pytest

from repro.deadlock.analysis import certify_deadlock_free
from repro.deadlock.certifier import (
    ChannelOrderCertificate,
    certify_channel_order,
    channel_order_for,
    synthesize_ordered_routing,
)
from repro.experiments.fig1_deadlock import build, clockwise_tables
from repro.routing.base import RoutingTable, all_pairs_routes
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.tree_routing import up_down_tables
from repro.topology.hypercube import hypercube
from repro.topology.mesh import mesh


def test_acyclic_routing_yields_valid_certificate():
    net = build()
    tables = dimension_order_tables(net)
    result = certify_channel_order(net, tables)
    assert result.certified
    assert result.counterexample is None
    assert result.certificate is not None
    # the certificate must re-verify against the actual route set
    routes = all_pairs_routes(net, tables)
    assert result.certificate.verify(routes) == []
    assert result.num_channels == len(result.certificate.order)


def test_cyclic_routing_yields_counterexample():
    net = build()
    result = certify_channel_order(net, clockwise_tables(net))
    assert result.deliverable
    assert not result.deadlock_free
    assert result.certificate is None
    # the witness is a genuine dependency cycle: every consecutive pair
    # (wrapping) is a held -> waited edge in some route
    cycle = result.counterexample
    assert cycle and len(cycle) >= 2
    routes = all_pairs_routes(net, clockwise_tables(net))
    edges = set()
    for route in routes:
        edges.update(zip(route.links, route.links[1:]))
    for held, waited in zip(cycle, cycle[1:] + cycle[:1]):
        assert (held, waited) in edges


def test_tampered_certificate_rejected():
    net = build()
    tables = dimension_order_tables(net)
    result = certify_channel_order(net, tables)
    routes = all_pairs_routes(net, tables)
    order = list(result.certificate.order)
    order[0], order[-1] = order[-1], order[0]
    assert ChannelOrderCertificate(tuple(order)).verify(routes)


def test_missing_channel_is_a_violation():
    net = build()
    tables = dimension_order_tables(net)
    routes = all_pairs_routes(net, tables)
    truncated = ChannelOrderCertificate(certify_channel_order(net, tables).certificate.order[1:])
    violations = truncated.verify(routes)
    assert any("not in order" in v for v in violations)


def test_incomplete_tables_fail_deliverability():
    net = build()
    result = certify_channel_order(net, RoutingTable(net))
    assert not result.deliverable
    assert not result.certified
    assert result.failures


def test_requires_tables_or_routes():
    with pytest.raises(ValueError):
        certify_channel_order(build())


def test_agrees_with_cdg_certifier_on_paper_matrix(
    fracta64, fracta64_tables, fattree64, fattree64_tables
):
    for net, tables in ((fracta64, fracta64_tables), (fattree64, fattree64_tables)):
        cdg = certify_deadlock_free(net, tables)
        order = certify_channel_order(net, tables)
        assert order.deadlock_free == cdg.deadlock_free, net.name
        assert order.num_channels == cdg.num_channels, net.name
        assert order.num_dependencies == cdg.num_dependencies, net.name


def test_agreement_on_rejection():
    net = build()
    cdg = certify_deadlock_free(net, clockwise_tables(net))
    order = certify_channel_order(net, clockwise_tables(net))
    assert not cdg.deadlock_free and not order.deadlock_free
    assert order.num_dependencies == cdg.num_dependencies


def test_deterministic_output():
    net = mesh((3, 3))
    tables = dimension_order_tables(net)
    a = certify_channel_order(net, tables)
    b = certify_channel_order(net, tables)
    assert a.certificate.order == b.certificate.order


def test_sampled_certification():
    net = mesh((4, 4))
    tables = dimension_order_tables(net)
    result = certify_channel_order(net, tables, sample=20, seed=7)
    assert result.certified
    # sampled runs certify only the channels the sample exercises
    assert result.num_channels <= certify_channel_order(net, tables).num_channels


def test_apriori_order_certifies_up_down_routing():
    for net in (hypercube(3), mesh((3, 3))):
        rank = channel_order_for(net)
        tables = up_down_tables(net)
        routes = all_pairs_routes(net, tables)
        order = sorted(rank, key=rank.get)
        cert = ChannelOrderCertificate(tuple(order))
        assert cert.verify(routes) == [], net.name


def test_synthesize_ordered_routing():
    net = hypercube(3)
    tables, certification = synthesize_ordered_routing(net)
    assert certification.certified
    assert certification.certificate is not None
    cdg = certify_deadlock_free(net, tables)
    assert cdg.certified


def test_channel_order_rejects_end_node_root():
    net = mesh((3, 3))
    end = net.end_node_ids()[0]
    with pytest.raises(ValueError, match=f"root '{end}' is not a router") as info:
        channel_order_for(net, root=end)
    assert "pass a router id or omit root" in str(info.value)
