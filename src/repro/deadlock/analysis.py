"""End-to-end deadlock-freedom certification of (topology, routing) pairs."""

from __future__ import annotations

from repro.deadlock.certifier import OrderCertification, certify_channel_order
from repro.network.graph import Network
from repro.routing.base import RouteSet, RoutingTable

__all__ = ["certify_deadlock_free"]


def certify_deadlock_free(
    net: Network,
    tables: RoutingTable,
    routes: RouteSet | None = None,
) -> OrderCertification:
    """Certify a (network, routing) pair: the paper's Dally-Seitz verdict.

    Checks (1) every ordered end-node pair is deliverable over a simple
    path, and (2) the channel dependency graph of the route set is
    acyclic -- decided, with its witness, by
    :func:`~repro.deadlock.certifier.certify_channel_order` (an acyclic
    CDG and an ascending channel order are the same verdict).
    """
    return certify_channel_order(net, tables, routes=routes)
