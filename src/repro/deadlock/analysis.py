"""End-to-end deadlock-freedom certification of (topology, routing) pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.deadlock.cdg import channel_dependency_graph, find_cycle
from repro.deadlock.certifier import _kahn
from repro.network.graph import Network
from repro.routing.base import RouteSet, RoutingTable, all_pairs_routes
from repro.routing.validate import validate_routing

__all__ = ["CertificationResult", "certify_deadlock_free"]


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of :func:`certify_deadlock_free`."""

    network: str
    deliverable: bool
    deadlock_free: bool
    num_channels: int
    num_dependencies: int
    sample_cycle: tuple[str, ...] | None
    failures: tuple[str, ...]

    @property
    def certified(self) -> bool:
        """True when routing is complete, loop-free and deadlock-free."""
        return self.deliverable and self.deadlock_free


def certify_deadlock_free(
    net: Network,
    tables: RoutingTable,
    routes: RouteSet | None = None,
) -> CertificationResult:
    """Certify a (network, routing) pair.

    Checks (1) every ordered end-node pair is deliverable over a simple
    path, and (2) the channel dependency graph of the all-pairs route set
    is acyclic.  Together these are the Dally-Seitz conditions for a
    deterministic wormhole network that can never deadlock.

    Tables the array walker reads (see :mod:`repro.routing.walk`) are
    validated in one walk, whose dependencies are the CDG's edges; the
    Kahn pass of :func:`~repro.deadlock.certifier.certify_channel_order`
    decides acyclicity (an acyclic CDG and an ascending channel order are
    the same verdict).  Only a rejection builds the networkx CDG, for its
    ``find_cycle`` witness.  An explicit ``routes`` set, or tables the
    walker cannot read, take the per-route CDG.
    """
    report = validate_routing(net, tables)
    if routes is None and report.walk is not None:
        deps = report.walk.dependencies if report.ok else np.zeros((0, 2), np.int64)
        channels = np.unique(deps)
        order, _ = _kahn(channels.size, np.searchsorted(channels, deps))
        cycle = None
        if order.size != channels.size:
            cycle = find_cycle(channel_dependency_graph(net, all_pairs_routes(net, tables)))
        num_channels, num_dependencies = channels.size, len(deps)
    else:
        if routes is None:
            routes = all_pairs_routes(net, tables) if report.ok else RouteSet()
        cdg = channel_dependency_graph(net, routes)
        cycle = find_cycle(cdg)
        num_channels, num_dependencies = cdg.number_of_nodes(), cdg.number_of_edges()
    return CertificationResult(
        network=net.name,
        deliverable=report.ok,
        deadlock_free=cycle is None,
        num_channels=num_channels,
        num_dependencies=num_dependencies,
        sample_cycle=tuple(cycle) if cycle else None,
        failures=tuple(report.failures[:10]),
    )
