"""Deadlock theory: channel dependency graphs and certification.

For deterministic (table-driven) routing, Dally & Seitz's theorem reduces
wormhole deadlock freedom to a graph property: the network cannot deadlock
iff the *channel dependency graph* -- channels as vertices, an edge
whenever some route holds one channel while waiting for the next -- is
acyclic.  This package builds that graph from a route set, finds and
enumerates cycles, and certifies (topology, routing) pairs; the wormhole
simulator provides the matching dynamic evidence.
"""

from repro.deadlock.cdg import (
    channel_dependency_graph,
    channel_dependency_graph_vc,
    cycle_report,
    find_cycle,
    is_deadlock_free,
)
from repro.deadlock.analysis import certify_deadlock_free
from repro.deadlock.certifier import (
    ChannelOrderCertificate,
    OrderCertification,
    certify_channel_order,
    channel_order_for,
    synthesize_ordered_routing,
)
from repro.deadlock.waitfor import WaitForGraph

__all__ = [
    "ChannelOrderCertificate",
    "OrderCertification",
    "WaitForGraph",
    "certify_channel_order",
    "certify_deadlock_free",
    "channel_order_for",
    "synthesize_ordered_routing",
    "channel_dependency_graph",
    "channel_dependency_graph_vc",
    "cycle_report",
    "find_cycle",
    "is_deadlock_free",
]
