"""Figure 1: deadlock in a wormhole-routed network -- and its avoidance.

The figure shows four routers in a loop with four packets, each holding
one link while waiting for the next: "the head of each packet is blocked
by the tail of another packet".  We reproduce it on a 2x2 mesh:

* with tables that send all traffic clockwise around the square, the
  channel-dependency graph is a 4-cycle, and simulating four simultaneous
  long transfers (each two hops around the loop) locks up;
* with dimension-order routing ("routes A and C would be allowed, but
  routes B and D would be disallowed"), the CDG is acyclic and the same
  traffic drains.
"""

from __future__ import annotations

from repro.deadlock.cdg import channel_dependency_graph, find_cycle
from repro.network.graph import Network
from repro.routing.base import RoutingTable, all_pairs_routes, ejections
from repro.routing.dimension_order import dimension_order_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import pairs_traffic
from repro.topology.mesh import mesh

__all__ = ["build", "clockwise_tables", "figure1_pattern", "run", "report"]

#: The square of routers, in loop order.
LOOP = ("R0,0", "R1,0", "R1,1", "R0,1")


def build() -> Network:
    """The four-router square of Figure 1 (one node per router)."""
    return mesh((2, 2), nodes_per_router=1)


def clockwise_tables(net: Network, loop: tuple[str, ...] = LOOP) -> RoutingTable:
    """Tables that route everything one way around ``loop``'s routers.

    This realizes the figure's four routes A-D simultaneously: every
    transfer follows the loop, so the four channel dependencies close a
    cycle.
    """
    nxt = dict(zip(loop, (*loop[1:], loop[0])))
    tables = RoutingTable(net)
    for dest, dest_router, eject, _ in ejections(net).ends(net):
        tables.set(dest_router, dest, eject)
        for router in net.router_ids():
            if router != dest_router:
                port = net.links_between(router, nxt[router])[0].src_port
                tables.set(router, dest, port)
    return tables


def figure1_pattern(net: Network) -> list[tuple[str, str]]:
    """Four transfers, each to the diagonally-opposite router's node."""
    pairs = []
    position = {r: i for i, r in enumerate(LOOP)}
    for end in net.end_node_ids():
        router = net.attached_router(end)
        opposite = LOOP[(position[router] + 2) % 4]
        pairs.append((end, net.attached_end_nodes(opposite)[0]))
    return pairs


def run(packet_size: int = 16, buffer_depth: int = 2) -> dict:
    """Run both sides of Figure 1; returns CDG and simulation evidence."""
    net = build()
    pattern = figure1_pattern(net)

    cw = clockwise_tables(net)
    cw_routes = all_pairs_routes(net, cw)
    cw_cycle = find_cycle(channel_dependency_graph(net, cw_routes))
    cw_sim = make_sim(
        net,
        cw,
        pairs_traffic(pattern, packet_size),
        SimConfig(buffer_depth=buffer_depth, raise_on_deadlock=False, stall_threshold=16),
    )
    cw_stats = cw_sim.run(2000, drain=True)

    dor = dimension_order_tables(net)
    dor_routes = all_pairs_routes(net, dor)
    dor_cycle = find_cycle(channel_dependency_graph(net, dor_routes))
    dor_sim = make_sim(
        net,
        dor,
        pairs_traffic(pattern, packet_size),
        SimConfig(buffer_depth=buffer_depth, stall_threshold=16),
    )
    dor_stats = dor_sim.run(2000, drain=True)

    return {
        "pattern": pattern,
        "clockwise_cdg_cycle": cw_cycle,
        "clockwise_deadlocked": cw_stats.deadlocked,
        "clockwise_delivered": cw_stats.packets_delivered,
        "clockwise_deadlock_at": cw_stats.deadlock_at,
        "dor_cdg_cycle": dor_cycle,
        "dor_deadlocked": dor_stats.deadlocked,
        "dor_delivered": dor_stats.packets_delivered,
        "dor_avg_latency": dor_stats.avg_latency,
    }


def report() -> str:
    r = run()
    lines = [
        "Figure 1: deadlock in a wormhole-routed network",
        f"  loop routing : CDG cycle of {len(r['clockwise_cdg_cycle'] or [])} channels; "
        f"simulation deadlocked={r['clockwise_deadlocked']} "
        f"(at cycle {r['clockwise_deadlock_at']}), "
        f"delivered {r['clockwise_delivered']}/4",
        f"  dim. order   : CDG acyclic={r['dor_cdg_cycle'] is None}; "
        f"delivered {r['dor_delivered']}/4, "
        f"avg latency {r['dor_avg_latency']:.1f} cycles",
    ]
    return "\n".join(lines)
