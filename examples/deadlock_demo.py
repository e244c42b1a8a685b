#!/usr/bin/env python3
"""Watch a wormhole network deadlock -- then fix it three different ways.

Reproduces Figure 1 dynamically: four routers in a loop, four simultaneous
transfers, each packet's head blocked by another packet's tail.  Then shows
the three remedies the paper discusses:

1. dimension-order routing (restrict the turns; §2.2),
2. ServerNet path disables (turn prohibitions synthesized until the
   hardware-level turn graph is acyclic; §2.2/§2.4),
3. Dally & Seitz virtual channels (the costly alternative; §2.1).

Run:  python examples/deadlock_demo.py
"""

from repro.experiments.ablations import dateline_vc_select
from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.turns import break_cycles_with_turns
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import pairs_traffic
from repro.topology.ring import ring


def show(name: str, stats) -> None:
    verdict = (
        f"DEADLOCK at cycle {stats.deadlock_at} "
        f"({len(stats.deadlock_cycle)} channels interlocked)"
        if stats.deadlocked
        else f"delivered {stats.packets_delivered} packets, "
        f"avg latency {stats.avg_latency:.1f} cycles"
    )
    print(f"{name:28s} {verdict}")


def main() -> None:
    net = build()
    pattern = figure1_pattern(net)
    cfg = SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=16)

    print("Figure 1: four transfers around a four-router loop\n")

    # The deadlock: every transfer routed the same way around.
    sim = make_sim(net, clockwise_tables(net), pairs_traffic(pattern, 16), cfg)
    show("loop routing", sim.run(2000, drain=True))

    # Remedy 1: dimension-order routing.
    sim = make_sim(net, dimension_order_tables(net), pairs_traffic(pattern, 16), cfg)
    show("dimension-order routing", sim.run(2000, drain=True))

    # Remedy 2: path disables (synthesized turn prohibitions).
    turns, tables = break_cycles_with_turns(net)
    sim = make_sim(net, tables, pairs_traffic(pattern, 16), cfg)
    show(f"path disables ({len(turns)} turns)", sim.run(2000, drain=True))

    # Remedy 3: virtual channels with a dateline, on a true ring (the
    # paper rejects this for router-cost reasons, but it works).
    ringnet = ring(4, nodes_per_router=1)
    from repro.routing.base import RoutingTable

    cw = RoutingTable(ringnet)
    for dest in ringnet.end_node_ids():
        dr = ringnet.attached_router(dest)
        ej = [l for l in ringnet.out_links(dr) if l.dst == dest][0]
        cw.set(dr, dest, ej.src_port)
        for rid in ringnet.router_ids():
            if rid != dr:
                i = int(rid[1:])
                port = ringnet.links_between(rid, f"R{(i + 1) % 4}")[0].src_port
                cw.set(rid, dest, port)
    ring_pattern = [(f"n{i}", f"n{(i + 2) % 4}") for i in range(4)]
    vc_cfg = SimConfig(
        buffer_depth=2, vc_count=2, raise_on_deadlock=False, stall_threshold=16
    )
    sim = make_sim(
        ringnet,
        cw,
        pairs_traffic(ring_pattern, 16),
        vc_cfg,
        vc_select=dateline_vc_select(ringnet, "R0"),
    )
    show("virtual channels (2 VCs)", sim.run(2000, drain=True))
    print(
        "\nnote: the VC router needs twice the buffer space -- the cost the\n"
        "paper avoids by choosing loop-free topologies instead (§2.1)."
    )


if __name__ == "__main__":
    main()
