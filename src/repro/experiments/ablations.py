"""Ablations of the design choices DESIGN.md calls out.

1. **Assembly size** (why the tetrahedron): Figure 3 already tabulates
   ports/contention; here we additionally measure hop counts and cost, and
   sweep the router radix to show the 2-bit-routing sweet spot generalizes
   ("the concepts easily generalize to other fully connected groups of
   N-port routers").
2. **Thin vs fat**: delay, bisection and router cost across levels -- the
   paper's cost/performance trade-off ("allows for tradeoffs between cost
   and performance").
3. **Buffer depth**: how deep the ServerNet input FIFOs must be before
   Figure 1's deadlock pattern stops deadlocking (it never does -- that is
   the point: buffering delays but cannot prevent wormhole deadlock).
4. **Virtual channels** (the Dally & Seitz alternative): a 4-router ring
   with dateline VC assignment is deadlock-free at the price of doubling
   the buffer count -- the router-cost argument of §2.1, quantified.
"""

from __future__ import annotations

from repro.core.analysis import (
    fat_bisection_links,
    fat_max_router_hops,
    max_nodes,
    router_count,
    thin_bisection_links,
    thin_max_router_hops,
)
from repro.experiments import fig1_deadlock
from repro.metrics.contention import worst_case_contention
from repro.metrics.hops import hop_stats
from repro.routing.base import all_pairs_routes
from repro.routing.shortest_path import shortest_path_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.packet import Flit
from repro.sim.traffic import pairs_traffic
from repro.topology.fully_connected import fully_connected_assembly
from repro.topology.ring import ring

__all__ = ["run", "report", "dateline_vc_select"]


def assembly_sweep(radices: tuple[int, ...] = (4, 6, 8)) -> list[dict]:
    """Ports/contention/hops for fully-connected assemblies across radices."""
    rows = []
    for radix in radices:
        for m in range(2, radix + 1):
            net = fully_connected_assembly(m, router_radix=radix)
            tables = shortest_path_tables(net)
            routes = all_pairs_routes(net, tables)
            stats = hop_stats(routes)
            worst = worst_case_contention(net, routes)
            rows.append(
                {
                    "radix": radix,
                    "assembly": m,
                    "end_ports": net.num_end_nodes,
                    "contention": worst.contention,
                    "avg_hops": stats.mean,
                }
            )
    return rows


def generalized_assembly_fracta(
    assemblies: tuple[int, ...] = (3, 4, 5), levels: int = 2
) -> list[dict]:
    """Fractahedrons built from M-router assemblies of 6-port routers.

    The conclusion's generalization, measured: M=3 connects more nodes per
    router but with higher intra-assembly contention; M=5 wastes ports on
    intra links; M=4 (the tetrahedron) balances -- which is why the paper
    picks it.
    """
    from repro.core.generalized import (
        GeneralFractaParams,
        general_fractahedron,
        general_tables,
    )
    from repro.deadlock.cdg import channel_dependency_graph, is_deadlock_free

    rows = []
    for m in assemblies:
        params = GeneralFractaParams(levels, assembly_size=m, router_radix=6)
        net = general_fractahedron(params)
        tables = general_tables(net)
        routes = all_pairs_routes(net, tables)
        stats = hop_stats(routes)
        worst = worst_case_contention(net, routes)
        rows.append(
            {
                "assembly": m,
                "nodes": net.num_end_nodes,
                "routers": net.num_routers,
                "routers_per_node": net.num_routers / net.num_end_nodes,
                "avg_hops": stats.mean,
                "max_hops": stats.maximum,
                "contention": worst.contention,
                "deadlock_free": is_deadlock_free(
                    channel_dependency_graph(net, routes)
                ),
            }
        )
    return rows


def thin_vs_fat(levels: tuple[int, ...] = (1, 2, 3, 4)) -> list[dict]:
    """Analytic cost/performance trade-off across hierarchy depths."""
    rows = []
    for n in levels:
        rows.append(
            {
                "levels": n,
                "nodes": max_nodes(n),
                "thin_routers": router_count(n, fat=False, fanout_width=2),
                "fat_routers": router_count(n, fat=True, fanout_width=2),
                "thin_delay": thin_max_router_hops(n, include_fanout=True),
                "fat_delay": fat_max_router_hops(n, include_fanout=True),
                "thin_bisection": thin_bisection_links(n),
                "fat_bisection": fat_bisection_links(n),
            }
        )
    return rows


def buffer_depth_sweep(depths: tuple[int, ...] = (1, 2, 4, 8, 16)) -> list[dict]:
    """Does deeper buffering rescue Figure 1's cyclic routing?  (No.)"""
    rows = []
    for depth in depths:
        result = fig1_deadlock.run(packet_size=8 * depth + 16, buffer_depth=depth)
        rows.append(
            {
                "buffer_depth": depth,
                "deadlocked": result["clockwise_deadlocked"],
                "deadlock_at": result["clockwise_deadlock_at"],
            }
        )
    return rows


def dateline_vc_select(net, dateline_router: str):
    """VC selector implementing dateline routing on a ring.

    Packets start on VC 0 and switch to VC 1 when they cross the link
    leaving the dateline router; since no worm can wrap a full turn on a
    single VC, the per-VC channel dependencies are acyclic.
    """

    def select(
        router_id: str,
        in_link_id: str | None,
        out_link_id: str,
        flit: Flit,
        in_vc: int,
    ) -> int:
        if router_id == dateline_router and not net.node(router_id).is_end_node:
            link = net.link(out_link_id)
            if net.node(link.dst).is_router:
                return 1
        return in_vc

    return select


def vc_ring_demo(packet_size: int = 16) -> dict:
    """Ring + clockwise routing: deadlocks on 1 VC, drains with dateline VCs."""
    net = ring(4, nodes_per_router=1)
    # clockwise-only tables: R{i} forwards to R{(i + 1) % 4}
    tables = fig1_deadlock.clockwise_tables(net, tuple(net.router_ids()))
    pattern = [(f"n{i}", f"n{(i + 2) % 4}") for i in range(4)]

    base = SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=32)
    sim1 = make_sim(net, tables, pairs_traffic(pattern, packet_size), base)
    stats1 = sim1.run(2000, drain=True)

    vc_cfg = SimConfig(
        buffer_depth=2, vc_count=2, raise_on_deadlock=False, stall_threshold=32
    )
    sim2 = make_sim(
        net,
        tables,
        pairs_traffic(pattern, packet_size),
        vc_cfg,
        vc_select=dateline_vc_select(net, "R0"),
    )
    stats2 = sim2.run(2000, drain=True)

    # one input FIFO per (link into a router, VC), on every engine
    into_routers = int(net.link_arrays().dst_is_router.sum())
    return {
        "single_vc_deadlocked": stats1.deadlocked,
        "dateline_deadlocked": stats2.deadlocked,
        "dateline_delivered": stats2.packets_delivered,
        "buffer_cost_single": into_routers * base.vc_count * base.buffer_depth,
        "buffer_cost_vc": into_routers * vc_cfg.vc_count * vc_cfg.buffer_depth,
    }


def fat_tree_split_sweep(num_nodes: int = 64) -> list[dict]:
    """Every down-up split of a 6-port fat-tree router, at 64 nodes.

    §3.3 considers 4-2 and 3-3; the sweep adds the degenerate neighbours:
    5-1 (a plain 5-ary tree -- no path diversity, root bottleneck) and
    2-4 (maximal diversity, absurd router count).  The paper's preference
    for 4-2 "for most systems" is visible as the knee of the cost curve.
    """
    import math

    from repro.topology.fattree import fat_tree, fat_tree_tables

    rows = []
    for down, up in ((5, 1), (4, 2), (3, 3), (2, 4)):
        height = max(1, math.ceil(math.log(num_nodes, down)))
        net = fat_tree(height, down=down, up=up, num_nodes=num_nodes)
        tables = fat_tree_tables(net)
        routes = all_pairs_routes(net, tables)
        stats = hop_stats(routes)
        worst = worst_case_contention(net, routes)
        rows.append(
            {
                "split": f"{down}-{up}",
                "height": height,
                "routers": net.num_routers,
                "avg_hops": stats.mean,
                "max_hops": stats.maximum,
                "contention": worst.contention,
            }
        )
    return rows


def switching_comparison(packet_size: int = 16) -> dict:
    """Wormhole vs store-and-forward zero-load latency (§2.0's context).

    Wormhole's latency is nearly distance-insensitive (head cost + one
    serialization); SAF pays the serialization at every hop.  This is why
    the networks the paper studies are wormhole-routed in the first place.
    """
    from repro.routing.dimension_order import dimension_order_tables
    from repro.topology.mesh import mesh

    net = mesh((6, 6), nodes_per_router=2)
    tables = dimension_order_tables(net, order=(1, 0))

    def one(switching: str, src: str, dst: str) -> int:
        sim = make_sim(
            net,
            tables,
            pairs_traffic([(src, dst)], packet_size),
            SimConfig(buffer_depth=2 * packet_size, switching=switching),
        )
        stats = sim.run(3000, drain=True)
        return stats.latencies[0]

    near = ("n0", "n2")  # adjacent routers
    far = ("n0", "n71")  # opposite corners, 11 router hops
    return {
        "packet_size": packet_size,
        "wormhole_near": one("wormhole", *near),
        "wormhole_far": one("wormhole", *far),
        "saf_near": one("store_and_forward", *near),
        "saf_far": one("store_and_forward", *far),
    }


#: The independent sub-studies, each a parallelizable task.
_STUDIES = {
    "assembly_sweep": assembly_sweep,
    "generalized_fracta": generalized_assembly_fracta,
    "fat_tree_splits": fat_tree_split_sweep,
    "thin_vs_fat": thin_vs_fat,
    "buffer_depth": buffer_depth_sweep,
    "vc_ring": vc_ring_demo,
    "switching": switching_comparison,
}


def _run_study(name: str):
    return _STUDIES[name]()


def run(jobs: int = 1, runner=None) -> dict:
    from repro.sim.parallel import SweepRunner

    runner = runner or SweepRunner(jobs)
    names = list(_STUDIES)
    values = runner.map(_run_study, names, labels=[f"ablation {n}" for n in names])
    return dict(zip(names, values))


def report(jobs: int = 1) -> str:
    r = run(jobs=jobs)
    lines = ["Ablations", "", "thin vs fat (with fan-out stage):"]
    for row in r["thin_vs_fat"]:
        lines.append(
            f"  N={row['levels']}: {row['nodes']} nodes; routers "
            f"{row['thin_routers']}/{row['fat_routers']} (thin/fat); "
            f"max delay {row['thin_delay']}/{row['fat_delay']}; "
            f"bisection {row['thin_bisection']}/{row['fat_bisection']}"
        )
    lines.append("")
    lines.append("generalized M-router assembly fractahedrons (radix 6, N=2):")
    for row in r["generalized_fracta"]:
        lines.append(
            f"  M={row['assembly']}: {row['nodes']} nodes, {row['routers']} routers "
            f"({row['routers_per_node']:.2f}/node); avg hops {row['avg_hops']:.2f}; "
            f"contention {row['contention']}:1; "
            f"deadlock-free={row['deadlock_free']}"
        )
    lines.append("")
    lines.append("fat-tree port splits at 64 nodes (6-port routers):")
    for row in r["fat_tree_splits"]:
        lines.append(
            f"  {row['split']}: height {row['height']}, {row['routers']} routers, "
            f"avg hops {row['avg_hops']:.2f}, contention {row['contention']}:1"
        )
    lines.append("")
    lines.append("buffer depth vs Figure 1 deadlock:")
    for row in r["buffer_depth"]:
        lines.append(
            f"  depth {row['buffer_depth']:2d}: deadlocked={row['deadlocked']} "
            f"at cycle {row['deadlock_at']}"
        )
    vc = r["vc_ring"]
    lines.append("")
    lines.append(
        "virtual channels (Dally-Seitz) on the clockwise ring: "
        f"1 VC deadlocks={vc['single_vc_deadlocked']}, dateline 2 VC "
        f"deadlocks={vc['dateline_deadlocked']} "
        f"(buffer cost {vc['buffer_cost_single']} -> {vc['buffer_cost_vc']} flits)"
    )
    sw = r["switching"]
    lines.append("")
    lines.append(
        f"wormhole vs store-and-forward ({sw['packet_size']}-flit packets, 6x6 mesh): "
        f"near {sw['wormhole_near']}/{sw['saf_near']} cycles, "
        f"far {sw['wormhole_far']}/{sw['saf_far']} cycles "
        "(wormhole is nearly distance-insensitive; SAF pays per hop)"
    )
    return "\n".join(lines)
