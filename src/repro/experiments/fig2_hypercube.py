"""Figure 2: breaking hypercube deadlocks with path disables.

§2.2's three observations, all made measurable here on the 3-cube:

1. Unrestricted shortest-path routing leaves cycles in the CDG.
2. Path disables (synthesized turn prohibitions biased toward the "top"
   of the cube) make the CDG acyclic, but link utilization becomes very
   uneven -- the upper links end up "used only to communicate with the
   top node".
3. E-cube (dimension-order) routing is also deadlock-free with more even
   utilization, but is *non-reflexive* for many pairs (the path from A to
   B differs from B to A), which §2.2 notes "increases the impact of a
   link failure".
"""

from __future__ import annotations

from repro.deadlock.cdg import channel_dependency_graph, find_cycle
from repro.metrics.utilization import channel_loads, utilization_stats
from repro.routing.base import RoutingTable, all_pairs_routes, compute_route
from repro.routing.dimension_order import ecube_tables
from repro.routing.shortest_path import rotating_tie_break, shortest_path_tables
from repro.network.graph import Network
from repro.topology.hypercube import figure2_routing, hypercube, router_id_for_addr

__all__ = [
    "adversarial_cube_tables",
    "reflexive_fraction",
    "report",
    "run",
    "top_node_traffic_fraction",
]


def adversarial_cube_tables(net):
    """Legal shortest-path tables whose CDG contains a face cycle.

    ServerNet tables may hold any per-destination in-tree; this witness
    rotates the bottom face: each face router reaches the router two steps
    around via its clockwise neighbour.  Every overridden path is still
    minimal, yet the four turns close the 4-channel dependency cycle of
    Figure 1 inside the cube -- the loop Figure 2's disables must break.
    """
    tables = shortest_path_tables(net).copy()
    face = [
        router_id_for_addr(a, net.attrs["dimensions"]) for a in (0b000, 0b001, 0b011, 0b010)
    ]
    for i, router in enumerate(face):
        over = face[(i + 2) % 4]  # router two steps around the face
        via = face[(i + 1) % 4]  # ... reached via the clockwise neighbour
        port = net.links_between(router, via)[0].src_port
        for dest in net.attached_end_nodes(over):
            tables.set(router, dest, port)
    return tables


def reflexive_fraction(net: Network, tables: RoutingTable) -> float:
    """Fraction of unordered pairs whose A->B route is B->A reversed."""
    ends = net.end_node_ids()
    total = 0
    reflexive = 0
    for i, a in enumerate(ends):
        for b in ends[i + 1 :]:
            total += 1
            fwd = compute_route(net, tables, a, b)
            rev = compute_route(net, tables, b, a)
            if fwd.nodes == tuple(reversed(rev.nodes)):
                reflexive += 1
    return reflexive / total if total else 1.0


def top_node_traffic_fraction(net: Network, routes, top_router: str) -> dict[str, float]:
    """Per upper link, the fraction of its load involving the top node.

    "The upper links are lightly utilized because they are used only to
    communicate with the top node."
    """
    top_nodes = set(net.attached_end_nodes(top_router))
    fractions: dict[str, float] = {}
    usage: dict[str, list] = {}
    for route in routes:
        for link in route.router_links:
            usage.setdefault(link, []).append(route)
    for link in net.router_links():
        if top_router not in (link.src, link.dst):
            continue
        using = usage.get(link.link_id, [])
        if not using:
            fractions[link.link_id] = 1.0
            continue
        top_related = sum(
            1 for r in using if r.src in top_nodes or r.dst in top_nodes
        )
        fractions[link.link_id] = top_related / len(using)
    return fractions


def run() -> dict:
    net = hypercube(3, nodes_per_router=1)
    top = router_id_for_addr(0b111, 3)

    # 1. unrestricted routing-table contents: a legal all-shortest-paths
    # table whose bottom face rotates has a cyclic CDG -- the loops the
    # disables exist to break.
    free_tables = adversarial_cube_tables(net)
    free_routes = all_pairs_routes(net, free_tables)
    free_cycle = find_cycle(channel_dependency_graph(net, free_routes))

    # 2. synthesized path disables, biased to the cube's upper routers.
    turns, disabled_tables = figure2_routing(net)
    dis_routes = all_pairs_routes(net, disabled_tables)
    dis_cycle = find_cycle(channel_dependency_graph(net, dis_routes))
    dis_util = utilization_stats(net, dis_routes)
    top_fractions = top_node_traffic_fraction(net, dis_routes, top)

    # 3. §2.2's alternative: single-ended disables ("twelve single-ended
    # arrows instead of six double ended arrows") -- utilization evens out,
    # but routes become non-reflexive.
    from repro.routing.shortest_path import rotating_tie_break as rtb
    from repro.routing.turns import break_cycles_with_turns

    uni_turns, uni_tables = break_cycles_with_turns(
        net, prefer_routers=[], tie_break=rtb, bidirectional=False
    )
    uni_routes = all_pairs_routes(net, uni_tables)
    uni_cycle = find_cycle(channel_dependency_graph(net, uni_routes))
    uni_util = utilization_stats(net, uni_routes)

    # 4. e-cube: acyclic, more even, but non-reflexive.
    ec_tables = ecube_tables(net)
    ec_routes = all_pairs_routes(net, ec_tables)
    ec_cycle = find_cycle(channel_dependency_graph(net, ec_routes))
    ec_util = utilization_stats(net, ec_routes)

    return {
        "uni_num_disables": len(uni_turns),
        "uni_cdg_cyclic": uni_cycle is not None,
        "uni_imbalance": uni_util.imbalance,
        "uni_reflexive": reflexive_fraction(net, uni_tables),
        "free_cdg_cyclic": free_cycle is not None,
        "free_cycle": free_cycle,
        "num_prohibited_turns": len(turns),
        "disables_cdg_cyclic": dis_cycle is not None,
        "disables_imbalance": dis_util.imbalance,
        "disables_load_min": dis_util.minimum,
        "disables_load_max": dis_util.maximum,
        "upper_link_top_fraction": top_fractions,
        "disables_reflexive": reflexive_fraction(net, disabled_tables),
        "ecube_cdg_cyclic": ec_cycle is not None,
        "ecube_imbalance": ec_util.imbalance,
        "ecube_reflexive": reflexive_fraction(net, ec_tables),
        "loads_disabled": channel_loads(net, dis_routes),
    }


def report() -> str:
    r = run()
    min_top = min(r["upper_link_top_fraction"].values()) if r["upper_link_top_fraction"] else 0
    return "\n".join(
        [
            "Figure 2: breaking 3-cube deadlocks with path disables",
            f"  unrestricted shortest path : CDG cyclic = {r['free_cdg_cyclic']}",
            f"  {r['num_prohibited_turns'] // 2} double-ended path disables "
            f"(paper: six)  : "
            f"CDG cyclic = {r['disables_cdg_cyclic']}, "
            f"load max/mean = {r['disables_imbalance']:.2f} "
            f"(min {r['disables_load_min']}, max {r['disables_load_max']})",
            f"    top-node links carry only top-node traffic: "
            f"min fraction = {min_top:.2f}",
            f"    reflexive pairs = {r['disables_reflexive'] * 100:.0f}%",
            f"  {r['uni_num_disables']} single-ended disables "
            f"(paper: twelve) : CDG cyclic = {r['uni_cdg_cyclic']}, "
            f"load max/mean = {r['uni_imbalance']:.2f}, "
            f"reflexive pairs = {r['uni_reflexive'] * 100:.0f}%",
            f"  e-cube                     : CDG cyclic = {r['ecube_cdg_cyclic']}, "
            f"load max/mean = {r['ecube_imbalance']:.2f}, "
            f"reflexive pairs = {r['ecube_reflexive'] * 100:.0f}%",
        ]
    )
