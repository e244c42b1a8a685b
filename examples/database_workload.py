#!/usr/bin/env python3
"""The paper's motivating commercial workload, simulated.

§3.0: "for a given database query, we may have an arbitrary set of four
CPU nodes trying to communicate with an arbitrary set of four disk
controller nodes over an extended period of time.  The ability of a
network to handle load imbalances is a key factor in application
performance."

This example designates half of each 64-node network's nodes as CPUs and
half as disk controllers, replays a stream of random query sets as
sustained wormhole traffic, and reports per-topology latency -- plus the
static contention of the worst query drawn.

Run:  python examples/database_workload.py
"""

from repro.core.fractahedron import fat_fractahedron
from repro.core.routing import fractahedral_tables
from repro.metrics.contention import pattern_contention
from repro.metrics.report import format_table
from repro.routing.base import all_pairs_routes
from repro.routing.dimension_order import dimension_order_tables
from repro.servernet.protocol import SessionLayer
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import permutation_traffic
from repro.topology.fattree import fat_tree, fat_tree_tables
from repro.topology.mesh import mesh
from repro.workloads.database import DatabaseWorkload


def contenders():
    m = mesh((6, 6), nodes_per_router=2)
    yield "mesh 6x6", m, dimension_order_tables(m, order=(1, 0))
    ft = fat_tree(3, down=4, up=2)
    yield "fat tree 4-2", ft, fat_tree_tables(ft)
    fr = fat_fractahedron(2)
    yield "fat fractahedron", fr, fractahedral_tables(fr)


def main() -> None:
    rows = []
    for name, net, tables in contenders():
        nodes = net.end_node_ids()[:64]
        workload = DatabaseWorkload(nodes, set_size=4, seed=1996)
        queries = workload.queries(num_queries=200)

        # Static view: the query set with the worst link collision.
        routes = all_pairs_routes(net, tables)
        worst_query = max(
            (pattern_contention(routes, q)[0] for q in queries), default=0
        )

        # Dynamic view: sustain the busiest query as repeated transfers
        # (a sustainable per-flow rate; the interest is relative latency).
        busiest = max(queries, key=lambda q: pattern_contention(routes, q)[0])
        traffic = permutation_traffic(busiest, rate=0.05, packet_size=8, seed=7)
        sim = make_sim(
            net,
            tables,
            traffic,
            SimConfig(buffer_depth=4, raise_on_deadlock=False, stall_threshold=200),
        )
        stats = sim.run(4000, drain=True)
        sim.finalize()
        session = SessionLayer(sim)
        complete = session.all_ok() and not stats.in_order_violations
        rows.append(
            [
                name,
                worst_query,
                f"{stats.avg_latency:.1f}",
                f"{stats.p99_latency:.1f}",
                f"{stats.packets_delivered}/{stats.packets_offered}",
                "yes" if complete else "NO",
            ]
        )
    print(
        format_table(
            [
                "topology",
                "worst query collision",
                "avg latency",
                "p99 latency",
                "delivered",
                "in order",
            ],
            rows,
            title="Database query workload: 200 random 4-CPU x 4-disk sets (§3.0)",
        )
    )


if __name__ == "__main__":
    main()
