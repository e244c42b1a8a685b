"""§4.0 "future work": wormhole simulations under heavy load.

The paper closes with "future work will center on simulations of large
topologies in order to better understand network performance under heavy
loading".  This experiment is that study for the three 64-node contenders:

* 6x6 mesh (dimension-order routing),
* 64-node 4-2 fat tree (static partitioned routing),
* 64-node fat fractahedron (fractahedral routing),

swept over offered load with uniform random traffic, plus the
database-style random-set workload of §3.0.  Reported per point: accepted
throughput and average packet latency -- the classic saturation curves.
The absolute numbers are ours (the paper has none); the expected *shape*
is that the fractahedron saturates above the fat tree thanks to its lower
worst-case contention, and the mesh saturates first on uniform traffic
because of its long paths.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.core.fractahedron import fat_fractahedron
from repro.network.graph import Network
from repro.routing.base import RoutingTable
from repro.routing.cache import cached_tables
from repro.sim import api
from repro.sim.engine import SimConfig
from repro.sim.parallel import SweepRunner, derive_seed
from repro.sim.sweep import steady_window
from repro.sim.vec import UniformPlan
from repro.topology.fattree import fat_tree
from repro.topology.mesh import mesh
from repro.workloads.database import DatabaseWorkload

__all__ = ["CONTENDERS", "POINT_CONFIG", "point_row", "point_spec", "report", "run",
           "simulate_load_point"]


def _mesh64() -> tuple[Network, RoutingTable]:
    net = mesh((6, 6), nodes_per_router=2)
    return net, cached_tables(net, order=(1, 0))


def _fattree64() -> tuple[Network, RoutingTable]:
    net = fat_tree(3, down=4, up=2)
    return net, cached_tables(net)


def _fracta64() -> tuple[Network, RoutingTable]:
    net = fat_fractahedron(2)
    return net, cached_tables(net)


CONTENDERS: dict[str, Callable[[], tuple[Network, RoutingTable]]] = {
    "mesh 6x6": _mesh64,
    "fat tree 4-2": _fattree64,
    "fat fractahedron": _fracta64,
}

#: The config every section 4.0 point runs under (grid cells, lone load
#: points, database points and ``repro simulate``): ServerNet-sized
#: FIFOs, deadlocks recorded rather than raised.
POINT_CONFIG = SimConfig(buffer_depth=4, raise_on_deadlock=False, stall_threshold=200)


def point_spec(
    net: Network,
    tables: RoutingTable,
    rate: float,
    cycles: int = 3000,
    packet_size: int = 8,
    seed: int = 1996,
    engine: str = "auto",
) -> api.SimSpec:
    """One uniform-load point as a :class:`~repro.sim.api.SimSpec`.

    The offered load travels as a :class:`~repro.sim.vec.UniformPlan`
    recipe, so specs that share a network batch into one vectorized
    kernel under :func:`repro.sim.api.execute_batch`.
    """
    return api.SimSpec(
        network=(net, tables),
        traffic=UniformPlan(rate, packet_size, seed),
        config=dataclasses.replace(POINT_CONFIG, engine=engine),
        cycles=cycles,
        drain=False,
    )


def point_row(spec: api.SimSpec, result: api.RunResult) -> dict:
    """The section 4.0 row of a :func:`point_spec` and its run's result.

    Whole-run figures come from the run's stats; ``steady_avg_latency``
    averages over the sweep's :func:`~repro.sim.sweep.steady_window`
    (``nan`` when the window delivered nothing).
    """
    stats, records = result.stats, result.records
    steady = steady_window(records, spec.cycles)
    latency = records.delivered[steady] - records.created[steady]
    return {
        "offered_rate": spec.traffic.rate,
        "accepted_flits_per_node_cycle": stats.accepted_load(spec.network[0].num_end_nodes),
        "avg_latency": stats.avg_latency,
        "p99_latency": stats.p99_latency,
        "steady_avg_latency": float(np.mean(latency)) if latency.size else float("nan"),
        "delivered": stats.packets_delivered,
        "offered": stats.packets_offered,
        "deadlocked": stats.deadlocked,
        "order_violations": len(stats.in_order_violations),
    }


def simulate_load_point(
    net: Network,
    tables: RoutingTable,
    rate: float,
    cycles: int = 3000,
    packet_size: int = 8,
    seed: int = 1996,
    engine: str = "auto",
) -> dict:
    """One point of the latency/throughput curve, run alone.

    ``engine="auto"`` routes wide single fabrics to the vectorized core;
    a forced engine that cannot run the point raises ``ValueError``.
    """
    spec = point_spec(net, tables, rate, cycles, packet_size, seed, engine)
    return point_row(spec, api.execute(spec))


def database_point(
    net: Network,
    tables: RoutingTable,
    cycles: int = 3000,
    packet_size: int = 8,
    seed: int = 7,
) -> dict:
    """Sustained database-query traffic (4 CPUs -> 4 disks per query)."""
    workload = DatabaseWorkload(net.end_node_ids(), seed=seed)
    queries = workload.queries(num_queries=64)
    rng = np.random.default_rng(seed)

    from repro.sim.traffic import SequenceCounter  # deterministic ids

    counter = SequenceCounter()

    def traffic(cycle: int):
        # A new query starts every 50 cycles; its 4 transfers inject
        # together and repeat every 10 cycles while the query is live.
        out = []
        if cycle % 10 == 0:
            active = queries[(cycle // 50) % len(queries)]
            for src, dst in active:
                if rng.random() < 0.8:
                    out.append(counter.make(src, dst, packet_size, cycle))
        return out

    spec = api.SimSpec((net, tables), traffic, POINT_CONFIG, cycles, drain=True)
    stats = api.execute(spec).stats
    return {
        "avg_latency": stats.avg_latency,
        "p99_latency": stats.p99_latency,
        "delivered": stats.packets_delivered,
        "offered": stats.packets_offered,
        "deadlocked": stats.deadlocked,
        "order_violations": len(stats.in_order_violations),
    }


def large_scale_point(
    levels: int = 3,
    fat: bool = True,
    rate: float = 0.002,
    cycles: int = 1500,
    packet_size: int = 8,
) -> dict:
    """§4.0 verbatim: 'simulations of large topologies ... under heavy
    loading'.  Simulate the paper's 1024-CPU fractahedron (three levels,
    fan-out stage) at a sustainable load and report latency against the
    zero-load model -- the gap is pure queueing.
    """
    from repro.core.fractahedron import fractahedron, FractaParams
    from repro.metrics.latency_model import zero_load_latency_cycles
    from repro.routing.base import compute_route

    params = FractaParams(levels, fat=fat, fanout_width=2)
    net = fractahedron(params)
    tables = cached_tables(net)
    point = simulate_load_point(net, tables, rate, cycles, packet_size)
    # zero-load model for the worst pair, for comparison
    from repro.experiments.table1_fractahedron import worst_pair

    src, dst = worst_pair(params)
    worst_route = compute_route(net, tables, src, dst)
    point["nodes"] = net.num_end_nodes
    point["routers"] = net.num_routers
    point["zero_load_worst_latency"] = zero_load_latency_cycles(
        worst_route, packet_size
    )
    return point


def _db_task(args: tuple[Network, RoutingTable, int]) -> dict:
    net, tables, cycles = args
    return database_point(net, tables, cycles)


def run(
    rates: tuple[float, ...] = (0.002, 0.005, 0.01, 0.02, 0.04),
    cycles: int = 3000,
    jobs: int = 1,
    runner: SweepRunner | None = None,
) -> dict:
    """The full grid: |contenders| x |rates| load points plus one database
    workload per contender.

    Every (contender, rate) cell is one :func:`point_spec`, seeded from
    its identity, and all cells go through ``runner.execute_batch``: where
    the engine decision picks the vectorized core, each contender's rates
    form one batch, one runner task advancing as one kernel; otherwise
    each rate is a task of its own.  The
    database points use generator traffic and run alone, fanned over
    ``runner.map``.

    Pass a ``runner`` to keep its timing stats; otherwise one is created
    with ``jobs`` workers.  Results are bit-identical for any worker count.
    """
    runner = runner or SweepRunner(jobs)
    targets = {name: build() for name, build in CONTENDERS.items()}
    specs = [
        point_spec(
            *target,
            rate,
            cycles,
            seed=derive_seed(1996, "contender", name, "rate", repr(rate)),
        )
        for name, target in targets.items()
        for rate in map(float, rates)
    ]
    points = [point_row(*pair) for pair in zip(specs, runner.execute_batch(specs))]
    dbs = runner.map(
        _db_task,
        [(*target, cycles) for target in targets.values()],
        labels=[f"{name} database" for name in targets],
    )
    return {
        name: {"sweep": points[i * len(rates) : (i + 1) * len(rates)], "database": db}
        for i, (name, db) in enumerate(zip(targets, dbs))
    }


def report(cycles: int = 3000, jobs: int = 1) -> str:
    runner = SweepRunner(jobs)
    results = run(cycles=cycles, runner=runner)
    lines = ["Section 4.0 future work: wormhole simulation under load", ""]
    for name, data in results.items():
        lines.append(f"{name}:")
        lines.append("  offered   accepted    avg lat   p99 lat")
        for point in data["sweep"]:
            lines.append(
                f"  {point['offered_rate']:.3f}     "
                f"{point['accepted_flits_per_node_cycle']:.4f}      "
                f"{point['avg_latency']:7.1f}   {point['p99_latency']:7.1f}"
                + ("  DEADLOCK" if point["deadlocked"] else "")
            )
        db = data["database"]
        lines.append(
            f"  database workload: {db['delivered']}/{db['offered']} delivered, "
            f"avg lat {db['avg_latency']:.1f}, order violations {db['order_violations']}"
        )
        lines.append("")
    lines.append(runner.stats.report())
    return "\n".join(lines)
