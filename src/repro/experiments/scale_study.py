"""Scale study: thousand-router fractahedrons end to end (§4.0 scaling).

The paper stops at a 1024-CPU fractahedron on paper; this driver builds it
(and its smaller siblings) for real and measures the whole pipeline at each
depth: topology construction, the fractahedral routing-table build,
compilation of the simulator IR and engine set-up, and a per-engine
simulation head-to-head -- the compiled core's cycles/second
against the vectorized core run single-replica (B=1) on the same stream,
with a ``stats_signature`` parity bit proving the two runs bit-identical.
Each row also records which engine the width-aware ``auto`` dispatch
(:func:`repro.sim.api.preferred_engine`) would pick at that load.

At the top depth the measured fabric is validated against the Table 1
closed forms (node count, worst-case delay, bisection), so the scale path
re-proves the paper's arithmetic on the largest instance it touches.
"""

from __future__ import annotations

import time

from repro.core.analysis import (
    fat_bisection_links,
    fat_max_router_hops,
    max_nodes,
    thin_bisection_links,
    thin_max_router_hops,
)
from repro.core.fractahedron import FractaParams, fractahedron
from repro.core.routing import fractahedral_tables
from repro.experiments.table1_fractahedron import worst_pair
from repro.metrics.bisection import bisection_of_partition
from repro.metrics.report import format_table
from repro.routing.base import compute_route
from repro.obs.parity import stats_signature
from repro.sim import SimConfig, UniformPlan
from repro.sim.api import make_sim, preferred_engine
from repro.sim.compile import compile_network

__all__ = ["run", "report", "measure_depth"]

FANOUT = 2


def measure_depth(
    levels: int,
    fat: bool = True,
    sim_cycles: int = 200,
    sim_rate: float = 0.02,
    seed: int = 7,
    sim_rounds: int = 1,
) -> dict:
    """Build one fractahedron and measure its full scale-pipeline row.

    ``sim_rounds > 1`` re-runs each engine's simulation on a fresh,
    identical stream and keeps the best wall time (the benchmark suite's
    noise discipline); counters are from the first round and identical
    across rounds by determinism.
    """
    params = FractaParams(levels, fat=fat, fanout_width=FANOUT)

    start = time.perf_counter()
    net = fractahedron(params)
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    frac = fractahedral_tables(net)
    frac_s = time.perf_counter() - start

    start = time.perf_counter()
    compiled = compile_network(net)
    compile_s = time.perf_counter() - start

    # Setup (the route lookup and engine state; the CompiledNet memo
    # already holds the compile) is timed apart from the steady-state
    # engine throughput.
    plan = UniformPlan(rate=sim_rate, packet_size=2, seed=seed)
    traffic = plan.build(net)
    start = time.perf_counter()
    sim = make_sim(net, frac, traffic, SimConfig(engine="compiled"))
    lower_s = time.perf_counter() - start
    start = time.perf_counter()
    stats = sim.run(sim_cycles)
    sim_s = time.perf_counter() - start
    for _ in range(sim_rounds - 1):
        resim = make_sim(net, frac, plan.build(net), SimConfig(engine="compiled"))
        start = time.perf_counter()
        resim.run(sim_cycles)
        sim_s = min(sim_s, time.perf_counter() - start)

    # Head-to-head: the vectorized core on the same stream, single
    # replica -- the plan travels unbuilt so the array fast path
    # pre-generates arrivals.  The parity bit holds the engines to the
    # bit-identical contract on every row the study publishes.
    start = time.perf_counter()
    vsim = make_sim(net, frac, plan, SimConfig(engine="vectorized"))
    vec_setup_s = time.perf_counter() - start
    start = time.perf_counter()
    vstats = vsim.run(sim_cycles)
    vec_sim_s = time.perf_counter() - start
    for _ in range(sim_rounds - 1):
        revsim = make_sim(net, frac, plan, SimConfig(engine="vectorized"))
        start = time.perf_counter()
        revsim.run(sim_cycles)
        vec_sim_s = min(vec_sim_s, time.perf_counter() - start)
    sim.finalize()
    vsim.finalize()
    sim_parity = stats_signature(sim) == stats_signature(vsim)

    return {
        "levels": levels,
        "fat": fat,
        "ends": net.num_end_nodes,
        "routers": net.num_routers,
        "channels": compiled.num_channels,
        "build_s": round(build_s, 4),
        "frac_table_s": round(frac_s, 4),
        "compile_s": round(compile_s, 4),
        "lower_s": round(lower_s, 4),
        "sim_s": round(sim_s, 4),
        "cycles_per_sec": round(stats.cycles / sim_s, 1) if sim_s else 0.0,
        "packets_delivered": stats.packets_delivered,
        "vec_setup_s": round(vec_setup_s, 4),
        "vec_sim_s": round(vec_sim_s, 4),
        "vec_cycles_per_sec": (
            round(vstats.cycles / vec_sim_s, 1) if vec_sim_s else 0.0
        ),
        "vec_speedup": round(sim_s / vec_sim_s, 2) if vec_sim_s else 0.0,
        "sim_parity": sim_parity,
        "auto_engine": preferred_engine(net, SimConfig(), plan),
    }


def _validate_top(row: dict) -> dict:
    """Re-prove the Table 1 closed forms on the study's largest fabric."""
    levels, fat = row["levels"], row["fat"]
    params = FractaParams(levels, fat=fat, fanout_width=FANOUT)
    net = fractahedron(params)
    tables = fractahedral_tables(net)

    src, dst = worst_pair(params)
    worst = compute_route(net, tables, src, dst)
    delay_formula = (
        fat_max_router_hops(levels) if fat else thin_max_router_hops(levels)
    ) + 2  # fan-out stage adds one hop each side (Table 1 footnote)

    half = net.num_end_nodes // 2
    bisection = bisection_of_partition(net, [f"n{i}" for i in range(half)])
    bisection_formula = fat_bisection_links(levels) if fat else thin_bisection_links(levels)

    return {
        "levels": levels,
        "fat": fat,
        "nodes": net.num_end_nodes,
        "nodes_formula": max_nodes(levels, FANOUT),
        "worst_pair_hops": worst.router_hops,
        "delay_formula": delay_formula,
        "bisection": bisection,
        "bisection_formula": bisection_formula,
        "nodes_ok": net.num_end_nodes == max_nodes(levels, FANOUT),
        "delay_ok": worst.router_hops == delay_formula,
        "bisection_ok": bisection == bisection_formula,
    }


def run(max_levels: int = 3, fat: bool = True, sim_cycles: int = 200) -> dict:
    rows = [
        measure_depth(levels, fat=fat, sim_cycles=sim_cycles)
        for levels in range(1, max_levels + 1)
    ]
    return {"rows": rows, "validation": _validate_top(rows[-1])}


def report(max_levels: int = 3) -> str:
    result = run(max_levels)
    table = []
    for r in result["rows"]:
        table.append(
            [
                r["levels"],
                r["ends"],
                r["routers"],
                f"{r['build_s']:.3f}",
                f"{r['compile_s']:.3f}",
                f"{r['cycles_per_sec']:.0f}",
                f"{r['vec_cycles_per_sec']:.0f}"
                + ("=" if r["sim_parity"] else "!"),
                r["auto_engine"],
            ]
        )
    v = result["validation"]
    checks = (
        f"top depth N={v['levels']}: nodes {v['nodes']} (={v['nodes_formula']}), "
        f"worst delay {v['worst_pair_hops']} (={v['delay_formula']}), "
        f"bisection {v['bisection']} (={v['bisection_formula']})"
    )
    return (
        format_table(
            [
                "N",
                "ends",
                "routers",
                "build s",
                "compile s",
                "cyc/s",
                "vec cyc/s",
                "auto",
            ],
            table,
            title="Scale study: build/table/compile/sim pipeline vs depth (fat, fanout 2)",
        )
        + "\n"
        + checks
    )
