"""Scale curve: the fractahedron pipeline from 16 to 8192 end nodes.

Times topology build, routing-table build and a per-engine simulation
head-to-head (compiled core vs single-replica vectorized core, with a
bit-identity parity bit) at depths 1-4 of the fat fanout-2 fractahedron,
pits ``shortest_path_tables`` (the array BFS) against the per-destination
Python BFS oracle from the test suite at the paper's 1024-CPU depth
(bit-identity of the port matrices the engines route from, full-sweep
timing, end-to-end speedup), validates the Table 1 closed forms at depth
3, and writes ``BENCH_scale.json`` at the repo root.

Every depth row shares one schema: the pipeline keys (``build_s``,
``frac_table_s``, ``compile_s``, ``lower_s`` -- the compiled engine's
``make_sim``: its route lookup plus engine state) and the sim keys
(``sim_s``, ``cycles_per_sec``, ``packets_delivered``, ``vec_sim_s``,
``vec_cycles_per_sec``, ``vec_speedup``, ``sim_parity``,
``auto_engine``) are always present, so downstream tooling can read
``row["cycles_per_sec"]`` at any depth.  Depth 4 (8192 ends, ~8K
routers) exercises the memory refactors -- the one-byte table matrix that
both engines route from directly and windowed traffic pre-generation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.fractahedron import fat_fractahedron
from repro.core.routing import fractahedral_tables
from repro.experiments import scale_study
from repro.routing.cache import RoutingTableCache
from repro.routing.shortest_path import shortest_path_tables
from repro.obs.parity import stats_signature
from repro.sim.api import make_sim, preferred_engine
from repro.sim.compile import compile_network
from repro.sim.engine import SimConfig
from repro.sim.vec import UniformPlan
from tests.routing.test_hierarchical import python_bfs_tables

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Paper expectations at the study depths: nodes 2*8^N, fat delay 3N-1
#: (+2 fan-out), fat bisection 4^N.
PAPER = {1: (16, 4, 4), 2: (128, 7, 16), 3: (1024, 10, 64)}

#: Short compiled-engine runs; fewer cycles at depth 4 keeps the module
#: inside a benchmark-suite budget while still measuring steady state.
SIM_CYCLES = {1: 400, 2: 400, 3: 200, 4: 120}


#: Sim-schema keys guaranteed present (and real, not null) on every
#: depth row, down to depth 4's reduced-cycle run.
SIM_KEYS = (
    "sim_s",
    "cycles_per_sec",
    "packets_delivered",
    "vec_sim_s",
    "vec_cycles_per_sec",
    "vec_speedup",
    "sim_parity",
    "auto_engine",
)


def _depth4_row() -> dict:
    """Depth 4 measured directly: build + closed-form tables + both engines.

    The sim keys are populated for real by a reduced-cycle run
    (``SIM_CYCLES[4]``) on each engine, same schema as depths 1-3.
    """
    start = time.perf_counter()
    net = fat_fractahedron(4, fanout_width=2)
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    tables = fractahedral_tables(net)
    frac_s = time.perf_counter() - start

    start = time.perf_counter()
    compiled = compile_network(net)
    compile_s = time.perf_counter() - start

    plan = UniformPlan(rate=0.02, packet_size=2, seed=7)
    traffic = plan.build(net)
    start = time.perf_counter()
    sim = make_sim(net, tables, traffic, SimConfig(engine="compiled"))
    lower_s = time.perf_counter() - start
    start = time.perf_counter()
    stats = sim.run(SIM_CYCLES[4])
    sim_s = time.perf_counter() - start

    start = time.perf_counter()
    vsim = make_sim(net, tables, plan, SimConfig(engine="vectorized"))
    vec_setup_s = time.perf_counter() - start
    start = time.perf_counter()
    vstats = vsim.run(SIM_CYCLES[4])
    vec_sim_s = time.perf_counter() - start
    sim.finalize()
    vsim.finalize()
    parity = stats_signature(sim) == stats_signature(vsim)

    return {
        "levels": 4,
        "fat": True,
        "ends": net.num_end_nodes,
        "routers": net.num_routers,
        "channels": compiled.num_channels,
        "build_s": round(build_s, 4),
        "frac_table_s": round(frac_s, 4),
        "compile_s": round(compile_s, 4),
        "lower_s": round(lower_s, 4),
        "sim_s": round(sim_s, 4),
        "cycles_per_sec": round(stats.cycles / sim_s, 1),
        "packets_delivered": stats.packets_delivered,
        "vec_setup_s": round(vec_setup_s, 4),
        "vec_sim_s": round(vec_sim_s, 4),
        "vec_cycles_per_sec": round(vstats.cycles / vec_sim_s, 1),
        "vec_speedup": round(sim_s / vec_sim_s, 2),
        "sim_parity": parity,
        "auto_engine": preferred_engine(net, SimConfig(), plan),
    }


def test_scale_curve_identity_and_speedup(once):
    rows = once(
        lambda: [
            scale_study.measure_depth(
                levels, sim_cycles=SIM_CYCLES[levels], sim_rounds=3
            )
            for levels in (1, 2, 3)
        ]
    )

    for row in rows:
        assert row["ends"] == PAPER[row["levels"]][0]
        assert row["packets_delivered"] > 0

    # Head-to-head at the paper's 1024-CPU depth: a *full* destination
    # sweep of the Python BFS oracle, bit-identity of the port matrices
    # the engines route from, and the end-to-end (build + tables + route
    # lookup + compile) speedup.
    start = time.perf_counter()
    net = fat_fractahedron(3, fanout_width=2)
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    array = shortest_path_tables(net)
    array_s = time.perf_counter() - start
    start = time.perf_counter()
    RoutingTableCache().get_or_lower(net, array)
    array_lower_s = time.perf_counter() - start

    start = time.perf_counter()
    oracle = python_bfs_tables(net)
    oracle_s = time.perf_counter() - start
    start = time.perf_counter()
    RoutingTableCache().get_or_lower(net, oracle)
    oracle_lower_s = time.perf_counter() - start

    assert np.array_equal(array.ports_on(net), oracle.ports_on(net))

    start = time.perf_counter()
    compile_network(net)
    compile_s = time.perf_counter() - start

    array_total = build_s + array_s + array_lower_s + compile_s
    oracle_total = build_s + oracle_s + oracle_lower_s + compile_s
    speedup = oracle_total / array_total

    depth4 = _depth4_row()

    # One schema across all depths: the sim keys are present and real
    # everywhere, and every row's engines agreed bit for bit.
    for row in rows + [depth4]:
        for key in SIM_KEYS:
            assert key in row, f"depth {row['levels']} missing {key}"
        assert row["sim_parity"] is True

    # The width-aware dispatcher must send the wide single fabrics to the
    # vectorized core and keep the narrow ones compiled at this load.
    assert [r["auto_engine"] for r in rows + [depth4]] == [
        "compiled",
        "compiled",
        "vectorized",
        "vectorized",
    ]

    # Acceptance bar is >=5x cycles/sec at depth 3 for the vec path over
    # the pre-active-set compiled figure; assert a relative floor against
    # the same-run compiled measurement so machine noise cannot flake it.
    d3 = rows[2]
    assert d3["vec_cycles_per_sec"] >= 2.0 * d3["cycles_per_sec"], (
        f"vec path too slow at depth 3: {d3['vec_cycles_per_sec']} vs "
        f"compiled {d3['cycles_per_sec']} cycles/sec"
    )
    assert depth4["vec_cycles_per_sec"] >= 100, (
        f"depth-4 sim row not in the hundreds: {depth4['vec_cycles_per_sec']}"
    )

    v = scale_study._validate_top({"levels": 3, "fat": True})
    assert v["nodes_ok"] and v["delay_ok"] and v["bisection_ok"]
    for levels, (_, delay, bisection) in PAPER.items():
        if levels == 3:
            assert v["worst_pair_hops"] == delay
            assert v["bisection"] == bisection

    report = {
        "topology": "fat fractahedron, fanout 2",
        "depths": rows + [depth4],
        "depth3_head_to_head": {
            "build_s": round(build_s, 4),
            "array_table_s": round(array_s, 4),
            "array_lower_s": round(array_lower_s, 4),
            "oracle_full_sweep_s": round(oracle_s, 4),
            "oracle_lower_s": round(oracle_lower_s, 4),
            "compile_s": round(compile_s, 4),
            "array_end_to_end_s": round(array_total, 4),
            "oracle_end_to_end_s": round(oracle_total, 4),
            "end_to_end_speedup": round(speedup, 2),
            "ports_bit_identical": True,
        },
        "table1_validation": v,
    }
    (REPO_ROOT / "BENCH_scale.json").write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(scale_study.report())
    print(
        f"depth-3 end to end: array BFS {array_total:.3f}s vs "
        f"Python BFS {oracle_total:.3f}s ({speedup:.1f}x)"
    )
    print(
        "depth-4 (8192 ends): build {build_s}s, tables {frac_table_s}s, "
        "compile {compile_s}s, compiled {cycles_per_sec} cycles/s, "
        "vec {vec_cycles_per_sec} cycles/s (parity={sim_parity})".format(**depth4)
    )

    # Acceptance bar is >= 5x on an idle machine; assert a safety-margined
    # floor so CI noise cannot flake it, and record the measured value.
    assert speedup >= 3.0, f"array BFS too slow: {speedup:.2f}x"
