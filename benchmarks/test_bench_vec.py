"""Head-to-head of the batched vectorized VecCore against the compiled
SimCore.

Times both engines on the 64-node Table 2 workload -- the fat
fractahedron under uniform load at and past its saturation point -- and
writes ``BENCH_vec.json`` at the repo root.  The comparison is
throughput-normalized: the compiled core advances one replica at
``cycles/sec``; the vectorized core advances ``BATCH`` independent
(seed, rate) replicas in one kernel pass per cycle, so its figure is
aggregate replica-cycles/sec.  Rounds are interleaved (compiled, then
vectorized, three times) and the report keeps the best of each, which
cancels the machine-load noise that otherwise dominates single timings.

Replica 0 of every timed vectorized run shares its seed with the timed
compiled run, so the benchmark doubles as a parity spot-check: the two
must agree on every counter before their timings are comparable at all.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.routing.cache import cached_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import uniform_traffic
from repro.sim.vec import UniformPlan, VecCore

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Offered rates at and past the 64-node fractahedron's saturation point
#: (~0.10 flits/node/cycle; see BENCH_simcore.json / docs/performance.md).
RATES = (0.12, 0.2)
CYCLES = 800
BATCH = 96
ROUNDS = 3
SEED = 42

CFG = SimConfig(raise_on_deadlock=False, stall_threshold=8 * CYCLES)


@pytest.fixture(scope="module")
def net_and_tables():
    net = fat_fractahedron(2)
    return net, cached_tables(net)


def _run_compiled(net, tables, rate: float):
    sim = make_sim(
        net,
        tables,
        uniform_traffic(net.end_node_ids(), rate, 8, SEED),
        SimConfig(
            raise_on_deadlock=False, stall_threshold=8 * CYCLES, engine="compiled"
        ),
    )
    start = time.perf_counter()
    stats = sim.run(CYCLES, drain=True)
    elapsed = time.perf_counter() - start
    return stats, stats.cycles / elapsed


def _run_vec(net, tables, rate: float):
    plans = [UniformPlan(rate, 8, SEED + b) for b in range(BATCH)]
    core = VecCore(net, tables, plans, CFG)
    start = time.perf_counter()
    stats = core.run(CYCLES, drain=True)
    elapsed = time.perf_counter() - start
    total_cycles = sum(s.cycles for s in stats)
    return stats, total_cycles / elapsed


def test_vec_batch_throughput(net_and_tables):
    net, tables = net_and_tables
    report: dict = {
        "topology": net.name,
        "cycles": CYCLES,
        "batch": BATCH,
        "rounds": ROUNDS,
        "protocol": "interleaved best-of-rounds; vectorized figure is "
        "aggregate replica-cycles/sec across the batch",
        "rates": [],
    }
    ratios = []
    for rate in RATES:
        com_best, vec_best = 0.0, 0.0
        for _ in range(ROUNDS):
            com_stats, com_cps = _run_compiled(net, tables, rate)
            vec_stats, vec_cps = _run_vec(net, tables, rate)
            com_best = max(com_best, com_cps)
            vec_best = max(vec_best, vec_cps)
            # replica 0 ran the compiled run's exact workload: identical
            # counters are the precondition for comparing the clocks
            assert vec_stats[0].cycles == com_stats.cycles
            assert vec_stats[0].flits_moved == com_stats.flits_moved
            assert vec_stats[0].packets_delivered == com_stats.packets_delivered
            assert tuple(vec_stats[0].latencies) == tuple(com_stats.latencies)
        ratio = vec_best / com_best
        ratios.append(ratio)
        report["rates"].append(
            {
                "offered_rate": rate,
                "compiled": {"cycles_per_sec": round(com_best, 1)},
                "vectorized": {
                    "aggregate_cycles_per_sec": round(vec_best, 1),
                    "per_replica_cycles_per_sec": round(vec_best / BATCH, 1),
                },
                "batch_speedup": round(ratio, 2),
            }
        )
    report["best_speedup"] = round(max(ratios), 2)
    (REPO_ROOT / "BENCH_vec.json").write_text(json.dumps(report, indent=2) + "\n")

    # Measured 8.5-10x on an idle container; assert a safety-margined
    # floor so shared-machine noise cannot flake the suite.
    assert max(ratios) >= 5.0, f"vectorized batch advantage lost: {ratios}"


def test_perf_vec_saturation_point(benchmark, net_and_tables):
    """pytest-benchmark series for the batched engine at saturation."""
    net, tables = net_and_tables

    def run():
        return _run_vec(net, tables, 0.12)[0]

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(s.packets_delivered > 0 for s in stats)
