"""§1.0: dual-fabric fault tolerance, quantified -- statics and dynamics.

"Full network fault-tolerance can be provided by configuring pairs of
router fabrics with dual-ported nodes."  This experiment measures what
that buys, in two parts:

**Availability (static)**, on the 64-node fat fractahedron:

* **single fabric**: availability (fraction of ordered pairs still
  deliverable over their fixed routes) as random cables fail;
* **dual fabric**: the same failure count split across two independent
  fabrics, with per-transfer failover -- availability stays at 100 %
  until failures collide on both fabrics' fixed paths for the same pair;
* the §2.2 reflexivity point: losing one *direction* of a cable kills
  the whole duplex path for a reflexive route (the acknowledgements
  cannot return), so reflexive routing makes cable-level failure the
  right fault model.

**Recovery (dynamic)**, on both Table 2 topologies (the 4-2 fat tree and
the fat fractahedron): live traffic runs through one fail/repair episode
with the full recovery stack on -- NIC timeout/retry with exponential
backoff, online re-routing (certified deadlock-free tables recomputed
around the failed links and atomically swapped in), and second-fabric failover for
packets whose retry budget expires.  Each row reports delivered /
retried / dropped / failed-over counts, the number of table swaps, the
time to reconvergence, the failover latency, and the post-recovery
delivery rate (service after the last table swap).
"""

from __future__ import annotations

import numpy as np

from repro.core.fractahedron import fat_fractahedron
from repro.experiments.future_simulation import CONTENDERS
from repro.routing.base import all_pairs_routes
from repro.routing.cache import cached_tables
from repro.servernet.fabric import DualFabric
from repro.sim.engine import RetryPolicy, ReroutePolicy
from repro.sim.parallel import SweepRunner, derive_seed
from repro.sim.sweep import recovery_curve

__all__ = ["RECOVERY_TOPOLOGIES", "run", "report", "single_fabric_availability"]

#: the Table 2 head-to-head pair, as ``(net, tables)`` builders
RECOVERY_TOPOLOGIES = {
    "fat_tree_4_2": CONTENDERS["fat tree 4-2"],
    "fat_fractahedron": CONTENDERS["fat fractahedron"],
}

#: one fail/repair episode: cables die at 1/4 of the run, are repaired at
#: 3/4, so both the failure *and* the repair exercise the reroute path
RECOVERY_CYCLES = 600
RECOVERY_RATE = 0.03
RECOVERY_RETRY = RetryPolicy(timeout=48, backoff=2.0, max_retries=2, resend_delay=1)
RECOVERY_REROUTE = ReroutePolicy(detection_delay=16, reconvergence_delay=32)


def single_fabric_availability(
    net, routes, failed_cables: set[frozenset[str]]
) -> float:
    """Fraction of pairs whose fixed route avoids every failed cable."""
    total = 0
    ok = 0
    for route in routes:
        total += 1
        if not any(
            frozenset((l, net.link(l).reverse_id)) in failed_cables
            for l in route.links
        ):
            ok += 1
    return ok / total if total else 1.0


def _random_cables(net, count: int, rng) -> list[str]:
    """Pick ``count`` distinct router-to-router cables (one direction id)."""
    cables = sorted(
        {min(l.link_id, l.reverse_id) for l in net.router_links()}
    )
    picks = rng.choice(len(cables), size=min(count, len(cables)), replace=False)
    return [cables[int(i)] for i in picks]


def _fault_row(args: tuple[int, int, int]) -> dict:
    """All trials for one failure count -- one independent task.

    The row's RNG seed is derived from (base seed, failure count) so the
    rows are decoupled from each other: the same row comes back whether
    its siblings ran before it (serial) or beside it (parallel).
    """
    k, trials, seed = args
    net = fat_fractahedron(2)
    tables = cached_tables(net)
    routes = all_pairs_routes(net, tables)
    pairs = routes.pairs()
    rng = np.random.default_rng(derive_seed(seed, "failures", k))

    single_vals = []
    dual_vals = []
    for _ in range(trials):
        # single fabric: k failed cables
        failed = {
            frozenset((c, net.link(c).reverse_id))
            for c in _random_cables(net, k, rng)
        }
        single_vals.append(single_fabric_availability(net, routes, failed))

        # dual fabric: the same k failures, split across X and Y
        fabric = DualFabric(
            build=lambda: fat_fractahedron(2), route=cached_tables
        )
        for i, cable in enumerate(_random_cables(net, k, rng)):
            fabric.fail_cable("X" if i % 2 == 0 else "Y", cable)
        dual_vals.append(fabric.availability(pairs))
    return {
        "failures": k,
        "single_avg": float(np.mean(single_vals)),
        "single_min": float(np.min(single_vals)),
        "dual_avg": float(np.mean(dual_vals)),
        "dual_min": float(np.min(dual_vals)),
        "pairs": len(pairs),
    }


def run(
    failure_counts: tuple[int, ...] = (1, 2, 4, 8),
    trials: int = 20,
    seed: int = 1996,
    jobs: int = 1,
    runner: SweepRunner | None = None,
    recovery: bool = True,
) -> dict:
    runner = runner or SweepRunner(jobs)
    rows = runner.map(
        _fault_row,
        [(k, trials, seed) for k in failure_counts],
        labels=[f"faults k={k}" for k in failure_counts],
    )
    pairs = rows[0]["pairs"] if rows else 0
    result = {"rows": rows, "pairs": pairs, "trials": trials}
    if recovery:
        result["recovery"] = run_recovery(
            failure_counts=failure_counts, seed=seed, runner=runner
        )
    return result


def run_recovery(
    failure_counts: tuple[int, ...] = (1, 2, 4, 8),
    seed: int = 1996,
    jobs: int = 1,
    runner: SweepRunner | None = None,
) -> list[dict]:
    """One fail/repair episode per (Table 2 topology, failure count).

    Every point runs the full stack -- retry, online re-routing, dual-
    fabric failover -- and is an independent task: its fault set derives
    from (topology, failure count), so the grid is bit-identical whether
    executed serially or across workers.
    """
    runner = runner or SweepRunner(jobs)
    out: list[dict] = []
    for name, build in RECOVERY_TOPOLOGIES.items():
        net, tables = build()
        points = recovery_curve(
            net,
            tables,
            failure_counts,
            rate=RECOVERY_RATE,
            cycles=RECOVERY_CYCLES,
            packet_size=4,
            seed=derive_seed(seed, "recovery", name),
            fault_cycle=RECOVERY_CYCLES // 4,
            repair_cycle=3 * RECOVERY_CYCLES // 4,
            retry=RECOVERY_RETRY,
            reroute=RECOVERY_REROUTE,
            failover=True,
            runner=runner,
        )
        for point in points:
            point["topology"] = name
            out.append(point)
    return out


def report(jobs: int = 1) -> str:
    result = run(jobs=jobs)
    lines = [
        "Section 1.0: dual-fabric fault tolerance "
        f"(64-node fat fractahedron, {result['trials']} trials/point)",
        "  failed cables | single fabric avail (avg/min) | dual fabric avail (avg/min)",
    ]
    for row in result["rows"]:
        lines.append(
            f"  {row['failures']:13d} | "
            f"{row['single_avg'] * 100:6.2f}% / {row['single_min'] * 100:6.2f}% | "
            f"{row['dual_avg'] * 100:6.2f}% / {row['dual_min'] * 100:6.2f}%"
        )
    lines += [
        "",
        "Recovery under live traffic (timeout/retry + online re-routing + "
        "failover; one fail/repair episode):",
        "  topology          k | delivered  retried  failover | swaps  "
        "reconv  fo-lat | post-recovery",
    ]
    for row in result.get("recovery", []):
        lines.append(
            f"  {row['topology']:<16s} {row['failures']:2d} | "
            f"{row['delivered']:5d}/{row['offered']:<5d} {row['retried']:5d} "
            f"{row['failed_over']:5d}   | {row['reroutes']:3d}  "
            f"{row['reconvergence_avg']:6.1f} {row['failover_latency_avg']:7.1f} | "
            f"{row['post_recovery_rate'] * 100:6.2f}%"
            + ("" if row["recovered_acyclic"] else "  [UNCERTIFIED]")
        )
    return "\n".join(lines)
