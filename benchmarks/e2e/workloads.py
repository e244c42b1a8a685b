"""The four benchmark workloads.  Each function runs one iteration.

An iteration calls the program's public functions and times each call
from outside, as a *section* labelled ``kind`` or ``kind:detail``
(``bench.py`` turns sections into metrics).  Checking outputs happens
between sections, so it is not timed.

Every checked output is one *operation*.  Its digest is a sha256 of the
output's canonical JSON.  An operation that breaks an invariant, such as a
deadlock, a certifier rejection or a Table 1 miscount, records a problem.

Traffic derives from the run seed: ``derive_seed(seed, workload, i)`` for
the workload's i-th simulation.  Every iteration of a run therefore repeats
the same inputs, so their digests must agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import time
import traceback
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.analysis import max_nodes
from repro.deadlock.analysis import certify_deadlock_free
from repro.deadlock.certifier import certify_channel_order
from repro.experiments.fault_study import RECOVERY_REROUTE, RECOVERY_RETRY
from repro.experiments.future_simulation import CONTENDERS
from repro.obs.parity import stats_signature
from repro.routing.cache import DEFAULT_CACHE, cached_tables
from repro.sim.api import make_sim
from repro.sim.engine import SimConfig
from repro.sim.fault import random_cable_schedule
from repro.sim.parallel import derive_seed
from repro.sim.recovery import simulate_with_recovery
from repro.sim.sweep import curve_points, find_saturation
from repro.sim.vec import UniformPlan
from repro.topology.registry import build_topology
from tracer import Tracer, layer_metrics

__all__ = ["WORKLOADS", "digest", "run_iteration"]

D3_RATES = (0.004, 0.008, 0.016)  # below, at and past the depth-3 knee
SWEEP_RATES = tuple(round(0.004 * k, 3) for k in range(1, 17))
FAULT_COUNTS = (1, 2, 3, 4)
#: The failed cables come from this fixed seed, not the run seed, so every
#: run seed exercises the same recovery control-plane work.
CABLE_SEED = 1996


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """sha256 of ``value`` as canonical JSON (sorted keys, exact floats)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(blob.encode()).hexdigest()


class Iteration:
    """Timed sections and checked outputs of one workload iteration."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.sections: dict[str, float] = {}
        self.ops: dict[str, dict[str, Any]] = {}
        self.sim_cycles = 0

    @contextmanager
    def timed(self, kind: str, detail: Any = None) -> Iterator[None]:
        label = kind if detail is None else f"{kind}:{detail}"
        with self.tracer.span(f"bench.{label}") if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                self.sections[label] = time.perf_counter() - start

    def check(self, op: str, output: Any, problem: str | None = None) -> None:
        self.ops[op] = {"digest": digest(output), "problem": problem}

    def check_run(self, op: str, sim: Any) -> None:
        """Digest a finished lone run; a deadlock is a problem."""
        self.check(op, stats_signature(sim), "deadlocked" if sim.stats.deadlocked else None)


def _verdict(result: Any) -> dict[str, Any]:
    """The fields both certifiers report: verdict and dependency count."""
    return {
        "deliverable": result.deliverable,
        "deadlock_free": result.deadlock_free,
        "num_dependencies": result.num_dependencies,
    }


def d4_cold(it: Iteration, seed: int, quick: bool) -> None:
    """Depth-4 fat fractahedron from a cold process, one vectorized run."""
    with it.timed("build"):
        net = build_topology("fat_fractahedron", levels=4, fanout_width=2)
    nodes = max_nodes(4, 2)
    it.check(
        "table1_nodes",
        [net.num_end_nodes, net.num_routers, net.num_links],
        None if net.num_end_nodes == nodes else f"Table 1 gives {nodes} end nodes",
    )
    with it.timed("tables"):
        tables = cached_tables(net)
    with it.timed("certify"):
        cert = certify_channel_order(
            net,
            tables,
            sample=512 if quick else 4096,
            seed=derive_seed(seed, "d4_cold", "certify"),
        )
    verdict = dict(_verdict(cert), num_channels=cert.num_channels)
    it.check("certify", verdict, None if cert.certified else "tables rejected")
    plan = UniformPlan(0.002, 8, derive_seed(seed, "d4_cold", 0))
    with it.timed("make_sim"):
        sim = make_sim(net, tables, plan, SimConfig(raise_on_deadlock=False))
    with it.timed("run"):
        stats = sim.run(400 if quick else 4000)
    with it.timed("finalize"):
        sim.finalize()
    it.sim_cycles += stats.cycles
    it.check_run("run", sim)


def d3_loads(it: Iteration, seed: int, quick: bool) -> None:
    """Depth-3 fat fractahedron, three lone runs from light to saturated."""
    with it.timed("build"):
        net = build_topology("fat_fractahedron", levels=3, fanout_width=2)
    with it.timed("tables"):
        tables = cached_tables(net)
    for i, rate in enumerate(D3_RATES):
        plan = UniformPlan(rate, 8, derive_seed(seed, "d3_loads", i))
        with it.timed("make_sim", rate):
            sim = make_sim(net, tables, plan, SimConfig(raise_on_deadlock=False))
        with it.timed("run", rate):
            stats = sim.run(400 if quick else 4000)
        with it.timed("finalize", rate):
            sim.finalize()
        it.sim_cycles += stats.cycles
        it.check_run(f"run@{rate}", sim)


def sweep64(it: Iteration, seed: int, quick: bool) -> None:
    """Latency curve and saturation search on the three 64-node contenders."""
    rates = SWEEP_RATES[::4] if quick else SWEEP_RATES
    cycles = 200 if quick else 1000
    for name, build in CONTENDERS.items():
        with it.timed("build", name):
            net, tables = build()
        point_seed = derive_seed(seed, "sweep64", name)
        with it.timed("curve", name):
            points = curve_points(net, tables, rates, cycles=cycles, packet_size=8, seed=point_seed)
        it.sim_cycles += cycles * len(rates)
        it.check(f"curve[{name}]", points, None if len(points) == len(rates) else "points lost")
        with it.timed("saturation", name):
            rate = find_saturation(net, tables, cycles=cycles, packet_size=8, seed=point_seed)
        it.check(f"saturation[{name}]", rate, None if rate > 0 else "saturated at every rate")


def faults128(it: Iteration, seed: int, quick: bool) -> None:
    """128-end fat fractahedron: both certifiers, then fail/repair episodes."""
    with it.timed("build"):
        net = build_topology("fat_fractahedron", levels=2, fanout_width=2)
    with it.timed("tables"):
        tables = cached_tables(net)
    with it.timed("certify", "order"):
        order = certify_channel_order(net, tables)
    with it.timed("certify", "cdg"):
        cdg = certify_deadlock_free(net, tables)
    verdict = _verdict(order)
    problem = None
    if verdict != _verdict(cdg):
        problem = f"certifiers disagree: order {verdict}, cdg {_verdict(cdg)}"
    elif not order.certified:
        problem = "tables rejected"
    it.check("certify", verdict, problem)
    cycles, fail_at, repair_at = (800, 200, 600) if quick else (1600, 400, 1200)
    for k in FAULT_COUNTS:
        rng = np.random.default_rng(derive_seed(CABLE_SEED, "faults128", "cables", k))
        fault = random_cable_schedule(net, k, rng, at_cycle=fail_at, repair_at=repair_at)
        with it.timed("episode", k):
            row = simulate_with_recovery(
                net,
                tables,
                rate=0.02,
                cycles=cycles,
                packet_size=4,
                seed=derive_seed(seed, "faults128", k),
                fault=fault,
                retry=RECOVERY_RETRY,
                reroute=RECOVERY_REROUTE,
                failover=True,
            )
        it.sim_cycles += row["cycles"]
        it.check(f"episode[k={k}]", row, "deadlocked" if row["deadlocked"] else None)


WORKLOADS: dict[str, Callable[[Iteration, int, bool], None]] = {
    "d4_cold": d4_cold,
    "d3_loads": d3_loads,
    "sweep64": sweep64,
    "faults128": faults128,
}


def run_iteration(workload: str, seed: int, traced: bool, quick: bool) -> dict[str, Any]:
    """Run one iteration in this process and return its record.

    A traced iteration installs the tracer first and adds its spans and
    per-layer metrics.  An exception ends the iteration early; the record
    then carries the traceback under ``error`` and the operations checked
    so far.
    """
    tracer = None
    if traced:
        tracer = Tracer(f"{workload}-{seed}-{time.time_ns()}")
        tracer.install()
    it = Iteration(tracer)
    record: dict[str, Any] = {"workload": workload, "seed": seed, "traced": traced}
    try:
        WORKLOADS[workload](it, seed, quick)
    except Exception:  # the iteration boundary: report the failure, keep the record
        record["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    record.update(
        sections=it.sections,
        sim_cycles=it.sim_cycles,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=it.ops,
    )
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, tracer.counts, DEFAULT_CACHE)
        record["spans"] = [span.as_dict() for span in tracer.spans]
    return record
