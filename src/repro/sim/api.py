"""The single public entrypoint for running wormhole simulations.

One hashable value object describes a run, and two functions execute it:

* :class:`SimSpec` -- a ``(network, tables)`` pair + traffic + config +
  run length, frozen and hashable, so a measurement point can key caches,
  travel to worker processes, and round-trip through equality checks;
* :func:`execute` / :func:`execute_batch` -- execute one spec (or a list
  of specs) and return :class:`RunResult` with the stats, the packet
  records and the resolved engine (curve summaries need per-packet
  latencies, not just counters, and read them as integer columns);
* :func:`make_sim` -- the one simulator constructor, for callers that
  need a live simulator object (probes, recovery managers, traces);
* :func:`preferred_engine` -- the one engine decision all of them ask.

``execute_batch`` is one place the vectorized engine pays off: specs that
share a ``(network, config, cycles, drain)`` group and carry an
array-expressible traffic plan advance together in a single
:class:`~repro.sim.vec.VecCore` batch -- one kernel pass per cycle for
the whole group -- while inexpressible specs fall back to per-spec
engines.  The other place is a single *wide* fabric: a lone spec whose
``num_channels x expected occupancy`` clears the calibrated crossover
(see :func:`preferred_engine`) runs as a B=1 ``VecCore``, where the
channel count itself is the amortizing width.  Results are bit-identical
either way; engine choice is purely a throughput knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.network.graph import Network
from repro.routing.base import RoutingTable
from repro.sim.compile import SimCore
from repro.sim.engine import SimConfig
from repro.sim.fault import FaultSchedule
from repro.sim.network_sim import ReferenceSim
from repro.sim.packet import Packet, PacketRecords
from repro.sim.stats import SimStats
from repro.sim.vec import MAX_SIZE, UniformPlan, VecCore, VecSim, vec_blockers

__all__ = [
    "RunResult",
    "SimSpec",
    "Simulator",
    "batch_groups",
    "execute",
    "execute_batch",
    "expected_occupancy",
    "make_sim",
    "preferred_engine",
]

#: What :func:`make_sim` returns: the engine object itself.
Simulator = ReferenceSim | SimCore | VecSim


@dataclass(frozen=True)
class SimSpec:
    """A hashable, self-contained description of one simulation run.

    Attributes:
        network: what to simulate on, the ``(network, tables)`` pair.  It
            hashes and compares by object identity, and a list of specs
            that share one pair pickles it once.
        traffic: the offered load -- a :class:`~repro.sim.vec.UniformPlan`
            (hashable recipe; eligible for batched execution) or any
            ``TrafficGenerator`` (falls back to per-spec engines).
        config: the :class:`~repro.sim.engine.SimConfig`; its ``engine``
            field picks the kernel exactly as in :func:`make_sim`.
        cycles: cycles of offered traffic.
        drain: keep simulating until delivery after ``cycles`` (see
            ``ReferenceSim.run``).
    """

    network: tuple[Network, RoutingTable]
    traffic: Any
    config: SimConfig = field(default_factory=SimConfig)
    cycles: int = 2000
    drain: bool = False


class RunResult:
    """Everything a caller can want back from one executed spec.

    Attributes:
        stats: the run's :class:`~repro.sim.stats.SimStats`.
        records: the packets' ``(created, delivered, size)`` columns in
            packet-id order (:class:`~repro.sim.packet.PacketRecords`),
            all a sweep summary reads.
        engine: the engine that ran the spec.
        packets: the reference-shaped ``{packet_id: Packet}`` dict.  A
            vectorized result builds it from its replica's packet columns
            on first access, equal to the engine's own ``packets``; the
            scalar engines hand over theirs.
    """

    def __init__(
        self,
        stats: SimStats,
        records: PacketRecords,
        engine: str,
        packets: dict[int, Packet] | Callable[[], dict[int, Packet]],
    ) -> None:
        self.stats = stats
        self.records = records
        self.engine = engine
        self._packets = packets

    @property
    def packets(self) -> dict[int, Packet]:
        if not isinstance(self._packets, dict):
            self._packets = self._packets()
        return self._packets

    @classmethod
    def of(cls, sim: Simulator, stats: SimStats) -> RunResult:
        """Package a finished simulator's run."""
        if isinstance(sim, VecSim):
            return cls.of_replica(sim.core, 0, stats)
        packets = dict(sim.packets)
        return cls(stats, PacketRecords.of(packets), sim.engine, packets)

    @classmethod
    def of_replica(cls, core: VecCore, b: int, stats: SimStats) -> RunResult:
        """Package replica ``b`` of a finished :class:`VecCore`."""
        return cls(stats, core.packet_records(b), "vectorized", core.packet_source(b))


def make_sim(
    net: Network,
    tables: RoutingTable,
    traffic,
    config: SimConfig | None = None,
    **hooks: Any,
) -> Simulator:
    """Build the simulator :func:`preferred_engine` picks for this run.

    Returns the engine object itself -- a :class:`ReferenceSim`,
    :class:`SimCore` or :class:`VecSim`, each naming itself in its
    ``engine`` attribute.  ``hooks`` are the optional simulator hooks
    (``vc_select``, ``fault``, ``trace``, ``route_override``,
    ``on_deliver``, ``failover``, ``recovery``, ``probe``); a
    :class:`~repro.sim.vec.UniformPlan` is built into its generator unless
    the vectorized core, which pre-generates from the recipe, runs it.
    """
    cfg = config or SimConfig()
    engine = preferred_engine(net, cfg, traffic, **hooks)
    if engine == "vectorized":
        # every other hook is a blocker (vec_blockers), hence None here
        recovery = {k: hooks.get(k) for k in ("fault", "failover", "recovery")}
        return VecSim(net, tables, traffic, cfg, **recovery)
    if isinstance(traffic, UniformPlan):
        traffic = traffic.build(net)
    hooks = {k: v for k, v in hooks.items() if v is not None}
    if engine == "compiled":
        return SimCore(net, tables, traffic, cfg, **hooks)
    return ReferenceSim(net, tables, traffic, cfg, **hooks)


def execute(spec: SimSpec) -> RunResult:
    """Run one spec on the engine its config picks; return stats + packets."""
    net, tables = spec.network
    sim = make_sim(net, tables, spec.traffic, spec.config)
    sim.run(spec.cycles, drain=spec.drain)
    return RunResult.of(sim, sim.finalize())


#: Calibrated costs per simulated cycle in microseconds: least-squares
#: lines over the grid in docs/performance.md ("The dispatch cost model":
#: fat fanout-2 fractahedrons of depths 1-3 at packet 8, the 128-end one
#: at packet 4, and the 64-node Table-2 fabric, at offered rates from
#: trickle to saturation, against each run's mean occupied-buffer count).
#: The compiled core walks occupied channels in a Python loop, so its
#: cost is almost purely per occupancy; the vectorized core pays a fixed
#: dispatch overhead per cycle (about 33 C-level calls on the depth-3
#: fabric, plus its ufunc operators) and then near-zero marginal cost per
#: occupied channel.  The constants average two passes over the grid;
#: the lines cross at about 59 occupied channels, and with
#: :func:`expected_occupancy` the decision picks the measured faster engine
#: at every grid point.
VEC_FIXED_US = 144.0
VEC_PER_OCC_US = 0.09
COMPILED_FIXED_US = 20.0
COMPILED_PER_OCC_US = 2.2


def expected_occupancy(num_channels: int, num_ends: int, plan: UniformPlan) -> float:
    """Predicted mean occupied-buffer count for a uniform load.

    Little's law on flits, not simulation: ``rate * ends`` packets of
    ``packet_size`` flits enter per cycle, and each flit holds one buffer
    per hop it crosses.  The mean hop count, injection link included, is
    approximated as ``0.9 * log2(ends)``, which matches the measured
    low-load flit residence within a hop on the calibration grid (3.6 on
    16 ends, 4.6-4.9 on 64, 6.2-6.7 on 128, 8.9 on 1024).  Saturated
    fabrics hold flits in about half their buffers, hence the cap.  The
    estimate lands within 0.64-1.18x of the measured mean occupancy across
    the grid.
    """
    hops = 0.9 * math.log2(max(num_ends, 2))
    flits_per_cycle = plan.rate * num_ends * plan.packet_size
    return min(0.5 * num_channels, flits_per_cycle * hops)


def _scalar_only(config: SimConfig, hooks: dict[str, Any]) -> list[str]:
    """Features only the reference interpreter models, as blocker names."""
    out = [f"switching={config.switching!r}"] if config.switching != "wormhole" else []
    out += [h for h in ("vc_select", "route_override", "on_deliver") if hooks.get(h) is not None]
    fault = hooks.get("fault")
    if fault is not None and not isinstance(fault, FaultSchedule):
        out.append("non-FaultSchedule fault object")
    return out


def preferred_engine(
    net: Network, config: SimConfig, traffic: Any, *, replicas: int = 1, **hooks: Any
) -> str:
    """The engine decision: which kernel runs ``replicas`` copies of a spec.

    Every constructor -- :func:`make_sim`, :func:`execute`, a group of
    :func:`execute_batch`, the CLI -- asks this one function.  A forced
    ``config.engine`` is honoured, or refused with a ``ValueError`` naming
    what that engine cannot run.  Under ``"auto"``, hooks and features only
    the reference interpreter models send the run there; anything that is
    not a :class:`~repro.sim.vec.UniformPlan` or trips
    :func:`~repro.sim.vec.vec_blockers` (config features, hooks, the
    vectorized core's capacity limits on ``net`` and the plan's packet
    size) runs compiled.  A batch of several replicas runs vectorized; a
    single run, fault schedule and recovery manager included, compares the
    two calibrated per-cycle cost lines at the spec's
    :func:`expected_occupancy` and takes the cheaper engine, so a depth-3
    fractahedron and the 128-end fail/repair episodes go vectorized while
    a lightly loaded 64-node fabric stays compiled.
    """
    engine = config.engine
    if engine == "reference":
        return engine
    scalar = _scalar_only(config, hooks)
    if engine == "compiled":
        if scalar:
            raise ValueError("engine='compiled' does not support: " + ", ".join(scalar))
        return engine
    if engine == "auto" and scalar:
        return "reference"
    plan = isinstance(traffic, UniformPlan)
    blockers = vec_blockers(config, net=net, replicas=replicas, **hooks)
    if plan and traffic.packet_size > MAX_SIZE:
        blockers.append(
            f"packet size {traffic.packet_size} (the flit code holds at most "
            f"MAX_SIZE={MAX_SIZE} flits; use engine='compiled')"
        )
    if engine == "vectorized":
        if blockers:
            raise ValueError("engine='vectorized' does not support: " + ", ".join(blockers))
        return engine
    if not plan or blockers:
        return "compiled"
    if replicas > 1:
        return "vectorized"
    num_channels = net.num_links * config.vc_count
    occ = expected_occupancy(num_channels, net.num_end_nodes, traffic)
    vec_us = VEC_FIXED_US + VEC_PER_OCC_US * occ
    compiled_us = COMPILED_FIXED_US + COMPILED_PER_OCC_US * occ
    return "vectorized" if vec_us < compiled_us else "compiled"


def batch_groups(specs: Sequence[SimSpec]) -> list[list[int]]:
    """The index groups :func:`execute_batch` runs together, in order of
    first appearance.

    :class:`~repro.sim.vec.UniformPlan` specs that share ``(network,
    config, cycles, drain)`` form one group when :func:`preferred_engine`
    runs them as the replicas of one vectorized core; every other spec is
    a group of its own.  The one grouping rule: ``SweepRunner.execute_batch``
    ships each group to a worker as one task, so a batch stays one kernel
    and everything else spreads spec by spec.
    """
    groups: dict[Any, list[int]] = {}
    for i, spec in enumerate(specs):
        key: Any = i
        if isinstance(spec.traffic, UniformPlan):
            net, tables = spec.network
            key = (id(net), id(tables), spec.config, spec.cycles, spec.drain)
        groups.setdefault(key, []).append(i)
    out: list[list[int]] = []
    for idxs in groups.values():
        if len(idxs) > 1 and not _vectorizes([specs[i] for i in idxs]):
            out.extend([i] for i in idxs)
        else:
            out.append(idxs)
    return out


def _vectorizes(group: list[SimSpec]) -> bool:
    """Whether the engine decision runs a plan group as one batch."""
    first = group[0]
    # the group's longest packets meet the flit code's size limit
    longest = max((spec.traffic for spec in group), key=lambda p: p.packet_size)
    try:
        engine = preferred_engine(first.network[0], first.config, longest, replicas=len(group))
    except ValueError:
        # a forced engine refuses the group as one batch: each spec
        # decides alone (and raises there if one replica cannot run)
        return False
    return engine == "vectorized"


def _execute_group(group: list[SimSpec]) -> list[RunResult]:
    """Run one :func:`batch_groups` group: a lone spec through
    :func:`execute`, a larger one as the replicas of one ``VecCore``."""
    if len(group) == 1:
        return [execute(group[0])]
    first = group[0]
    net, tables = first.network
    core = VecCore(net, tables, [spec.traffic for spec in group], first.config)
    stats = core.run(first.cycles, drain=first.drain)
    return [RunResult.of_replica(core, b, stats[b]) for b in range(len(group))]


def execute_batch(
    specs: Sequence[SimSpec], map_groups: Callable[..., Iterable[list[RunResult]]] = map
) -> list[RunResult]:
    """Execute many specs, batching compatible ones into one array kernel.

    Each :func:`batch_groups` group of several plan specs becomes the
    replicas of a single ``VecCore`` and advances in one kernel pass per
    cycle; every other spec runs through :func:`execute`.  ``map_groups``
    applies the group runner to the list of groups -- the builtin ``map``
    in-process, :meth:`repro.sim.parallel.SweepRunner.map` over workers.
    Results come back in input order and are bit-identical to per-spec
    runs.
    """
    specs = list(specs)
    groups = batch_groups(specs)
    chunks = map_groups(_execute_group, [[specs[i] for i in idxs] for idxs in groups])
    out: list[RunResult | None] = [None] * len(specs)
    for idxs, results in zip(groups, chunks):
        for i, result in zip(idxs, results):
            out[i] = result
    return out  # type: ignore[return-value]
