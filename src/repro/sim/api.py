"""The single public entrypoint for running wormhole simulations.

One hashable value object describes a run, and two functions execute it:

* :class:`SimSpec` -- network + traffic + config + run length, frozen and
  hashable, so a measurement point can key caches, travel to worker
  processes, and round-trip through equality checks;
* :class:`NetworkSpec` -- the picklable ``(network, tables)`` recipe a
  spec may carry instead of a literal pair (see :func:`resolve_target`);
* :func:`execute` / :func:`execute_batch` -- execute one spec (or a list
  of specs) and return :class:`RunResult` with the stats, the packet
  records and the resolved engine (curve summaries need per-packet
  latencies, not just counters);
* :func:`make_sim` -- the blessed constructor for callers that need a
  live simulator object (probes, recovery managers, traces).

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
from typing import Any, Sequence

from repro.network.graph import Network
from repro.routing.base import RoutingTable
from repro.routing.cache import cached_tables
from repro.sim.engine import SimConfig
from repro.sim.network_sim import WormholeSim
from repro.sim.stats import SimStats
from repro.sim.vec import UniformPlan, VecCore, vec_blockers

__all__ = [
    "NetworkSpec",
    "RunResult",
    "SimSpec",
    "execute",
    "execute_batch",
    "expected_occupancy",
    "make_sim",
    "preferred_engine",
    "resolve_target",
]


@dataclass(frozen=True)
class NetworkSpec:
    """A picklable recipe for (network, routing tables).

    Workers rebuild from the spec through the topology registry and the
    routing-table cache instead of unpickling a full network, so a grid of
    tasks over the same topology compiles its tables once per worker.
    """

    topology: str
    params: tuple[tuple[str, Any], ...] = ()
    algorithm: str | None = None

    @classmethod
    def make(
        cls, topology: str, algorithm: str | None = None, **params: Any
    ) -> "NetworkSpec":
        return cls(topology, tuple(sorted(params.items())), algorithm)

    def build(self) -> tuple[Network, RoutingTable]:
        from repro.topology.registry import build_topology

        net = build_topology(self.topology, **dict(self.params))
        return net, cached_tables(net, algorithm=self.algorithm)


#: Per-process memo of built specs (populated inside workers).
_SPEC_MEMO: dict[NetworkSpec, tuple[Network, RoutingTable]] = {}


def resolve_target(
    target: "NetworkSpec | tuple[Network, RoutingTable]",
) -> tuple[Network, RoutingTable]:
    """Materialize a run target: a spec (rebuilt once per process) or a
    literal ``(network, tables)`` pair (shipped by value)."""
    if isinstance(target, NetworkSpec):
        got = _SPEC_MEMO.get(target)
        if got is None:
            got = _SPEC_MEMO[target] = target.build()
        return got
    net, tables = target
    return net, tables


@dataclass(frozen=True)
class SimSpec:
    """A hashable, self-contained description of one simulation run.

    Attributes:
        network: what to simulate on -- a :class:`NetworkSpec` (hashable
            recipe, rebuilt through the routing-table cache; required for specs
            used as dict keys or shipped to workers) or a literal
            ``(network, tables)`` pair for callers that already hold one.
        traffic: the offered load -- a :class:`~repro.sim.vec.UniformPlan`
            (hashable recipe; eligible for batched execution) or any
            ``TrafficGenerator`` (falls back to per-spec engines).
        config: the :class:`~repro.sim.engine.SimConfig`; its ``engine``
            field picks the kernel exactly as in ``WormholeSim``.
        cycles: cycles of offered traffic.
        drain: keep simulating until delivery after ``cycles`` (see
            ``WormholeSim.run``).
    """

    network: Any
    traffic: Any
    config: SimConfig = field(default_factory=SimConfig)
    cycles: int = 2000
    drain: bool = False

    def resolve(self) -> tuple[Network, RoutingTable]:
        """Materialize the network target (cached for ``NetworkSpec``)."""
        return resolve_target(self.network)

    def build_traffic(self, net: Network):
        """Materialize the traffic stream for a non-batched engine."""
        if hasattr(self.traffic, "build"):
            return self.traffic.build(net)
        return self.traffic


@dataclass
class RunResult:
    """Everything a caller can want back from one executed spec."""

    stats: SimStats
    packets: dict[int, Any]
    engine: str


def make_sim(
    net: Network,
    tables: RoutingTable,
    traffic,
    config: SimConfig | None = None,
    **hooks: Any,
) -> WormholeSim:
    """The blessed simulator constructor.

    Identical to calling :class:`~repro.sim.network_sim.WormholeSim`, but
    going through here keeps call sites on the public facade and gives
    hook-using callers -- probes, traces, recovery managers -- one place
    to pass them.
    """
    return WormholeSim(net, tables, traffic, config, **hooks)


def execute(spec: SimSpec) -> RunResult:
    """Run one spec on the engine its config picks; return stats + packets.

    A :class:`~repro.sim.vec.UniformPlan` travels to ``WormholeSim``
    unbuilt so the facade's width-aware ``auto`` dispatch can see the
    recipe (and the vectorized core, when picked, can pre-generate
    arrivals on its array fast path); other traffic objects are
    materialized here as before.
    """
    net, tables = spec.resolve()
    # exact type, not isinstance: a subclass may override build(), which
    # the vectorized array fast path would silently ignore (it reads
    # rate/seed off the plan directly) -- subclasses materialize here and
    # take the compiled/reference path
    traffic = (
        spec.traffic
        if type(spec.traffic) is UniformPlan
        else spec.build_traffic(net)
    )
    sim = make_sim(net, tables, traffic, spec.config)
    sim.run(spec.cycles, drain=spec.drain)
    stats = sim.finalize()
    return RunResult(stats=stats, packets=dict(sim.packets), engine=sim.engine)


#: Calibrated per-cycle step costs in microseconds, fit on the fat
#: fanout-2 fractahedron curve (depths 1-3 plus the 64-node Table-2
#: fabric) at offered rates from trickle to saturation.  The compiled
#: core walks occupied channels in a Python loop, so its cost is almost
#: purely per-occupancy; the vectorized core pays a fixed ~30-kernel
#: dispatch overhead per cycle and then near-zero marginal cost per
#: occupied channel.  The lines cross at roughly 55 occupied channels.
VEC_FIXED_US = 121.0
VEC_PER_OCC_US = 0.30
COMPILED_FIXED_US = 10.0
COMPILED_PER_OCC_US = 2.3


def expected_occupancy(num_channels: int, num_ends: int, plan: UniformPlan) -> float:
    """Predicted steady-state occupied-channel count for a uniform load.

    Queueing arithmetic, not simulation: packets arrive at
    ``rate * ends / size`` per cycle, live for roughly ``hops + size``
    cycles (wormhole pipeline fill plus drain), and each in-flight worm
    spreads over ``min(hops, size)`` channels.  The average hop count is
    approximated as ``0.75 * log2(num_channels)``, which tracks the
    measured mean within a hop on every fractahedron depth.  The estimate
    lands within ~2x of measured occupancy across the calibration grid --
    enough to sit on the correct side of the dispatch crossover at every
    calibrated point.
    """
    hops = 0.75 * math.log2(max(num_channels, 2))
    packets_per_cycle = plan.rate * num_ends / max(plan.packet_size, 1)
    in_flight = packets_per_cycle * (hops + plan.packet_size)
    return min(float(num_channels), in_flight * min(hops, float(plan.packet_size)))


def preferred_engine(net: Network, config: SimConfig, traffic: Any) -> str:
    """Pick ``"compiled"`` or ``"vectorized"`` for a single run by cost.

    The old rule -- a batch of one always goes compiled -- left single
    large fabrics on the slow path: at depth 3 (5K+ channels, hundreds
    occupied at even 2% load) the vectorized core's fixed kernel-dispatch
    cost is dwarfed by the compiled core's per-channel Python loop.  This
    compares the two calibrated per-cycle cost lines at the spec's
    :func:`expected_occupancy` and returns the cheaper engine.

    Only array-expressible runs qualify: anything that is not a
    :class:`~repro.sim.vec.UniformPlan` or trips
    :func:`~repro.sim.vec.vec_blockers` -- config-level features and the
    engine's capacity limits on ``net`` -- answers ``"compiled"`` (callers
    with hooks -- probes, traces, recovery -- must also pass them through
    ``vec_blockers`` themselves).
    """
    if type(traffic) is not UniformPlan or vec_blockers(config, net=net):
        # exact type: UniformPlan subclasses may override build(), which
        # the array fast path ignores -- they go compiled, deterministically
        return "compiled"
    num_channels = net.num_links * config.vc_count
    occ = expected_occupancy(num_channels, net.num_end_nodes, traffic)
    vec_us = VEC_FIXED_US + VEC_PER_OCC_US * occ
    compiled_us = COMPILED_FIXED_US + COMPILED_PER_OCC_US * occ
    return "vectorized" if vec_us < compiled_us else "compiled"


def _batchable(spec: SimSpec) -> bool:
    """Can this spec join a :class:`~repro.sim.vec.VecCore` batch?

    The spec must ask for an engine the batched core may stand in for
    (``vectorized`` explicitly, or ``auto`` -- bit-identical by the parity
    contract), carry a hashable array-expressible traffic plan, and use no
    feature on the vectorized blocker list.
    """
    return (
        spec.config.engine in ("auto", "vectorized")
        and type(spec.traffic) is UniformPlan
        and not vec_blockers(spec.config)
    )


def _group_key(spec: SimSpec):
    net_key = (
        spec.network
        if isinstance(spec.network, NetworkSpec)
        else (id(spec.network[0]), id(spec.network[1]))
    )
    return (net_key, spec.config, spec.cycles, spec.drain)


def execute_batch(specs: Sequence[SimSpec]) -> list[RunResult]:
    """Execute many specs, batching compatible ones into one array kernel.

    Specs that share ``(network, config, cycles, drain)`` and are
    :func:`_batchable` become replicas of a single ``VecCore`` -- the whole
    group advances in one kernel pass per cycle.  Everything else runs
    through :func:`execute` individually.  Results come back in input
    order and are bit-identical to per-spec runs.
    """
    specs = list(specs)
    out: list[RunResult | None] = [None] * len(specs)
    groups: dict[Any, list[int]] = {}
    for i, spec in enumerate(specs):
        if _batchable(spec):
            groups.setdefault(_group_key(spec), []).append(i)
        else:
            out[i] = execute(spec)
    for idxs in groups.values():
        first = specs[idxs[0]]
        net, tables = first.resolve()
        if vec_blockers(first.config, net=net, replicas=len(idxs)):
            # past a capacity limit as one batch: each spec picks its own
            # engine (an explicit "vectorized" that cannot fit one replica
            # raises there, naming the limit)
            for i in idxs:
                out[i] = execute(specs[i])
            continue
        if (
            len(idxs) == 1
            and first.config.engine != "vectorized"
            and preferred_engine(net, first.config, first.traffic) != "vectorized"
        ):
            # a lone narrow spec has no amortizing width -- batch replicas
            # or channel count -- so the compiled core's per-occupancy
            # loop beats the fixed kernel-dispatch cost; wide or busy
            # single fabrics fall through to a B=1 VecCore instead
            out[idxs[0]] = execute(first)
            continue
        core = VecCore(net, tables, [specs[i].traffic for i in idxs], first.config)
        stats = core.run(first.cycles, drain=first.drain)
        for b, i in enumerate(idxs):
            out[i] = RunResult(
                stats=stats[b], packets=core.packets_of(b), engine="vectorized"
            )
    return out  # type: ignore[return-value]

