"""Cycle-driven flit-level wormhole network simulator.

The paper's §4.0 promises "simulations of large topologies in order to
better understand network performance under heavy loading"; this package
is that simulator.  It models ServerNet-style routers -- input FIFO
buffers, a non-blocking crossbar, per-output round-robin arbitration,
credit (buffer-space) flow control -- with wormhole switching: the head
flit routes, body flits follow its path, and the tail releases it.

Crucially, the simulator does *not* prevent deadlock: if the routing
tables contain channel-dependency cycles, the simulation deadlocks exactly
like Figure 1, and the runtime wait-for detector reports the cycle.  An
optional virtual-channel mode reproduces the Dally & Seitz alternative the
paper rejects on cost grounds (§2.1).

Three engines implement the same cycle semantics: the readable
object-per-flit reference interpreter (:class:`ReferenceSim`), the
integer-indexed compiled core (:class:`SimCore`, see ``repro.sim.compile``)
and the batched struct-of-arrays vectorized core (:class:`VecCore`, see
``repro.sim.vec``) that advances many replicas per kernel pass.  They are
bit-identical by contract and by test (``tests/sim/test_engine_equivalence.py``,
``tests/sim/test_vec_engine.py``).

:mod:`repro.sim.api` is the way in: :class:`SimSpec` plus
:func:`repro.sim.api.execute` / :func:`repro.sim.api.execute_batch`, or
:func:`repro.sim.api.make_sim` when hooks are needed.  ``make_sim`` asks
:func:`repro.sim.api.preferred_engine` -- the one engine decision -- and
returns the engine object it builds (``sim.engine`` names it).  Curves and
saturation searches live in :mod:`repro.sim.sweep`; :class:`SweepRunner`
fans their points over worker processes.
"""

from repro.sim.compile import CompiledNet, SimCore, compile_network
from repro.sim.engine import DeadlockDetected, RetryPolicy, ReroutePolicy, SimConfig
from repro.sim.packet import Flit, FlitKind, Packet
from repro.sim.network_sim import ReferenceSim
from repro.sim.stats import SimStats
from repro.sim.trace import SimTrace, TraceEvent
from repro.sim.traffic import (
    TrafficGenerator,
    explicit_traffic,
    hotspot_traffic,
    pairs_traffic,
    permutation_traffic,
    uniform_traffic,
)
from repro.sim.fault import FaultSchedule, random_cable_schedule
from repro.sim.recovery import (
    FailoverPlan,
    RecoveryManager,
    recompute_recovery_tables,
    simulate_with_recovery,
)
from repro.sim.sweep import (
    LoadPoint,
    curve_points,
    find_saturation,
    measure_point,
    recovery_curve,
)
from repro.sim.parallel import (
    SweepRunner,
    SweepStats,
    TaskTiming,
    derive_seed,
)
from repro.sim.vec import UniformPlan, VecCore, VecSim, vec_blockers
from repro.sim import api
from repro.sim.api import RunResult, SimSpec, make_sim

__all__ = [
    "CompiledNet",
    "RunResult",
    "SimSpec",
    "UniformPlan",
    "VecCore",
    "VecSim",
    "api",
    "curve_points",
    "make_sim",
    "vec_blockers",
    "DeadlockDetected",
    "FailoverPlan",
    "FaultSchedule",
    "Flit",
    "FlitKind",
    "RecoveryManager",
    "RetryPolicy",
    "ReroutePolicy",
    "random_cable_schedule",
    "recompute_recovery_tables",
    "recovery_curve",
    "simulate_with_recovery",
    "LoadPoint",
    "SweepRunner",
    "SweepStats",
    "TaskTiming",
    "derive_seed",
    "measure_point",
    "Packet",
    "ReferenceSim",
    "SimConfig",
    "SimCore",
    "SimStats",
    "SimTrace",
    "TraceEvent",
    "TrafficGenerator",
    "compile_network",
    "explicit_traffic",
    "find_saturation",
    "hotspot_traffic",
    "pairs_traffic",
    "permutation_traffic",
    "uniform_traffic",
]
