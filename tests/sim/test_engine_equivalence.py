"""Bit-identity of the compiled SimCore against the reference interpreter.

The compiled engine is a pure performance refactor: for every supported
configuration it must produce the *same* SimStats -- every counter, every
latency sample, every per-link flit count, the same deadlock cycle at the
same cycle -- and the same per-packet timestamps and trace events as the
reference engine.  This suite sweeps the matrix:

    topology (mesh / fat tree / fat fractahedron)
      x traffic (uniform / adversarial)
      x faults (off / fail+repair schedule)

plus virtual channels, router pipeline delay, recovery policies, and the
Figure 1 forced deadlock.  Any nonzero diff anywhere is a bug in the
compiled core, never an accepted tolerance.

The vectorized core joins the matrix two ways: single-replica (B=1) runs
on wide depth-2/3 fractahedrons must match both scalar engines on the
field-complete signature, and the width-aware ``auto`` dispatch must
route wide single fabrics to it without breaking the narrow-fabric and
hook-using selections.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern
from repro.routing.cache import cached_tables
from repro.sim.engine import DeadlockDetected, SimConfig
from repro.sim.fault import random_cable_schedule
from repro.sim.api import make_sim
from repro.sim.network_sim import ReferenceSim
from repro.sim.trace import SimTrace
from repro.sim.traffic import explicit_traffic, pairs_traffic, uniform_traffic
from repro.topology.fattree import fat_tree
from repro.topology.mesh import mesh


def _mesh():
    net = mesh((3, 3), nodes_per_router=1)
    return net, cached_tables(net)


def _fattree():
    net = fat_tree(2, down=2, up=2)
    return net, cached_tables(net)


def _fracta():
    net = fat_fractahedron(1)
    return net, cached_tables(net)


TOPOLOGIES = {"mesh": _mesh, "fat_tree": _fattree, "fat_fractahedron": _fracta}


def _traffic(kind: str, net, seed: int = 1996):
    ends = net.end_node_ids()
    if kind == "uniform":
        return uniform_traffic(ends, 0.06, 4, seed)
    # adversarial: synchronized bursts converging on two hotspots plus a
    # shifted permutation -- maximizes head-of-line blocking and contention
    hot_a, hot_b = ends[0], ends[-1]
    schedule = []
    for burst in range(6):
        cycle = burst * 20
        for i, src in enumerate(ends):
            if src != hot_a and i % 2 == 0:
                schedule.append((cycle, src, hot_a, 5))
            elif src != hot_b:
                schedule.append((cycle, src, hot_b, 5))
            dst = ends[(i + len(ends) // 2) % len(ends)]
            if dst != src:
                schedule.append((cycle + 7, src, dst, 3))
    return explicit_traffic(schedule)


# Field-complete signature from the observability layer: it enumerates
# dataclasses.fields(SimStats), so a counter added later cannot be
# silently skipped by this suite.
from repro.obs.parity import stats_signature as signature  # noqa: E402


def run_engine(engine, topo, traffic_kind, faulted, cycles=600, **cfg_kw):
    net, tables = TOPOLOGIES[topo]()
    traffic = _traffic(traffic_kind, net)
    fault = None
    if faulted:
        fault = random_cable_schedule(
            net, 2, np.random.default_rng(13), at_cycle=40, repair_at=160
        )
    config = SimConfig(
        raise_on_deadlock=False, stall_threshold=200, engine=engine, **cfg_kw
    )
    sim = make_sim(net, tables, traffic, config, fault=fault)
    sim.run(cycles, drain=True)
    sim.finalize()
    return sim


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("traffic_kind", ["uniform", "adversarial"])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_bit_identical_stats(self, topo, traffic_kind, faulted):
        ref = run_engine("reference", topo, traffic_kind, faulted)
        com = run_engine("compiled", topo, traffic_kind, faulted)
        assert ref.engine == "reference" and com.engine == "compiled"
        assert signature(com) == signature(ref)

    @pytest.mark.parametrize("vc_count", [2, 4])
    def test_virtual_channels(self, vc_count):
        ref = run_engine("reference", "mesh", "adversarial", False, vc_count=vc_count)
        com = run_engine("compiled", "mesh", "adversarial", False, vc_count=vc_count)
        assert signature(com) == signature(ref)

    def test_router_pipeline_delay(self):
        ref = run_engine("reference", "mesh", "uniform", False, router_delay=2)
        com = run_engine("compiled", "mesh", "uniform", False, router_delay=2)
        assert signature(com) == signature(ref)


class TestTraceEquivalence:
    def test_identical_event_streams(self):
        streams = {}
        for engine in ("reference", "compiled"):
            net, tables = _mesh()
            trace = SimTrace()
            sim = make_sim(
                net,
                tables,
                _traffic("adversarial", net),
                SimConfig(raise_on_deadlock=False, stall_threshold=200, engine=engine),
                trace=trace,
            )
            sim.run(400, drain=True)
            streams[engine] = trace.events()
        assert streams["compiled"] == streams["reference"]


class TestDeadlockEquivalence:
    def _run(self, engine):
        net = build()
        sim = make_sim(
            net,
            clockwise_tables(net),
            pairs_traffic(figure1_pattern(net), 16),
            SimConfig(buffer_depth=2, stall_threshold=16, engine=engine),
        )
        with pytest.raises(DeadlockDetected) as exc:
            sim.run(500, drain=True)
        return exc.value, signature(sim)

    def test_same_cycle_same_packets_same_instant(self):
        ref_exc, ref_sig = self._run("reference")
        com_exc, com_sig = self._run("compiled")
        assert com_exc.cycle == ref_exc.cycle
        assert com_exc.packets == ref_exc.packets
        assert com_exc.at_cycle == ref_exc.at_cycle
        assert com_sig == ref_sig


class TestRecoveryEquivalence:
    def test_retry_reroute_failover_identical(self):
        from repro.sim.engine import RetryPolicy, ReroutePolicy
        from repro.sim.recovery import simulate_with_recovery

        results = {}
        for engine in ("reference", "compiled"):
            net, tables = _mesh()
            fault = random_cable_schedule(
                net, 2, np.random.default_rng(3), at_cycle=50, repair_at=250
            )
            results[engine] = simulate_with_recovery(
                net,
                tables,
                rate=0.04,
                cycles=400,
                packet_size=4,
                seed=9,
                fault=fault,
                retry=RetryPolicy(timeout=32, max_retries=2),
                reroute=ReroutePolicy(detection_delay=8, reconvergence_delay=16),
                failover=True,
                engine=engine,
            )
        assert results["compiled"] == results["reference"]


class TestSingleReplicaVecEquivalence:
    """B=1 VecCore vs both scalar engines on wide fractahedrons.

    The batch parity suite covers the vectorized core on small fabrics
    with many replicas; this is the other corner the dispatcher now
    serves -- one large fabric, one replica, where the channel count is
    the amortizing width.  The traffic travels as a ``UniformPlan`` so
    every engine consumes the identical stream (``make_sim`` builds it for
    the scalar cores).
    """

    @pytest.mark.parametrize(
        "levels,rate,cycles", [(2, 0.08, 300), (3, 0.02, 120)]
    )
    def test_depth_matrix_bit_identical(self, levels, rate, cycles):
        from repro.core.routing import fractahedral_tables
        from repro.sim.vec import UniformPlan

        net = fat_fractahedron(levels, fanout_width=2)
        tables = fractahedral_tables(net)
        plan = UniformPlan(rate=rate, packet_size=4, seed=11)
        sigs = {}
        for engine in ("reference", "compiled", "vectorized"):
            sim = make_sim(
                net,
                tables,
                plan,
                SimConfig(
                    raise_on_deadlock=False, stall_threshold=200, engine=engine
                ),
            )
            sim.run(cycles, drain=True)
            sim.finalize()
            assert sim.engine == engine
            sigs[engine] = signature(sim)
        assert sigs["vectorized"] == sigs["compiled"] == sigs["reference"]


class TestEngineSelection:
    def test_auto_prefers_compiled(self):
        sim = run_engine("auto", "mesh", "uniform", False, cycles=50)
        assert sim.engine == "compiled"

    def test_auto_dispatches_wide_single_fabric_to_vec(self):
        from repro.core.routing import fractahedral_tables
        from repro.sim.vec import UniformPlan

        net = fat_fractahedron(3, fanout_width=2)
        sim = make_sim(
            net,
            fractahedral_tables(net),
            UniformPlan(rate=0.02, packet_size=8, seed=1),
            SimConfig(raise_on_deadlock=False, stall_threshold=200),
        )
        assert sim.engine == "vectorized"

    def test_auto_keeps_narrow_fabric_compiled(self):
        from repro.sim.vec import UniformPlan

        net, tables = _fracta()
        sim = make_sim(
            net,
            tables,
            UniformPlan(rate=0.02, packet_size=8, seed=1),
            SimConfig(raise_on_deadlock=False, stall_threshold=200),
        )
        assert sim.engine == "compiled"

    def test_auto_with_probe_stays_off_the_vectorized_core(self):
        from repro.core.routing import fractahedral_tables
        from repro.obs import SimProbe
        from repro.sim.vec import UniformPlan

        net = fat_fractahedron(3, fanout_width=2)
        sim = make_sim(
            net,
            fractahedral_tables(net),
            UniformPlan(rate=0.02, packet_size=8, seed=1),
            SimConfig(raise_on_deadlock=False, stall_threshold=200),
            probe=SimProbe(50),
        )
        assert sim.engine == "compiled"

    def test_auto_falls_back_on_unsupported(self):
        net, tables = _mesh()
        sim = make_sim(
            net,
            tables,
            _traffic("uniform", net),
            SimConfig(switching="store_and_forward", buffer_depth=8),
        )
        assert sim.engine == "reference"

    def test_forced_compiled_rejects_unsupported(self):
        net, tables = _mesh()
        with pytest.raises(ValueError, match="store_and_forward"):
            make_sim(
                net,
                tables,
                _traffic("uniform", net),
                SimConfig(
                    switching="store_and_forward", buffer_depth=8, engine="compiled"
                ),
            )

    def test_reference_engine_is_the_interpreter(self):
        net, tables = _mesh()
        sim = make_sim(
            net,
            tables,
            _traffic("uniform", net),
            SimConfig(engine="reference"),
        )
        assert isinstance(sim, ReferenceSim)
