"""Tests for the fault-recovery subsystem: schedules, retry, re-routing.

The contract under test (see ``repro/sim/recovery.py``):

* fault schedules are full timelines (fail / repair / flap), not one-way
  switches;
* a send-side timeout removes the whole worm -- retransmissions can never
  deadlock behind their own dead flits;
* every online-recomputed routing table is certified (channel order)
  before the swap, and the CDG check agrees, for every topology the
  Table 2 comparison uses;
* recovery sweeps are bit-identical between serial and parallel runs.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.deadlock.analysis import certify_deadlock_free
from repro.experiments.fault_study import RECOVERY_REROUTE, RECOVERY_RETRY
from repro.routing.cache import cached_tables
from repro.sim.engine import RetryPolicy, ReroutePolicy, SimConfig
from repro.sim.fault import FaultSchedule, random_cable_schedule
from repro.sim.api import make_sim
from repro.obs.parity import stats_signature
from repro.sim.compile import SimCore
from repro.sim.network_sim import ReferenceSim
from repro.sim.parallel import derive_seed
from repro.sim.recovery import (
    FailoverPlan,
    RecoveryManager,
    recompute_recovery_tables,
    simulate_with_recovery,
)
from repro.sim.traffic import explicit_traffic
from repro.sim.vec import UniformPlan, VecSim
from repro.topology.registry import build_topology


def mesh33():
    net = build_topology("mesh", shape=(3, 3), nodes_per_router=1)
    return net, cached_tables(net)


class TestFaultSchedule:
    def test_fail_then_repair(self):
        f = FaultSchedule().fail_link("a", 10).repair_link("a", 20)
        assert not f.is_down("a", 9)
        assert f.is_down("a", 10)
        assert f.is_down("a", 19)
        assert not f.is_down("a", 20)

    def test_links_start_up(self):
        f = FaultSchedule().fail_link("a", 5)
        assert not f.is_down("b", 100)
        assert not f.is_down("a", 4)

    def test_flap_is_transient(self):
        f = FaultSchedule().flap_link("a", 3, 7)
        assert [f.is_down("a", c) for c in (2, 3, 6, 7)] == [
            False,
            True,
            True,
            False,
        ]

    def test_flap_must_repair_after_failing(self):
        with pytest.raises(ValueError, match="strictly after"):
            FaultSchedule().flap_link("a", 7, 7)

    def test_same_cycle_fail_and_repair_resolves_down(self):
        f = FaultSchedule().fail_link("a", 5).repair_link("a", 5)
        assert f.is_down("a", 5)

    def test_cable_is_both_directions(self):
        net, _ = mesh33()
        link = net.router_links()[0]
        f = FaultSchedule().fail_cable(net, link.link_id, 0)
        assert f.is_down(link.link_id, 0) and f.is_down(link.reverse_id, 0)
        f.repair_cable(net, link.link_id, 9)
        assert not f.is_down(link.link_id, 9)
        assert not f.is_down(link.reverse_id, 9)

    def test_down_links_and_transitions(self):
        f = FaultSchedule().fail_link("a", 2).flap_link("b", 4, 6)
        assert f.down_links(5) == {"a", "b"}
        assert f.down_links(6) == {"a"}
        assert f.transition_cycles() == [2, 4, 6]

    def test_random_cable_schedule_deterministic(self):
        net, _ = mesh33()
        a = random_cable_schedule(net, 3, np.random.default_rng(5), 10, repair_at=50)
        b = random_cable_schedule(net, 3, np.random.default_rng(5), 10, repair_at=50)
        assert a.events() == b.events()
        assert len(a.down_links(10)) == 6  # 3 cables = 6 directed links
        assert a.down_links(50) == set()


class TestPolicies:
    def test_retry_backoff_schedule(self):
        p = RetryPolicy(timeout=10, backoff=2.0, max_retries=3)
        assert [p.timeout_for_attempt(a) for a in range(4)] == [10, 20, 40, 80]

    def test_retry_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_reroute_validation(self):
        with pytest.raises(ValueError):
            ReroutePolicy(detection_delay=-1)
        with pytest.raises(ValueError):
            ReroutePolicy(reconvergence_delay=-1)


class TestDropPacket:
    def test_drop_clears_every_flit_and_releases_ports(self):
        net, tables = mesh33()
        nodes = net.end_node_ids()
        # a long worm crossing the mesh corner to corner
        traffic = explicit_traffic([(0, nodes[0], nodes[-1], 6)])
        sim = make_sim(net, tables, traffic, SimConfig(buffer_depth=2))
        for _ in range(4):
            sim.step()
        assert sim.in_flight == 1
        held_before = [k for k, p in sim.outputs.items() if p.holder is not None]
        assert held_before, "worm should be holding at least one output"
        dropped = sim.drop_packet(0)
        assert dropped > 0
        assert all(p.holder is None for p in sim.outputs.values())
        assert all(b.current_packet is None for b in sim.buffers.values())
        assert not any(
            f.packet_id == 0 for b in sim.buffers.values() for f in b.fifo
        )
        assert sim.stats.flits_dropped == dropped

    def test_drop_releases_latch_on_empty_fifo(self):
        # With one-flit FIFOs a forwarded head leaves a bubble behind it:
        # the channel it left stays latched, and holds its output, with
        # nothing queued.  The drop must release that latch and holder too.
        net, tables = mesh33()
        nodes = net.end_node_ids()

        def build(cls):
            traffic = explicit_traffic([(0, nodes[0], nodes[-1], 8)])
            return cls(net, tables, traffic, SimConfig(buffer_depth=1))

        sim, ref = build(SimCore), build(ReferenceSim)

        def bubbles(engine):
            outputs = engine.outputs
            return [
                key
                for key, buf in engine.buffers.items()
                if buf.current_packet == 0
                and not buf.fifo
                and outputs[buf.current_out].holder == key
            ]

        for _ in range(12):
            sim.step()
            ref.step()
            if bubbles(sim):
                break
        assert bubbles(sim), "the worm should leave a latched, empty FIFO"
        assert bubbles(ref) == bubbles(sim)
        assert sim.drop_packet(0) == ref.drop_packet(0) > 0
        assert all(p.holder is None for p in sim.outputs.values())
        assert all(b.current_packet is None for b in sim.buffers.values())
        assert not any(b.fifo for b in sim.buffers.values())
        ref_buffers = ref.buffers
        for key, buf in sim.buffers.items():
            other = ref_buffers[key]
            assert (buf.current_packet, buf.current_out, list(buf.fifo)) == (
                other.current_packet,
                other.current_out,
                list(other.fifo),
            ), key

    def test_retry_heavy_episode_matches_reference(self):
        # three failed cables on the 128-end fat fractahedron: hundreds of
        # timed-out worms dropped mid-fabric, compiled against the spec
        net = build_topology("fat_fractahedron", levels=2, fanout_width=2)
        tables = cached_tables(net)
        fault = random_cable_schedule(
            net, 3, np.random.default_rng(3), at_cycle=200, repair_at=600
        )
        rows = {
            engine: simulate_with_recovery(
                net,
                tables,
                rate=0.02,
                cycles=800,
                packet_size=4,
                seed=11,
                fault=fault,
                retry=RECOVERY_RETRY,
                reroute=RECOVERY_REROUTE,
                failover=True,
                engine=engine,
            )
            for engine in ("compiled", "reference", "vectorized")
        }
        assert rows["compiled"]["retried"] > 100
        assert rows["compiled"] == rows["reference"] == rows["vectorized"]

    def test_traffic_flows_after_drop(self):
        # the channels a dropped worm held must be reusable immediately
        net, tables = mesh33()
        nodes = net.end_node_ids()
        traffic = explicit_traffic(
            [(0, nodes[0], nodes[-1], 6), (1, nodes[0], nodes[-1], 4)]
        )
        sim = make_sim(net, tables, traffic, SimConfig(buffer_depth=2))
        for _ in range(4):
            sim.step()
        sim.drop_packet(0)
        sim.stats.packets_dropped += 1  # manual bookkeeping (no manager here)
        sim.run(200, drain=True)
        assert sim.packets[1].delivered is not None
        assert not sim.stats.deadlocked


class TestVectorizedRecovery:
    """A lone vectorized core runs the recovery paths bit-identically to the
    compiled core: worm drops, retries, budget exhaustion, failover and
    fail/repair table swaps."""

    @staticmethod
    def _drop_and_drain(cls, buffer_depth, steps, schedule):
        net, tables = mesh33()
        nodes = net.end_node_ids()
        traffic = explicit_traffic(
            [(c, nodes[s], nodes[d], n) for c, s, d, n in schedule]
        )
        config = SimConfig(buffer_depth=buffer_depth, raise_on_deadlock=False)
        sim = cls(net, tables, traffic, config)
        sim.run(steps)
        dropped = sim.drop_packet(0)
        # manual bookkeeping (no manager here), on the engine's counters
        getattr(sim, "core", sim).recovery_stats.packets_dropped += 1
        sim.run(200, drain=True)
        sim.finalize()
        return sim, dropped

    @pytest.mark.parametrize("buffer_depth", [1, 2])
    @pytest.mark.parametrize("steps", [3, 4, 6, 9])
    def test_drop_matches_compiled(self, buffer_depth, steps):
        # a long worm, dropped mid-flight (one-flit FIFOs leave latched,
        # empty channels behind its head), with a second worm queued
        # behind it at the same source and a third crossing its path
        schedule = [(0, 0, 8, 6), (1, 0, 8, 4), (2, 2, 6, 5)]
        com, dropped_c = self._drop_and_drain(SimCore, buffer_depth, steps, schedule)
        vec, dropped_v = self._drop_and_drain(VecSim, buffer_depth, steps, schedule)
        assert vec.engine == "vectorized"
        assert dropped_v == dropped_c > 0
        assert stats_signature(vec) == stats_signature(com)
        assert vec.packets[1].delivered is not None
        assert vec.in_flight == 0 and not vec.stats.deadlocked

    def test_traffic_flows_after_drop(self):
        net, tables = mesh33()
        nodes = net.end_node_ids()
        traffic = explicit_traffic(
            [(0, nodes[0], nodes[-1], 6), (1, nodes[0], nodes[-1], 4)]
        )
        sim = VecSim(net, tables, traffic, SimConfig(buffer_depth=2))
        sim.run(4)
        assert sim.in_flight == 1
        assert sim.drop_packet(0) > 0
        assert sim.in_flight == 0
        sim.run(200, drain=True)
        assert sim.packets[1].delivered is not None
        assert not sim.stats.deadlocked

    @staticmethod
    def _rows(**kwargs):
        net, tables = mesh33()
        return [
            simulate_with_recovery(net, tables, engine=engine, **kwargs)
            for engine in ("compiled", "vectorized")
        ]

    def test_fail_and_repair_both_swap_tables(self):
        compiled, vectorized = self._rows(
            rate=0.04, cycles=600, packet_size=4, seed=5, faults=2,
            fault_cycle=150, repair_cycle=450,
            retry=RetryPolicy(timeout=32, max_retries=3),
            reroute=ReroutePolicy(detection_delay=16, reconvergence_delay=32),
        )
        assert vectorized["reroutes"] == 2
        assert vectorized["reconvergence_cycles"] == [48, 48]
        assert vectorized == compiled

    @pytest.mark.parametrize("failover", [False, True])
    def test_budget_exhaustion(self, failover):
        net, _ = mesh33()
        fault = FaultSchedule()
        for link in net.router_links()[:4]:
            fault.fail_cable(net, link.link_id, 0)
        compiled, vectorized = self._rows(
            rate=0.05, cycles=300, packet_size=4, seed=2, fault=fault,
            retry=RetryPolicy(timeout=24, max_retries=1), failover=failover,
        )
        gone = "failed_over" if failover else "dropped"
        assert vectorized[gone] > 0 and vectorized["retried"] > 0
        assert vectorized == compiled

    def test_retries_report_out_of_order_deliveries_alike(self):
        # a retried packet is re-numbered when it re-injects, so it can
        # arrive behind a later packet of its pair: both engines must
        # report the same violations, word for word
        net = build_topology("fat_fractahedron", levels=2, fanout_width=2)
        tables = cached_tables(net)
        # the benchmark's two-cable episode, which has one such delivery
        cables = np.random.default_rng(derive_seed(1996, "faults128", "cables", 2))
        fault = random_cable_schedule(net, 2, cables, at_cycle=400, repair_at=1200)
        config = SimConfig(buffer_depth=4, raise_on_deadlock=False)
        sigs = []
        for engine in ("compiled", "vectorized"):
            manager = RecoveryManager(
                net, tables, retry=RECOVERY_RETRY, reroute=RECOVERY_REROUTE,
                fault=fault, failover=FailoverPlan(net, tables),
            )
            sim = make_sim(
                net, tables, UniformPlan(0.02, 4, derive_seed(1996, "faults128", 2)),
                dataclasses.replace(config, engine=engine), fault=fault,
                recovery=manager,
            )
            sim.run(1600, drain=True)
            sim.finalize()
            sigs.append(stats_signature(sim))
        assert sigs[0]["in_order_violations"]
        assert sigs[1] == sigs[0]

    def test_auto_runs_the_128_end_episode_vectorized(self):
        # the e2e fail/repair episode config: 128 ends at rate 0.02 with
        # 4-flit packets clears the cost model's crossover
        from repro.sim.api import make_sim as build

        net = build_topology("fat_fractahedron", levels=2, fanout_width=2)
        tables = cached_tables(net)
        fault = random_cable_schedule(
            net, 2, np.random.default_rng(2), at_cycle=400, repair_at=1200
        )
        manager = RecoveryManager(
            net, tables, retry=RECOVERY_RETRY, reroute=RECOVERY_REROUTE,
            fault=fault, failover=FailoverPlan(net, tables),
        )
        config = SimConfig(
            buffer_depth=4, raise_on_deadlock=False, stall_threshold=400,
            retry=RECOVERY_RETRY, reroute=RECOVERY_REROUTE,
        )
        sim = build(
            net, tables, UniformPlan(0.02, 4, 1996), config, fault=fault,
            recovery=manager,
        )
        assert sim.engine == "vectorized"
        assert sim.recovery is manager


class TestRetry:
    def test_transient_fault_retries_and_delivers_all(self):
        net, tables = mesh33()
        fault = random_cable_schedule(
            net, 2, np.random.default_rng(3), at_cycle=50, repair_at=250
        )
        r = simulate_with_recovery(
            net,
            tables,
            rate=0.04,
            cycles=400,
            packet_size=4,
            seed=9,
            fault=fault,
            retry=RetryPolicy(timeout=32, max_retries=4),
        )
        assert r["retried"] > 0
        assert r["delivered"] == r["offered"]
        assert r["dropped"] == 0 and r["deadlocked"] is False
        assert r["order_violations"] == 0

    def test_budget_exhaustion_drops_without_failover(self):
        net, tables = mesh33()
        fault = FaultSchedule()
        for link in net.router_links()[:4]:
            fault.fail_cable(net, link.link_id, 0)
        r = simulate_with_recovery(
            net,
            tables,
            rate=0.05,
            cycles=300,
            packet_size=4,
            seed=2,
            fault=fault,
            retry=RetryPolicy(timeout=24, max_retries=1),
        )
        assert r["dropped"] > 0
        assert r["failed_over"] == 0
        assert r["delivery_rate"] < 1.0

    def test_failover_catches_budget_exhaustion(self):
        net, tables = mesh33()
        fault = FaultSchedule()
        for link in net.router_links()[:4]:
            fault.fail_cable(net, link.link_id, 0)
        r = simulate_with_recovery(
            net,
            tables,
            rate=0.05,
            cycles=300,
            packet_size=4,
            seed=2,
            fault=fault,
            retry=RetryPolicy(timeout=24, max_retries=1),
            failover=True,
        )
        assert r["failed_over"] > 0 and r["dropped"] == 0
        assert r["delivery_rate"] == 1.0
        assert r["failover_latency_avg"] > 0

    def test_failover_latency_includes_route_and_retarget(self):
        net, tables = mesh33()
        plan = FailoverPlan(net, tables, retarget_delay=4)
        nodes = net.end_node_ids()
        lat = plan.latency(nodes[0], nodes[-1], 4)
        # corner-to-corner: 4 hops = 5 links + injection/ejection... at
        # minimum the serialization (size - 1) and the retarget cost show up
        assert lat >= 4 + (4 - 1) + 2
        assert plan.latency(nodes[0], nodes[-1], 4) == lat  # memoized


class TestReroute:
    def test_fail_and_repair_both_swap_tables(self):
        net, tables = mesh33()
        r = simulate_with_recovery(
            net,
            tables,
            rate=0.04,
            cycles=600,
            packet_size=4,
            seed=5,
            faults=2,
            fault_cycle=150,
            repair_cycle=450,
            retry=RetryPolicy(timeout=32, max_retries=3),
            reroute=ReroutePolicy(detection_delay=16, reconvergence_delay=32),
        )
        assert r["reroutes"] == 2  # one swap around the failure, one back
        assert r["recovered_acyclic"] is True
        assert r["reconvergence_cycles"] == [48, 48]  # 16 + 32, both times
        assert r["delivered"] == r["offered"]
        assert r["post_recovery_rate"] == 1.0

    def test_reroute_events_record_downset_and_outcome(self):
        net, tables = mesh33()
        r = simulate_with_recovery(
            net,
            tables,
            rate=0.02,
            cycles=400,
            packet_size=4,
            seed=5,
            faults=1,
            fault_cycle=100,
            reroute=ReroutePolicy(detection_delay=8, reconvergence_delay=16),
            retry=RetryPolicy(timeout=32),
        )
        (event,) = r["reroute_events"]
        assert event["detected_at"] == 108
        assert event["swapped_at"] == 124
        assert len(event["down_links"]) == 2  # one cable, both directions
        assert event["acyclic"] and event["deliverable"]


TABLE2_SPECS = {
    "fat_tree_4_2": ("fat_tree", {"height": 3, "down": 4, "up": 2}),
    "fat_fractahedron": ("fat_fractahedron", {"levels": 2}),
}


class TestRecomputedTablesCertified:
    """Every online-recomputed table must pass the Dally-Seitz check."""

    @pytest.mark.parametrize("name", sorted(TABLE2_SPECS))
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_recovery_tables_acyclic(self, name, k):
        topo, params = TABLE2_SPECS[name]
        net = build_topology(topo, **params)
        # hash() is salted per process; derive a stable seed so the sampled
        # cable schedule (and hence the pass/fail outcome) is reproducible.
        seed = int.from_bytes(hashlib.sha256(f"{name}:{k}".encode()).digest()[:4], "big")
        schedule = random_cable_schedule(net, k, np.random.default_rng(seed))
        down = schedule.down_links(0)
        recovered = recompute_recovery_tables(net, down)
        assert recovered.certified, f"{name} k={k}: {recovered.algorithm}"
        # independent re-certification through the public checker
        result = certify_deadlock_free(net, recovered.tables)
        assert result.certified
        # and the recovered routes genuinely avoid the down links
        from repro.routing.base import all_pairs_routes

        for route in all_pairs_routes(net, recovered.tables):
            assert not set(route.links) & down

    def test_empty_downset_restores_baseline_shape(self):
        net, tables = mesh33()
        recovered = recompute_recovery_tables(net, frozenset())
        assert recovered.certified

    def test_disconnected_remnant_reported_not_raised(self):
        # cut every cable of one router: no algorithm can reconnect it
        net, _ = mesh33()
        center = net.router_ids()[4]
        down = {
            l.link_id
            for l in net.router_links()
            if center in (l.src, l.dst)
        }
        recovered = recompute_recovery_tables(net, down)
        assert not recovered.certified
        assert recovered.tables is None


class TestRecoveryMemoPerCache:
    """Certified recovery results live in the cache that built their
    tables, and ``clear()`` forgets them together with the tables."""

    @staticmethod
    def _known(cache, net, tables):
        # only tables a cache handed out get their route-lookup pair memoized
        return cache.get_or_lower(net, tables) is cache.get_or_lower(net, tables)

    def test_two_caches_and_a_clear(self):
        from repro.routing.cache import RoutingTableCache

        net, _ = mesh33()
        link = net.router_links()[0]
        down = frozenset({link.link_id, link.reverse_id})
        a, b = RoutingTableCache(), RoutingTableCache()

        ra = recompute_recovery_tables(net, down, cache=a)
        assert ra.certified and a.stats.misses >= 1
        misses = a.stats.misses
        assert recompute_recovery_tables(net, down, cache=a) is ra
        assert a.stats.misses == misses

        rb = recompute_recovery_tables(net, down, cache=b)
        assert rb.certified and b.stats.misses >= 1
        assert rb.tables is not ra.tables
        assert self._known(b, net, rb.tables)

        a.clear()
        again = recompute_recovery_tables(net, down, cache=a)
        assert again is not ra and again.certified
        assert a.stats.misses >= 1
        assert self._known(a, net, again.tables)


class TestBaselineRestorePerTables:
    """A full repair restores the manager's *own* base tables, also when
    managers over differently routed tables share one cache."""

    def test_full_repair_restores_own_tables(self):
        from repro.routing.cache import RoutingTableCache
        from repro.sim.recovery import RecoveryManager
        from repro.sim.traffic import uniform_traffic

        net, _ = mesh33()
        cache = RoutingTableCache()
        dor = cache.get_or_build(net, "dimension_order")
        sp = cache.get_or_build(net, "shortest_path")
        assert set(dor.items()) != set(sp.items())
        link = net.router_links()[0]
        for tables in (dor, sp):
            fault = (
                FaultSchedule()
                .fail_link(link.link_id, 20)
                .fail_link(link.reverse_id, 20)
                .repair_link(link.link_id, 80)
                .repair_link(link.reverse_id, 80)
            )
            manager = RecoveryManager(
                net,
                tables,
                reroute=ReroutePolicy(detection_delay=4, reconvergence_delay=8),
                fault=fault,
                cache=cache,
            )
            sim = make_sim(
                net,
                tables,
                uniform_traffic(net.end_node_ids(), 0.02, 4, 3),
                SimConfig(raise_on_deadlock=False),
                fault=fault,
                recovery=manager,
            )
            sim.run(200, drain=False)
            restore = manager.events[-1]
            assert restore["down_links"] == [] and restore["swapped_at"] is not None
            assert sim.tables is tables


class TestRecoveryDeterminism:
    """Serial and parallel recovery sweeps must agree bit-for-bit."""

    def test_jobs2_matches_serial(self):
        from repro.sim.parallel import SweepRunner
        from repro.sim.sweep import recovery_curve

        kwargs = dict(
            failure_counts=(0, 1, 2),
            rate=0.04,
            cycles=300,
            packet_size=4,
            seed=17,
            repair_cycle=220,
            retry=RetryPolicy(timeout=32, max_retries=2),
            reroute=ReroutePolicy(detection_delay=8, reconvergence_delay=16),
            failover=True,
        )
        with SweepRunner(1) as serial:
            a = recovery_curve(*mesh33(), runner=serial, **kwargs)
        with SweepRunner(2) as parallel:
            b = recovery_curve(*mesh33(), runner=parallel, **kwargs)
        assert a == b

    def test_repeated_serial_runs_identical(self):
        net, tables = mesh33()
        kwargs = dict(
            rate=0.04, cycles=300, packet_size=4, seed=23, faults=2,
            retry=RetryPolicy(timeout=32, max_retries=2),
        )
        assert simulate_with_recovery(net, tables, **kwargs) == (
            simulate_with_recovery(net, tables, **kwargs)
        )


class TestAccountingInvariants:
    def test_in_flight_returns_to_zero(self):
        net, tables = mesh33()
        fault = random_cable_schedule(
            net, 2, np.random.default_rng(1), at_cycle=40, repair_at=200
        )
        from repro.sim.recovery import RecoveryManager
        from repro.sim.traffic import uniform_traffic

        manager = RecoveryManager(
            net,
            tables,
            retry=RetryPolicy(timeout=24, max_retries=3),
            reroute=ReroutePolicy(detection_delay=8, reconvergence_delay=8),
            fault=fault,
        )
        sim = make_sim(
            net,
            tables,
            uniform_traffic(net.end_node_ids(), 0.04, 4, 31),
            SimConfig(raise_on_deadlock=False, stall_threshold=400),
            fault=fault,
            recovery=manager,
        )
        stats = sim.run(300, drain=True)
        assert sim.in_flight == 0
        assert sim.backlog == 0
        assert not manager.pending
        # every offered packet is accounted for exactly once
        assert stats.packets_delivered + stats.packets_dropped == (
            stats.packets_offered
        )
