"""The repro.sim.api entrypoint: SimSpec value semantics, execute /
execute_batch parity, batching eligibility, the engine decision, and
config validation."""

import dataclasses
import functools
import warnings

import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.obs.parity import compare_signatures, stats_signature
from repro.routing.cache import cached_tables
from repro.sim import api
from repro.sim.engine import SimConfig
from repro.sim.traffic import uniform_traffic
from repro.sim.vec import UniformPlan, vec_blockers
from repro.topology.mesh import mesh

CFG = SimConfig(raise_on_deadlock=False, stall_threshold=400)


@pytest.fixture(scope="module")
def small():
    net = mesh((3, 3), nodes_per_router=1)
    return net, cached_tables(net)


def spec_for(target, rate=0.05, seed=7, engine="auto", **cfg):
    config = dataclasses.replace(CFG, engine=engine, **cfg)
    return api.SimSpec(
        network=target,
        traffic=UniformPlan(rate, 4, seed),
        config=config,
        cycles=300,
        drain=True,
    )


class TestSimSpec:
    def test_hashable_and_round_trips(self, small):
        a = spec_for(small)
        b = spec_for(small)
        assert a == b and hash(a) == hash(b)
        # usable as a cache key
        cache = {a: "result"}
        assert cache[b] == "result"
        assert a != spec_for(small, rate=0.06)
        assert a != dataclasses.replace(a, cycles=301)

    def test_batch_groups(self, small):
        """Plan specs sharing (network, config, cycles, drain) group in
        order of first appearance when they run vectorized; any other
        spec stands alone."""
        net, tables = small
        other = mesh((3, 3), nodes_per_router=1)
        gen = uniform_traffic(net.end_node_ids(), 0.05, 4, 7)
        specs = [
            spec_for(small),
            spec_for((other, tables)),
            spec_for(small, rate=0.06),
            dataclasses.replace(spec_for(small), traffic=gen),
            spec_for(small, rate=0.07),
            dataclasses.replace(spec_for(small), cycles=301),
            spec_for(small, engine="compiled"),
            dataclasses.replace(spec_for(small), traffic=gen),
            spec_for(small, rate=0.06, engine="compiled"),
            spec_for(small, engine="reference", switching="store_and_forward"),
            spec_for(small, rate=0.06, engine="reference", switching="store_and_forward"),
        ]
        # a shared key the engine decision does not vectorize splits
        assert api.batch_groups(specs) == [
            [0, 2, 4], [1], [3], [5], [6], [8], [7], [9], [10]
        ]


class TestRunParity:
    def test_run_equals_run_batch_of_one(self, small):
        net, tables = small
        spec = spec_for((net, tables))
        solo = api.execute(spec).stats
        batched = [r.stats for r in api.execute_batch([spec])]
        assert len(batched) == 1
        assert solo == batched[0]

    def test_forced_vectorized_matches_compiled(self, small):
        net, tables = small
        vec = api.execute(spec_for((net, tables), engine="vectorized"))
        com = api.execute(spec_for((net, tables), engine="compiled"))
        assert vec.engine == "vectorized" and com.engine == "compiled"

        class _Shaped:
            def __init__(self, r):
                self.stats, self.packets = r.stats, r.packets

        diffs = compare_signatures(
            stats_signature(_Shaped(com)), stats_signature(_Shaped(vec))
        )
        assert diffs == []

    def test_batched_group_is_bit_identical_to_per_spec_runs(self, small):
        net, tables = small
        specs = [spec_for((net, tables), rate=r) for r in (0.02, 0.05, 0.08)]
        grouped = api.execute_batch(specs)
        # a 3-spec eligible group advances through the vectorized core
        assert [r.engine for r in grouped] == ["vectorized"] * 3
        for spec, res in zip(specs, grouped):
            solo = api.execute(spec)  # auto batch-of-1 -> compiled
            assert solo.engine != "vectorized"
            assert solo.stats == res.stats
            assert {
                p: (q.created, q.injected, q.delivered)
                for p, q in solo.packets.items()
            } == {
                p: (q.created, q.injected, q.delivered)
                for p, q in res.packets.items()
            }

    def test_results_come_back_in_input_order(self, small):
        net, tables = small
        mixed = [
            spec_for((net, tables), rate=0.05),
            spec_for((net, tables), rate=0.05, engine="reference"),
            spec_for((net, tables), rate=0.02),
        ]
        results = api.execute_batch(mixed)
        assert len(results) == len(mixed)
        for spec, res in zip(mixed, results):
            assert res.stats == api.execute(spec).stats


class TestBatchingEligibility:
    def test_singleton_auto_group_uses_compiled(self, small):
        net, tables = small
        (res,) = api.execute_batch([spec_for((net, tables))])
        assert res.engine != "vectorized"

    def test_singleton_forced_vectorized_stays_vectorized(self, small):
        net, tables = small
        (res,) = api.execute_batch([spec_for((net, tables), engine="vectorized")])
        assert res.engine == "vectorized"

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda net, tables: spec_for((net, tables), engine="compiled"),
            lambda net, tables: spec_for((net, tables), engine="reference"),
            lambda net, tables: spec_for(
                (net, tables), switching="store_and_forward", buffer_depth=4
            ),
            lambda net, tables: dataclasses.replace(
                spec_for((net, tables)),
                traffic=uniform_traffic(net.end_node_ids(), 0.05, 4, 7),
            ),
        ],
        ids=["compiled", "reference", "store_and_forward", "generator-traffic"],
    )
    def test_ineligible_specs_fall_back_per_spec(self, small, make_spec):
        net, tables = small
        specs = [make_spec(net, tables), make_spec(net, tables)]
        results = api.execute_batch(specs)
        assert all(r.engine != "vectorized" for r in results)

    def test_batch_refuses_recovery_and_names_the_remedy(self, small):
        from repro.sim.engine import RetryPolicy
        from repro.sim.fault import FaultSchedule
        from repro.sim.vec import VecCore

        net, tables = small
        remedy = r"\(run each episode lone, or use engine='compiled'\)"
        retry = dataclasses.replace(CFG, retry=RetryPolicy())
        assert vec_blockers(retry, net=net) == []  # a lone core runs it
        (blocker,) = vec_blockers(retry, net=net, replicas=2)
        assert blocker.startswith("recovery policies in a batch of 2 replicas")
        forced = dataclasses.replace(CFG, engine="vectorized")
        batch3 = r"fault schedule in a batch of 3 replicas "
        with pytest.raises(ValueError, match=batch3 + remedy):
            api.preferred_engine(
                net, forced, UniformPlan(0.05, 4, 1), replicas=3, fault=FaultSchedule()
            )
        plan = UniformPlan(0.05, 4, 1)
        batch2 = r"recovery manager in a batch of 2 replicas "
        with pytest.raises(ValueError, match=batch2 + remedy):
            VecCore(net, tables, [plan, plan], CFG, recovery=object())
        # under auto the batch splits and each spec decides alone
        specs = [spec_for((net, tables), seed=s, retry=RetryPolicy()) for s in (1, 2)]
        assert api.preferred_engine(net, specs[0].config, plan, replicas=2) == "compiled"
        assert [r.engine for r in api.execute_batch(specs)] == ["compiled", "compiled"]

    def test_blocker_list_names_each_unsupported_feature(self):
        cfg = dataclasses.replace(CFG, switching="store_and_forward")
        blockers = vec_blockers(cfg, probe=object(), trace=object())
        assert any("switching" in b for b in blockers)
        assert "probe" in blockers and "trace" in blockers
        assert vec_blockers(CFG) == []


class TestConfigValidationAndDeprecation:
    def test_engine_field_is_validated(self):
        with pytest.raises(ValueError):
            SimConfig(engine="turbo")

    def test_vectorized_engine_rejects_blocked_features(self, small):
        net, tables = small
        cfg = dataclasses.replace(CFG, engine="vectorized")
        with pytest.raises(ValueError, match="vectorized"):
            api.make_sim(
                net,
                tables,
                uniform_traffic(net.end_node_ids(), 0.05, 4, 7),
                cfg,
                on_deliver=lambda *a: [],
            )

    def test_make_sim_does_not_warn(self, small):
        net, tables = small
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.make_sim(
                net, tables, uniform_traffic(net.end_node_ids(), 0.02, 4, 1), CFG
            )


def test_uniform_plan_is_sealed():
    # the vectorized fast path reads rate/size/seed off the plan and never
    # calls build(), so an overriding subclass would be silently ignored
    with pytest.raises(TypeError, match="TrafficGenerator"):

        class _Skewed(UniformPlan):
            pass


@pytest.fixture(scope="module")
def fabric():
    """Fractahedrons by depth, each built once per module: depth 2 is the
    64-node Table-2 fabric, depths 3 and 4 the wide fanout-2 ones."""

    @functools.cache
    def build(levels: int):
        if levels == 2:
            return fat_fractahedron(2)
        return fat_fractahedron(levels, fanout_width=2)

    return build


DEFAULT = SimConfig()
VEC = SimConfig(engine="vectorized")
#: (id, depth, config, traffic, hooks, replicas, engine or error regex)
DECISIONS = [
    ("64-node-low-rate", 2, DEFAULT, UniformPlan(0.02, 8, 1), {}, 1, "compiled"),
    ("depth3-0.004", 3, DEFAULT, UniformPlan(0.004, 8, 1), {}, 1, "vectorized"),
    ("depth3-0.008", 3, DEFAULT, UniformPlan(0.008, 8, 1), {}, 1, "vectorized"),
    ("depth3-0.016", 3, DEFAULT, UniformPlan(0.016, 8, 1), {}, 1, "vectorized"),
    ("depth4-0.002", 4, DEFAULT, UniformPlan(0.002, 8, 1), {}, 1, "vectorized"),
    ("batch-of-3", 2, DEFAULT, UniformPlan(0.02, 8, 1), {}, 3, "vectorized"),
    ("probe", 3, DEFAULT, UniformPlan(0.016, 8, 1), {"probe": object()}, 1, "compiled"),
    ("trace", 3, DEFAULT, UniformPlan(0.016, 8, 1), {"trace": object()}, 1, "compiled"),
    ("router-delay", 3, SimConfig(router_delay=1), UniformPlan(0.016, 8, 1), {}, 1,
     "compiled"),
    ("generator", 3, DEFAULT, "generator", {}, 1, "compiled"),
    ("too-many-ends", 2, DEFAULT, UniformPlan(0.2, 8, 1), {}, 1, "compiled"),
    ("vc-select", 2, DEFAULT, UniformPlan(0.2, 8, 1), {"vc_select": object()}, 1,
     "reference"),
    ("store-and-forward", 2, SimConfig(switching="store_and_forward", buffer_depth=8),
     UniformPlan(0.2, 8, 1), {}, 1, "reference"),
    ("non-schedule-fault", 2, DEFAULT, UniformPlan(0.2, 8, 1), {"fault": object()}, 1,
     "reference"),
    ("forced-reference", 3, SimConfig(engine="reference"), UniformPlan(0.016, 8, 1),
     {}, 1, "reference"),
    ("forced-compiled-s&f", 2,
     SimConfig(switching="store_and_forward", buffer_depth=8, engine="compiled"),
     UniformPlan(0.02, 8, 1), {}, 1,
     r"^engine='compiled' does not support: switching='store_and_forward'$"),
    ("forced-vectorized-hooks", 2, VEC, UniformPlan(0.02, 8, 1),
     {"probe": object(), "on_deliver": object()}, 1,
     r"^engine='vectorized' does not support: on_deliver, probe$"),
    ("packet-size-auto", 2, DEFAULT, UniformPlan(0.5, 4096, 3), {}, 1, "compiled"),
    ("packet-size-batch", 2, DEFAULT, UniformPlan(0.5, 4096, 3), {}, 2, "compiled"),
    ("packet-size-at-limit", 2, DEFAULT, UniformPlan(0.5, 4095, 3), {}, 1, "vectorized"),
    ("packet-size-forced", 2, VEC, UniformPlan(0.5, 4096, 3), {}, 1,
     r"^engine='vectorized' does not support: packet size 4096 .*MAX_SIZE=4095.*"
     r"use engine='compiled'"),
]


@pytest.mark.parametrize(
    "name,depth,config,traffic,hooks,replicas,want",
    DECISIONS,
    ids=[row[0] for row in DECISIONS],
)
def test_engine_decision(
    monkeypatch, fabric, name, depth, config, traffic, hooks, replicas, want
):
    """Every engine decision, pinned: ``auto`` picks, forced engines are
    honoured or refused with a message naming what they lack."""
    import repro.sim.vec as vec

    net = fabric(depth)
    if name == "too-many-ends":
        # busy enough for vectorized, but one end past the flit code
        monkeypatch.setattr(vec, "MAX_ENDS", net.num_end_nodes - 1)
    if traffic == "generator":
        traffic = uniform_traffic(net.end_node_ids(), 0.016, 8, 1)
    decide = functools.partial(
        api.preferred_engine, net, config, traffic, replicas=replicas, **hooks
    )
    if want in ("reference", "compiled", "vectorized"):
        assert decide() == want
    else:
        with pytest.raises(ValueError, match=want):
            decide()


class TestCapacityLimits:
    """The vectorized engine's hard limits are checked where an engine is
    chosen -- ``auto`` dispatch, batching, an explicit request -- not only
    deep inside ``VecCore``."""

    @pytest.fixture
    def capped(self, monkeypatch):
        import repro.sim.vec as vec

        net = fat_fractahedron(2)
        tables = cached_tables(net)
        plan = UniformPlan(0.2, 4, 7)
        # busy enough that the cost model picks vectorized when unconstrained
        assert api.preferred_engine(net, CFG, plan) == "vectorized"
        monkeypatch.setattr(vec, "MAX_ENDS", net.num_end_nodes - 1)
        return net, tables, plan

    def test_auto_picks_compiled(self, capped):
        net, tables, plan = capped
        assert api.preferred_engine(net, CFG, plan) == "compiled"
        assert api.make_sim(net, tables, plan, CFG).engine == "compiled"

    def test_forced_vectorized_names_limit_and_remedy(self, capped):
        net, tables, plan = capped
        config = dataclasses.replace(CFG, engine="vectorized")
        with pytest.raises(ValueError, match=r"MAX_ENDS=63.*engine='compiled'"):
            api.make_sim(net, tables, plan, config)

    def test_core_raises_the_same_blocker(self, capped):
        from repro.sim.vec import VecCore

        net, tables, plan = capped
        with pytest.raises(ValueError, match=r"MAX_ENDS=63"):
            VecCore(net, tables, [plan], CFG)

    def test_batch_past_a_limit_runs_per_spec(self, capped):
        net, tables, _ = capped
        specs = [
            api.SimSpec((net, tables), UniformPlan(0.05, 4, s), CFG, cycles=100)
            for s in range(3)
        ]
        assert {r.engine for r in api.execute_batch(specs)} == {"compiled"}

    @pytest.fixture(scope="class")
    def long_packets(self):
        net = fat_fractahedron(2)
        # 4096-flit packets: one past the flit code's size field
        return net, cached_tables(net), UniformPlan(0.5, 4096, 3)

    @pytest.mark.parametrize(
        "engine,want",
        [
            ("auto", "compiled"),
            ("compiled", "compiled"),
            ("vectorized", r"packet size 4096 .*MAX_SIZE=4095.*use engine='compiled'"),
        ],
    )
    def test_packet_size_past_the_flit_code(self, long_packets, engine, want):
        net, tables, plan = long_packets
        config = dataclasses.replace(CFG, engine=engine)
        if want != "compiled":
            with pytest.raises(ValueError, match=want):
                api.make_sim(net, tables, plan, config)
            return
        sim = api.make_sim(net, tables, plan, config)
        assert sim.engine == "compiled"
        assert sim.run(50).packets_offered > 0

    def test_packet_size_batch_runs_per_spec(self, long_packets):
        net, tables, plan = long_packets
        specs = [
            api.SimSpec((net, tables), dataclasses.replace(plan, seed=s), CFG, cycles=50)
            for s in (3, 4)
        ]
        results = api.execute_batch(specs)
        assert [r.engine for r in results] == ["compiled", "compiled"]
        assert results[0].stats == api.execute(specs[0]).stats

    def test_int32_range_counts_replicas(self, small):
        net, _ = small
        assert vec_blockers(CFG, net=net) == []
        (blocker,) = vec_blockers(CFG, net=net, replicas=1 << 30)
        assert "int32" in blocker and "fewer replicas" in blocker
