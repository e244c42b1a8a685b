"""The repro.sim.api facade: SimSpec value semantics, execute /
execute_batch parity, batching eligibility, and config validation."""

import dataclasses
import warnings

import pytest

from repro.obs.parity import compare_signatures, stats_signature
from repro.routing.cache import cached_tables
from repro.sim import api
from repro.sim.api import NetworkSpec
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
    def test_hashable_and_round_trips(self):
        net_spec = NetworkSpec.make("mesh", shape=(3, 3), nodes_per_router=1)
        a = spec_for(net_spec)
        b = spec_for(net_spec)
        assert a == b and hash(a) == hash(b)
        # usable as a cache key
        cache = {a: "result"}
        assert cache[b] == "result"
        assert a != spec_for(net_spec, rate=0.06)
        assert a != dataclasses.replace(a, cycles=301)

    def test_resolve_and_build_traffic(self, small):
        net, tables = small
        spec = spec_for((net, tables))
        rnet, rtables = spec.resolve()
        assert rnet is net and rtables is tables
        stream = spec.build_traffic(rnet)
        # a UniformPlan materializes to the generator uniform_traffic makes
        assert callable(stream)
        # non-plan traffic passes through untouched
        gen = uniform_traffic(net.end_node_ids(), 0.05, 4, 7)
        passthrough = dataclasses.replace(spec, traffic=gen)
        assert passthrough.build_traffic(rnet) is gen


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


@dataclasses.dataclass(frozen=True)
class _SkewedPlan(UniformPlan):
    """A UniformPlan subclass whose build() emits different traffic.

    The vectorized array fast path reads rate/seed off the plan directly
    and never calls build() -- so a subclass must be dispatched to an
    engine that materializes it, or its traffic is silently wrong.
    """

    def build(self, net):
        from repro.sim.traffic import pairs_traffic

        ends = net.end_node_ids()
        return pairs_traffic([(ends[0], ends[-1])], self.packet_size)


class TestSubclassPlanDispatch:
    def _spec(self, small, engine="auto"):
        net, tables = small
        return api.SimSpec(
            network=(net, tables),
            traffic=_SkewedPlan(0.05, 4, 7),
            config=dataclasses.replace(CFG, engine=engine),
            cycles=300,
            drain=True,
        )

    def test_preferred_engine_pins_subclass_to_compiled(self, small):
        net, _ = small
        plain = UniformPlan(0.05, 4, 7)
        assert api.preferred_engine(net, CFG, _SkewedPlan(0.05, 4, 7)) == "compiled"
        # sanity: only the subclass is redirected, not the plan itself
        assert api.preferred_engine(net, CFG, plain) in ("compiled", "vectorized")

    def test_subclass_plan_is_not_batchable(self, small):
        assert not api._batchable(self._spec(small))
        net, tables = small
        assert api._batchable(spec_for((net, tables)))

    def test_auto_honours_overridden_build(self, small):
        res = api.execute(self._spec(small))
        assert res.engine != "vectorized"
        # the override ships exactly one packet; a silently-applied
        # uniform fast path would deliver dozens
        assert res.stats.packets_injected == 1
        assert res.stats.packets_delivered == 1

    def test_forced_vectorized_builds_subclass_plan(self, small):
        res = api.execute(self._spec(small, engine="vectorized"))
        assert res.engine == "vectorized"
        assert res.stats.packets_injected == 1
        assert res.stats.packets_delivered == 1

    def test_core_refuses_unbuilt_subclass_plan(self, small):
        from repro.sim.vec import VecCore

        net, tables = small
        with pytest.raises(TypeError, match="subclass"):
            VecCore(net, tables, [_SkewedPlan(0.05, 4, 7)], CFG)


class TestCapacityLimits:
    """The vectorized engine's hard limits are checked where an engine is
    chosen -- ``auto`` dispatch, batching, an explicit request -- not only
    deep inside ``VecCore``."""

    @pytest.fixture
    def capped(self, monkeypatch):
        import repro.sim.vec as vec
        from repro.core.fractahedron import fat_fractahedron

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

    def test_int32_range_counts_replicas(self, small):
        net, _ = small
        assert vec_blockers(CFG, net=net) == []
        (blocker,) = vec_blockers(CFG, net=net, replicas=1 << 30)
        assert "int32" in blocker and "fewer replicas" in blocker
