"""Property-based tests: the routing-table cache and the parallel runner.

Two families of invariants:

* **Cache coherence** -- a hit must return the *same object* as the first
  build, that object must equal a cold (uncached) build for any topology
  and parameter draw, and distinct (topology, algorithm, params, disables)
  identities must never collide on a key.
* **Runner semantics** -- ``SweepRunner.map`` is order-preserving ``map``
  for any function and worker count, seed derivation is injective over
  drawn identities, and ``find_saturation`` brackets truthfully: every
  probed rate below the returned saturation point is unsaturated.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.cache import (
    ALGORITHMS,
    RoutingTableCache,
    algorithm_for,
    cached_tables,
    network_fingerprint,
)
from repro.routing.dimension_order import dimension_order_tables
from repro.sim.parallel import SweepRunner, derive_seed
from repro.topology.hypercube import hypercube
from repro.topology.mesh import mesh
from repro.topology.ring import ring


def _saturation(target, **kwargs):
    """One saturation search per runner task (module level, so it pickles)."""
    from repro.sim.api import resolve_target
    from repro.sim.sweep import find_saturation

    return find_saturation(*resolve_target(target), **kwargs)


@st.composite
def small_network(draw):
    kind = draw(st.sampled_from(["mesh", "ring", "hypercube"]))
    if kind == "mesh":
        shape = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
        return mesh(shape, nodes_per_router=draw(st.integers(1, 2)))
    if kind == "ring":
        return ring(draw(st.integers(3, 8)))
    return hypercube(draw(st.integers(2, 4)))


class TestCacheProperties:
    @given(small_network())
    @settings(max_examples=15, deadline=None)
    def test_hit_is_same_object_and_equals_cold_build(self, net):
        cache = RoutingTableCache()
        first = cache.get_or_build(net)
        second = cache.get_or_build(net)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

        cold = ALGORITHMS[algorithm_for(net)](net)
        assert sorted(first.items()) == sorted(cold.items())

    @given(small_network())
    @settings(max_examples=10, deadline=None)
    def test_fingerprint_is_content_addressed(self, net):
        # a structurally identical rebuild fingerprints identically
        rebuilt_fp = network_fingerprint(net)
        assert network_fingerprint(net) == rebuilt_fp

    @given(st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_params_change_the_key(self, w, h):
        net = mesh((w, h))
        cache = RoutingTableCache()
        a = cache.get_or_build(net, order=(0, 1))
        b = cache.get_or_build(net, order=(1, 0))
        assert a is not b
        assert len(cache) == 2 and cache.stats.hits == 0

    def test_disables_change_the_key(self):
        net = mesh((3, 3))
        turns = sorted(
            {
                (f"R{x},{y}", "N", "E")
                for x in range(3)
                for y in range(3)
            }
        )[:2]
        cache = RoutingTableCache()
        plain = cache.get_or_build(net, builder=dimension_order_tables)
        disabled = cache.get_or_build(
            net, builder=dimension_order_tables, disables=turns
        )
        assert plain is not disabled
        assert len(cache) == 2

    @given(small_network())
    @settings(max_examples=10, deadline=None)
    def test_module_level_helper_shares_default_cache(self, net):
        a = cached_tables(net)
        b = cached_tables(net)
        assert a is b


class TestRunnerProperties:
    @given(st.lists(st.integers(-1000, 1000), max_size=12), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_map_is_ordered_map(self, xs, jobs):
        assert SweepRunner(jobs).map(abs, xs) == [abs(x) for x in xs]

    @given(
        st.integers(0, 2**31),
        st.lists(
            st.tuples(st.text(max_size=8), st.floats(0, 1, allow_nan=False)),
            min_size=2,
            max_size=8,
            unique=True,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_derive_seed_injective_over_identities(self, base, parts):
        seeds = [derive_seed(base, name, repr(rate)) for name, rate in parts]
        assert len(set(seeds)) == len(seeds)
        # and stable
        assert seeds == [derive_seed(base, n, repr(r)) for n, r in parts]


class TestSaturationBracket:
    def test_rates_below_saturation_are_unsaturated(self):
        """find_saturation's answer must be an honest bracket: re-measuring
        at probes strictly below it reports unsaturated."""
        from repro.sim.sweep import find_saturation, measure_point
        from repro.sim.sweep import _zero_load_latency

        net = mesh((3, 3), nodes_per_router=1)
        tables = dimension_order_tables(net)
        sat = find_saturation(net, tables, cycles=600, resolution=0.02)
        assert sat > 0.0
        zero = _zero_load_latency(net, tables, 8)
        for frac in (0.25, 0.5):
            rate = sat * frac
            point = measure_point(
                net,
                tables,
                rate,
                600,
                8,
                derive_seed(1996, "sat", repr(float(rate))),
                zero,
                3.0,
            )
            assert not point.saturated, f"saturated below bracket at {rate}"

    def test_saturation_through_runner_matches_direct(self):
        from repro.sim.api import NetworkSpec
        from repro.sim.sweep import find_saturation

        net = mesh((3, 3), nodes_per_router=1)
        tables = dimension_order_tables(net)
        direct = find_saturation(net, tables, cycles=600, resolution=0.02)
        spec = NetworkSpec.make("mesh", shape=(3, 3), nodes_per_router=1)
        with SweepRunner(2) as runner:
            (via_runner,) = runner.map(
                functools.partial(_saturation, cycles=600, resolution=0.02), [spec]
            )
        assert direct == via_runner
