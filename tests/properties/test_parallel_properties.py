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
from repro.network.serialize import network_from_dict, network_to_dict
from repro.routing.dimension_order import dimension_order_tables
from repro.sim.parallel import SweepRunner, derive_seed
from repro.topology.hypercube import hypercube
from repro.topology.mesh import mesh
from repro.topology.ring import ring


def _saturation(target, **kwargs):
    """One saturation search per runner task (module level, so it pickles)."""
    from repro.sim.sweep import find_saturation

    return find_saturation(*target, **kwargs)


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

    @given(small_network(), st.data())
    @settings(max_examples=10, deadline=None)
    def test_fingerprint_is_content_addressed(self, net, data):
        fp = network_fingerprint(net)
        # a rebuild from the serialized form fingerprints identically
        assert network_fingerprint(network_from_dict(network_to_dict(net))) == fp

        routers = net.router_ids()
        rid = data.draw(st.sampled_from(routers))

        def variant(edit):
            doc = network_to_dict(net)
            edit(doc)
            return network_fingerprint(network_from_dict(doc))

        def set_attrs(**attrs):
            def edit(doc):
                next(n for n in doc["nodes"] if n["id"] == rid)["attrs"].update(attrs)

            return edit

        def set_attr(value):
            return set_attrs(tag=value)

        # attrs are content: the order they were set in does not count
        assert variant(set_attrs(x=1, y=2)) == variant(set_attrs(y=2, x=1))

        def swap_ports(doc):
            # the router's first two cables trade their port numbers on it
            ends = [
                (c, side)
                for c in doc["cables"]
                for side in ("a", "b")
                if c[side] == rid
            ][:2]
            (c1, s1), (c2, s2) = ends
            c1[s1 + "_port"], c2[s2 + "_port"] = c2[s2 + "_port"], c1[s1 + "_port"]

        def extra_cable(doc):
            a, b = [r for r in routers if net.free_ports(r)][:2]
            doc["cables"].append(
                {"a": a, "a_port": net.next_free_port(a), "b": b,
                 "b_port": net.next_free_port(b), "attrs": {}}
            )

        tagged = {
            name: variant(edit)
            for name, edit in {
                "int attr": set_attr(1),
                "float attr": set_attr(1.0),
                "bool attr": set_attr(True),
                "tuple attr": set_attr((1, 2)),
                "list attr": set_attr([1, 2]),
                "cable attr": lambda doc: doc["cables"][0]["attrs"].update(tag=1),
                "network tuple attr": lambda doc: doc["attrs"].update(tag=(1, 2)),
                "network list attr": lambda doc: doc["attrs"].update(tag=[1, 2]),
                "swapped port": swap_ports,
                "extra cable": extra_cable,
            }.items()
        }
        distinct = [fp, *tagged.values()]
        assert len(set(distinct)) == len(distinct), tagged
        # a changed attr value changes the key too
        assert variant(set_attr((1, 3))) != tagged["tuple attr"]

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
        from repro.sim.sweep import find_saturation

        net = mesh((3, 3), nodes_per_router=1)
        tables = dimension_order_tables(net)
        direct = find_saturation(net, tables, cycles=600, resolution=0.02)
        rebuilt = mesh((3, 3), nodes_per_router=1)
        with SweepRunner(2) as runner:
            (via_runner,) = runner.map(
                functools.partial(_saturation, cycles=600, resolution=0.02),
                [(rebuilt, cached_tables(rebuilt))],
            )
        assert direct == via_runner
