"""Tests for load sweeps and saturation search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.sweep as sweep_mod
from repro.routing.dimension_order import dimension_order_tables
from repro.sim.sweep import LoadPoint, curve_points, find_saturation
from repro.topology.mesh import mesh


@pytest.fixture(scope="module")
def small():
    net = mesh((3, 3), nodes_per_router=1)
    return net, dimension_order_tables(net)


def test_latency_curve_monotone_in_the_large(small):
    net, tables = small
    points = curve_points(net, tables, rates=(0.01, 0.3), cycles=1200)
    assert points[0].avg_latency < points[1].avg_latency
    assert not points[0].saturated
    assert points[0].accepted_flits_per_node_cycle <= (
        points[1].accepted_flits_per_node_cycle + 1e-9
    )


def test_find_saturation_brackets(small):
    net, tables = small
    sat = find_saturation(net, tables, cycles=1200, resolution=0.01)
    assert 0.0 < sat < 0.5
    # below the returned rate the network is unsaturated
    (point,) = curve_points(net, tables, rates=(max(sat - 0.01, 0.001),), cycles=1200)
    assert not point.saturated


def test_find_saturation_deterministic(small):
    net, tables = small
    a = find_saturation(net, tables, cycles=600, resolution=0.02)
    b = find_saturation(net, tables, cycles=600, resolution=0.02)
    assert a == b


def test_unsaturable_at_max_rate_returns_max():
    # a single-router network cannot saturate on 1-flit packets at any rate
    net = mesh((2, 2), nodes_per_router=1)
    tables = dimension_order_tables(net)
    sat = find_saturation(
        net, tables, cycles=600, packet_size=1, max_rate=0.05, resolution=0.01
    )
    assert sat == 0.05


def test_accepted_load_shares_the_latency_window(small):
    """Accepted load and latency must come from the same post-warmup
    packets; the whole-run average would fold the warmup ramp in."""
    import numpy as np

    from repro.sim.engine import SimConfig
    from repro.sim.api import make_sim
    from repro.sim.sweep import measure_point
    from repro.sim.traffic import uniform_traffic

    net, tables = small
    cycles, rate, size, seed = 600, 0.05, 4, 7
    point = measure_point(net, tables, rate, cycles, size, seed, 20.0, 3.0)

    # replicate the run independently and derive both figures from the
    # same packet records measure_point saw
    sim = make_sim(
        net,
        tables,
        uniform_traffic(net.end_node_ids(), rate, size, seed),
        SimConfig(buffer_depth=4, raise_on_deadlock=False, stall_threshold=400),
    )
    sim.run(cycles, drain=False)
    warmup = cycles // 5
    steady = [
        p
        for p in sim.packets.values()
        if p.delivered is not None and p.created >= warmup
    ]
    expected_accepted = (
        sum(p.size for p in steady) / (cycles - warmup) / net.num_end_nodes
    )
    assert point.accepted_flits_per_node_cycle == expected_accepted
    assert point.avg_latency == float(np.mean([p.latency for p in steady]))
    # and it genuinely differs from the whole-run average on this workload
    assert point.accepted_flits_per_node_cycle != sim.stats.accepted_load(
        net.num_end_nodes
    )


def _step_oracle(threshold, batches=None):
    """A probe seam whose saturation is a step function of the rate;
    appends each batch of rates it is asked to measure to ``batches``."""

    def fake(net, tables, rates, *args, **kwargs):
        if batches is not None:
            batches.append(list(rates))
        return [
            LoadPoint(
                offered_rate=rate,
                accepted_flits_per_node_cycle=rate,
                avg_latency=1.0,
                p99_latency=1.0,
                saturated=rate > threshold,
            )
            for rate in rates
        ]

    return fake


def _serial_bisection(saturated, resolution, max_rate):
    """The one-probe-at-a-time search find_saturation must agree with."""
    low, high = 0.0, max_rate
    if not saturated(max_rate):
        return max_rate
    while high - low > resolution:
        mid = (low + high) / 2
        if saturated(mid):
            high = mid
        else:
            low = mid
    if low == 0.0:
        probe = high / 2
        if probe > 0.0 and not saturated(probe):
            return probe
        return 0.0
    return low


class TestLowBracketGuard:
    """When even the smallest bisected rate saturates, ``low`` stays at the
    never-probed 0.0 -- the guard must not report that as an unsaturated
    rate without measuring below the bracket first."""

    @pytest.fixture
    def small(self):
        net = mesh((2, 2), nodes_per_router=1)
        return net, dimension_order_tables(net)

    def test_always_saturated_returns_zero(self, small, monkeypatch):
        net, tables = small
        monkeypatch.setattr(sweep_mod, "_measure_rates", _step_oracle(-1.0))
        assert find_saturation(net, tables, cycles=100, resolution=0.002) == 0.0

    def test_tiny_saturation_rate_found_by_probe(self, small, monkeypatch):
        # threshold below the resolution: bisection drives high down to
        # ~resolution with low still 0.0; the guard's probe at high/2 is
        # unsaturated and must be returned instead of 0.0
        net, tables = small
        monkeypatch.setattr(sweep_mod, "_measure_rates", _step_oracle(0.0015))
        sat = find_saturation(net, tables, cycles=100, resolution=0.002)
        assert 0.0 < sat <= 0.0015

    def test_normal_bracket_unaffected(self, small, monkeypatch):
        net, tables = small
        monkeypatch.setattr(sweep_mod, "_measure_rates", _step_oracle(0.1))
        sat = find_saturation(net, tables, cycles=100, resolution=0.002)
        assert 0.098 <= sat <= 0.1


class TestArgumentChecks:
    """Arguments the bisection cannot honour are refused up front:
    ``resolution=0`` used to bisect forever once ``low`` and ``high`` were
    adjacent floats, and ``max_rate > 1`` failed deep in the traffic plan."""

    @pytest.mark.parametrize("resolution", [0.0, -0.01, float("nan")])
    def test_resolution_must_be_positive(self, small, resolution):
        net, tables = small
        with pytest.raises(ValueError, match=r"resolution must be > 0"):
            find_saturation(net, tables, cycles=100, resolution=resolution)

    @pytest.mark.parametrize("max_rate", [0.0, -0.5, 2.0, float("nan")])
    def test_max_rate_must_be_a_rate(self, small, max_rate):
        net, tables = small
        with pytest.raises(ValueError, match=r"max_rate must be in \(0, 1\]"):
            find_saturation(net, tables, cycles=100, max_rate=max_rate)

    def test_max_rate_one_is_accepted(self, small, monkeypatch):
        net, tables = small
        monkeypatch.setattr(sweep_mod, "_measure_rates", _step_oracle(2.0))
        assert find_saturation(net, tables, cycles=100, max_rate=1.0) == 1.0

    def test_resolution_below_float_spacing_terminates(self, small, monkeypatch):
        net, tables = small
        batches = []
        monkeypatch.setattr(sweep_mod, "_measure_rates", _step_oracle(0.1, batches))
        sat = find_saturation(net, tables, cycles=100, resolution=1e-300)
        tested = [r for batch in batches for r in batch]
        assert sat == max(r for r in tested if r <= 0.1)
        assert len(tested) < 200


class TestSpeculativeSearch:
    """The batched search tests every rate the serial search tests and
    returns the same answer."""

    @pytest.fixture(scope="class")
    def tiny(self):
        net = mesh((2, 2), nodes_per_router=1)
        return net, dimension_order_tables(net)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        resolution=st.floats(1e-4, 0.2),
        max_rate=st.floats(0.01, 1.0),
    )
    def test_matches_serial_bisection(self, tiny, data, resolution, max_rate):
        threshold = data.draw(
            st.one_of(
                st.floats(-1.0, -1e-9),  # saturated everywhere: the 0.0 sentinel
                st.floats(0.0, resolution),  # the low-bracket guard decides
                st.floats(0.0, max_rate),
                st.floats(max_rate, 2.0),  # never saturates: max_rate
            ),
            label="threshold",
        )
        serial_path = []

        def saturated(rate):
            serial_path.append(rate)
            return rate > threshold

        expected = _serial_bisection(saturated, resolution, max_rate)
        batches = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep_mod, "_measure_rates", _step_oracle(threshold, batches))
            got = find_saturation(
                *tiny, cycles=100, resolution=resolution, max_rate=max_rate
            )
        tested = [r for batch in batches for r in batch]
        assert got == expected
        assert set(serial_path) <= set(tested)
        assert len(tested) == len(set(tested)), "a rate was measured twice"
        assert len(batches) <= len(serial_path)
        assert batches[0][0] == max_rate

    @pytest.mark.parametrize("threshold", [0.0215, 0.0195, 0.0332])
    def test_spine_then_finishing_batch(self, monkeypatch, threshold):
        # thresholds at the three sweep64 saturation rates: the spine batch
        # finds the first unsaturated rate, one more batch ends the search
        net = mesh((3, 3), nodes_per_router=1)
        tables = dimension_order_tables(net)
        batches = []
        monkeypatch.setattr(sweep_mod, "_measure_rates", _step_oracle(threshold, batches))
        got = find_saturation(net, tables, cycles=300)
        # max_rate, its spine 0.25 ... 0.001953125 and the guard probe
        assert batches[0] == [0.5 / 2**k for k in range(10)]
        assert len(batches) == 2
        assert got == _serial_bisection(lambda rate: rate > threshold, 0.002, 0.5)

    def test_gate_asks_at_the_widest_batch(self, monkeypatch):
        from repro.sim import api

        asked = []
        decide = api.preferred_engine

        def spy(*args, replicas=1, **kwargs):
            asked.append(replicas)
            return decide(*args, replicas=replicas, **kwargs)

        batches = []
        monkeypatch.setattr(api, "preferred_engine", spy)
        monkeypatch.setattr(sweep_mod, "_measure_rates", _step_oracle(0.1, batches))
        net = mesh((3, 3), nodes_per_router=1)
        find_saturation(net, dimension_order_tables(net), cycles=300, resolution=1e-12)
        assert asked == [sweep_mod._WIDEST_BATCH]
        assert max(map(len, batches)) == sweep_mod._WIDEST_BATCH


class TestNoWastedLoneRuns:
    """Where a batch would not run vectorized the search measures exactly
    the serial probes, one spec each."""

    @pytest.mark.parametrize(
        "options",
        [{"engine": "compiled"}, {"switching": "store_and_forward"}],
        ids=["compiled", "store_and_forward"],
    )
    def test_spec_count_equals_serial(self, small, monkeypatch, options):
        from repro.sim import api
        from repro.sim.parallel import derive_seed
        from repro.sim.sweep import _zero_load_latency, measure_point

        net, tables = small
        cycles, size, seed, resolution = 300, 4, 11, 0.02
        switching = options.get("switching", "wormhole")
        engine = options.get("engine", "auto")
        executed = []
        execute = api.execute

        def counting(spec):
            executed.append(spec)
            return execute(spec)

        monkeypatch.setattr(api, "execute", counting)
        got = find_saturation(
            net, tables, cycles=cycles, packet_size=size, seed=seed,
            resolution=resolution, **options,
        )
        searched = len(executed)
        assert len({s.traffic.rate for s in executed}) == searched

        executed.clear()
        zero = _zero_load_latency(net, tables, size)

        def saturated(rate):
            return measure_point(
                net, tables, rate, cycles, size,
                derive_seed(seed, "rate", repr(rate), "switching", switching),
                zero, 3.0, switching, engine,
            ).saturated

        assert got == _serial_bisection(saturated, resolution, 0.5)
        assert searched == len(executed)


@pytest.mark.slow
def test_fracta_saturates_above_fat_tree():
    """The §4.0 headline, as a single number: the fractahedron's
    saturation rate exceeds the fat tree's."""
    from repro.core.fractahedron import fat_fractahedron
    from repro.core.routing import fractahedral_tables
    from repro.topology.fattree import fat_tree, fat_tree_tables

    ft = fat_tree(3, down=4, up=2)
    fr = fat_fractahedron(2)
    sat_ft = find_saturation(ft, fat_tree_tables(ft), cycles=1200, resolution=0.005)
    sat_fr = find_saturation(fr, fractahedral_tables(fr), cycles=1200, resolution=0.005)
    assert sat_fr > sat_ft
