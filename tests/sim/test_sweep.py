"""Tests for load sweeps and saturation search."""

import pytest

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


def _fake_measure(threshold):
    """A measure_point whose saturation is a step function of the rate."""

    def fake(net, tables, rate, cycles, packet_size, seed, zero_load, factor,
             switching="wormhole", engine="auto"):
        return LoadPoint(
            offered_rate=rate,
            accepted_flits_per_node_cycle=rate,
            avg_latency=1.0,
            p99_latency=1.0,
            saturated=rate > threshold,
        )

    return fake


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
        monkeypatch.setattr(sweep_mod, "measure_point", _fake_measure(-1.0))
        assert find_saturation(net, tables, cycles=100, resolution=0.002) == 0.0

    def test_tiny_saturation_rate_found_by_probe(self, small, monkeypatch):
        # threshold below the resolution: bisection drives high down to
        # ~resolution with low still 0.0; the guard's probe at high/2 is
        # unsaturated and must be returned instead of 0.0
        net, tables = small
        monkeypatch.setattr(sweep_mod, "measure_point", _fake_measure(0.0015))
        sat = find_saturation(net, tables, cycles=100, resolution=0.002)
        assert 0.0 < sat <= 0.0015

    def test_normal_bracket_unaffected(self, small, monkeypatch):
        net, tables = small
        monkeypatch.setattr(sweep_mod, "measure_point", _fake_measure(0.1))
        sat = find_saturation(net, tables, cycles=100, resolution=0.002)
        assert 0.098 <= sat <= 0.1


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
