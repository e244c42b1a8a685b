"""SimProbe: cycle-exact sampling, identical across engines and shards."""

import pytest

from repro.obs import SimProbe
from repro.routing.cache import cached_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import uniform_traffic
from repro.topology.mesh import mesh


def _run_with_probe(engine: str, interval: int = 50) -> SimProbe:
    net = mesh((3, 3), nodes_per_router=1)
    tables = cached_tables(net)
    probe = SimProbe(interval)
    sim = make_sim(
        net,
        tables,
        uniform_traffic(net.end_node_ids(), 0.06, 4, 1996),
        SimConfig(raise_on_deadlock=False, stall_threshold=200, engine=engine),
        probe=probe,
    )
    sim.run(400, drain=True)
    return probe


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        SimProbe(0)


def test_samples_land_on_interval_boundaries():
    probe = _run_with_probe("reference")
    assert len(probe) > 0
    assert all(s["cycle"] % 50 == 0 for s in probe.samples)


def test_engines_sample_identical_timelines():
    ref = _run_with_probe("reference")
    com = _run_with_probe("compiled")
    assert ref.samples == com.samples
    assert ref.timeline_rows(rate=0.06) == com.timeline_rows(rate=0.06)


def test_timeline_differentiates_cumulative_counts():
    probe = SimProbe(10)
    base = {
        "occupied_buffers": 0,
        "in_flight": 0,
        "backlog": 0,
        "packets_delivered": 0,
        "flits_delivered": 0,
        "flits_moved": 0,
    }
    probe.samples = [
        {**base, "cycle": 10, "link_flits": {"a": 5}},
        {**base, "cycle": 20, "link_flits": {"a": 5, "b": 10}},
    ]
    rows = probe.timeline_rows(rate=0.5)
    assert [r["kind"] for r in rows] == ["sample", "sample"]
    assert all(r["rate"] == 0.5 for r in rows)
    assert rows[0]["link_utilization"] == {"a": 0.5}
    # "a" unchanged in the second window, so only "b" appears
    assert rows[1]["link_utilization"] == {"b": 1.0}
    assert probe.peak_link_utilization() == {"a": 0.5, "b": 1.0}


def test_disabled_probe_is_default():
    net = mesh((2, 2), nodes_per_router=1)
    sim = make_sim(
        net,
        cached_tables(net),
        uniform_traffic(net.end_node_ids(), 0.05, 4, 1),
        SimConfig(raise_on_deadlock=False),
    )
    sim.run(100, drain=True)
    assert sim.probe is None


def test_sweep_timelines_identical_across_job_counts():
    import functools

    from repro.sim.parallel import SweepRunner
    from repro.sim.sweep import curve_points, sample_point

    net = mesh((3, 3), nodes_per_router=1)
    tables = cached_tables(net)
    results = {}
    for jobs in (1, 4):
        rows = []
        with SweepRunner(jobs) as runner:

            def sampled(specs):
                observed = runner.map(functools.partial(sample_point, 100), specs)
                rows.extend(row for _, sample in observed for row in sample)
                return [result for result, _ in observed]

            points = curve_points(
                net, tables, (0.01, 0.05), cycles=400, run_batch=sampled
            )
        results[jobs] = (points, rows)
    assert results[1] == results[4]
    assert results[1][1], "sampling produced no rows"
