"""RunResult.records: the packet columns every engine fills, the lazy
Packet dict of vectorized results, and jobs invariance of the curves
that read them."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.routing.cache import cached_tables
from repro.sim import api
from repro.sim.engine import SimConfig
from repro.sim.packet import PacketRecords
from repro.sim.parallel import SweepRunner
from repro.sim.sweep import curve_points
from repro.sim.traffic import uniform_traffic
from repro.sim.vec import UniformPlan
from repro.topology.mesh import mesh

CFG = SimConfig(raise_on_deadlock=False, stall_threshold=400)


@pytest.fixture(scope="module")
def small():
    net = mesh((3, 3), nodes_per_router=1)
    return net, cached_tables(net)


def spec_for(target, rate=0.08, engine="auto", seed=7):
    # no drain: packets still in flight at the end carry delivered == -1
    return api.SimSpec(
        network=target,
        traffic=UniformPlan(rate, 4, seed),
        config=dataclasses.replace(CFG, engine=engine),
        cycles=300,
    )


def assert_records_match(result):
    expected = PacketRecords.of(result.packets)
    for got, want in zip(result.records, expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("engine", ["reference", "compiled", "vectorized"])
def test_records_equal_the_packets_columns(small, engine):
    result = api.execute(spec_for(small, engine=engine))
    assert result.engine == engine
    created, delivered, size = result.records
    assert created.size == len(result.packets) > 0
    assert (delivered == -1).any(), "the run should end with packets in flight"
    assert_records_match(result)


def test_records_agree_across_engines(small):
    runs = [api.execute(spec_for(small, engine=e)) for e in ("reference", "compiled", "vectorized")]
    for run in runs[1:]:
        for a, b in zip(runs[0].records, run.records):
            np.testing.assert_array_equal(a, b)


def test_batched_records_and_lazy_packets(small):
    specs = [spec_for(small, rate=r) for r in (0.02, 0.05, 0.08)]
    grouped = api.execute_batch(specs)
    assert [r.engine for r in grouped] == ["vectorized"] * 3
    for spec, res in zip(specs, grouped):
        assert not isinstance(res._packets, dict)  # not built yet
        assert_records_match(res)
        # the lazily built dict equals the one the compiled engine keeps
        compiled = dataclasses.replace(CFG, engine="compiled")
        eager = api.execute(dataclasses.replace(spec, config=compiled))
        assert res.packets == eager.packets


def test_lazy_packets_equal_the_engines_own_dict(small):
    net, tables = small
    spec = spec_for(small, engine="vectorized")
    result = api.execute(spec)
    sim = api.make_sim(net, tables, spec.traffic, spec.config)
    sim.run(spec.cycles)
    sim.finalize()
    assert result.packets == sim.packets


def test_generator_traffic_on_the_vectorized_engine(small):
    net, tables = small
    gen = uniform_traffic(net.end_node_ids(), 0.08, 4, 7)
    result = api.execute(dataclasses.replace(spec_for(small, engine="vectorized"), traffic=gen))
    assert result.engine == "vectorized"
    assert isinstance(result._packets, dict)  # the stamped originals
    assert_records_match(result)


def test_unread_lazy_result_pickles(small):
    (result,) = api.execute_batch([spec_for(small, engine="vectorized")])
    clone = pickle.loads(pickle.dumps(result))
    assert clone.stats == result.stats
    for a, b in zip(clone.records, result.records):
        np.testing.assert_array_equal(a, b)
    assert clone.packets == result.packets


def test_curve_points_jobs_invariant(small):
    net, tables = small
    rates = (0.01, 0.05, 0.2)
    with SweepRunner(1) as one, SweepRunner(2) as two:
        serial = curve_points(net, tables, rates, cycles=400, run_batch=one.execute_batch)
        fanned = curve_points(net, tables, rates, cycles=400, run_batch=two.execute_batch)
    assert serial == fanned
