"""The counter-parity assertion: field-complete, and it actually fires."""

import dataclasses

import pytest

from repro.obs import (
    CounterParityError,
    assert_counter_parity,
    compare_signatures,
    stats_signature,
)
from repro.routing.cache import cached_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.stats import SimStats
from repro.sim.traffic import uniform_traffic
from repro.topology.mesh import mesh


@pytest.fixture(scope="module")
def small():
    net = mesh((3, 3), nodes_per_router=1)
    return net, cached_tables(net)


def test_signature_is_field_complete(small):
    # every SimStats field must appear: the signature enumerates the
    # dataclass, so a counter added later joins the contract for free
    net, tables = small
    sim = make_sim(
        net, tables, uniform_traffic(net.end_node_ids(), 0.05, 4, 1)
    )
    sim.run(100, drain=True)
    sig = stats_signature(sim)
    for f in dataclasses.fields(SimStats):
        assert f.name in sig
    assert "packet_stamps" in sig
    # recovery counters explicitly part of the contract
    for name in ("packets_retried", "packets_dropped", "table_swaps",
                 "reconvergence_cycles", "failover_latencies"):
        assert name in sig


def test_compare_signatures_flags_each_divergent_field():
    a = {"cycles": 100, "flits_moved": 40}
    b = {"cycles": 100, "flits_moved": 41, "extra": 1}
    diffs = compare_signatures(a, b)
    assert len(diffs) == 2
    assert any("flits_moved" in d for d in diffs)
    assert any("extra" in d for d in diffs)


def test_parity_holds_on_identical_inputs(small):
    net, tables = small
    sig = assert_counter_parity(
        net,
        tables,
        lambda: uniform_traffic(net.end_node_ids(), 0.06, 4, 1996),
        SimConfig(stall_threshold=200),
        cycles=300,
    )
    assert sig["packets_delivered"] > 0


def test_parity_holds_with_faults_and_recovery(small):
    import numpy as np

    from repro.sim.engine import RetryPolicy
    from repro.sim.fault import random_cable_schedule

    net, tables = small
    sig = assert_counter_parity(
        net,
        tables,
        lambda: uniform_traffic(net.end_node_ids(), 0.05, 4, 9),
        SimConfig(stall_threshold=200, retry=RetryPolicy(timeout=32)),
        cycles=300,
        fault_factory=lambda: random_cable_schedule(
            net, 2, np.random.default_rng(13), at_cycle=40, repair_at=160
        ),
    )
    assert sig["cycles"] > 0


def test_parity_error_lists_divergences(small):
    # a stateful "factory" that hands each engine different traffic is
    # exactly the bug class the assertion exists to catch
    net, tables = small
    seeds = iter((1, 2))

    def unstable_traffic():
        return uniform_traffic(net.end_node_ids(), 0.06, 4, next(seeds))

    with pytest.raises(CounterParityError) as exc:
        assert_counter_parity(
            net, tables, unstable_traffic, cycles=300
        )
    assert exc.value.diffs
    assert any("reference=" in d and "compiled=" in d for d in exc.value.diffs)
