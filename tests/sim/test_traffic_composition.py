"""Tests for composing traffic generators with a shared counter."""

from repro.sim.traffic import (
    SequenceCounter,
    merge_traffic,
    permutation_traffic,
    uniform_traffic,
)

NODES = [f"n{i}" for i in range(8)]


def test_shared_counter_keeps_ids_unique():
    counter = SequenceCounter()
    a = uniform_traffic(NODES, rate=1.0, seed=1, counter=counter)
    b = permutation_traffic([("n0", "n1")], rate=1.0, seed=2, counter=counter)
    merged = merge_traffic(a, b)
    ids = [p.packet_id for c in range(10) for p in merged(c)]
    assert len(ids) == len(set(ids))


def test_shared_counter_keeps_sequences_monotone_per_pair():
    counter = SequenceCounter()
    a = permutation_traffic([("n0", "n1")], rate=1.0, seed=1, counter=counter)
    b = permutation_traffic([("n0", "n1")], rate=1.0, seed=2, counter=counter)
    merged = merge_traffic(a, b)
    seqs = [p.sequence for c in range(10) for p in merged(c)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_separate_counters_collide():
    """The failure mode the shared counter exists to prevent."""
    a = permutation_traffic([("n0", "n1")], rate=1.0, seed=1)
    b = permutation_traffic([("n0", "n1")], rate=1.0, seed=2)
    merged = merge_traffic(a, b)
    packets = merged(0)
    assert packets[0].packet_id == packets[1].packet_id  # collision!


def test_merged_stream_drives_simulation_in_order():
    from repro.routing.dimension_order import dimension_order_tables
    from repro.sim.engine import SimConfig
    from repro.sim.api import make_sim
    from repro.topology.mesh import mesh

    net = mesh((2, 2), nodes_per_router=2)
    tables = dimension_order_tables(net)
    counter = SequenceCounter()
    traffic = merge_traffic(
        uniform_traffic(net.end_node_ids(), 0.1, 4, seed=3, counter=counter),
        permutation_traffic([("n0", "n7")], 0.4, 4, seed=4, counter=counter),
    )
    sim = make_sim(net, tables, traffic, SimConfig())
    stats = sim.run(400, drain=True)
    assert stats.packets_delivered == stats.packets_offered
    assert sim.finalize().in_order_violations == []
