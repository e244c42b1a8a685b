"""Property-based tests: wormhole simulator conservation laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.dimension_order import dimension_order_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import uniform_traffic
from repro.topology.mesh import mesh


@st.composite
def sim_case(draw):
    shape = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    net = mesh(shape, nodes_per_router=1)
    tables = dimension_order_tables(net)
    cfg = SimConfig(
        buffer_depth=draw(st.integers(1, 4)),
        stall_threshold=64,
    )
    traffic = uniform_traffic(
        net.end_node_ids(),
        rate=draw(st.floats(0.0, 0.5)),
        packet_size=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return net, tables, cfg, traffic


@given(sim_case(), st.integers(50, 300))
@settings(max_examples=30, deadline=None)
def test_flit_conservation(case, cycles):
    """Flits are neither created nor destroyed: at any instant,
    offered = in source queues + in network buffers + delivered."""
    net, tables, cfg, traffic = case
    sim = make_sim(net, tables, traffic, cfg)
    sim.run(cycles, drain=False)

    total_offered_flits = sum(p.size for p in sim.packets.values())
    # count flits not yet injected (whole queued packets plus the
    # remaining cursor of a packet mid-injection)
    not_injected = 0
    for s in sim.sources.values():
        for i, p in enumerate(s.queue):
            if i == 0 and s.cursor:
                not_injected += len(s.cursor)
            else:
                not_injected += p.size
    in_buffers = sum(len(b) for b in sim.buffers.values())
    assert total_offered_flits == not_injected + in_buffers + sim.stats.flits_delivered


@given(sim_case())
@settings(max_examples=30, deadline=None)
def test_buffer_capacity_never_exceeded(case):
    net, tables, cfg, traffic = case
    sim = make_sim(net, tables, traffic, cfg)
    for _ in range(150):
        sim.step()
        assert all(len(b) <= cfg.buffer_depth for b in sim.buffers.values())


@given(sim_case())
@settings(max_examples=20, deadline=None)
def test_drain_completes_and_latencies_positive(case):
    net, tables, cfg, traffic = case
    sim = make_sim(net, tables, traffic, cfg)
    stats = sim.run(150, drain=True)
    assert stats.packets_delivered == stats.packets_offered
    assert all(l >= 1 for l in stats.latencies)
    assert len(stats.latencies) == stats.packets_delivered


@given(sim_case())
@settings(max_examples=20, deadline=None)
def test_per_pair_sequences_strictly_increase_at_sinks(case):
    net, tables, cfg, traffic = case
    sim = make_sim(net, tables, traffic, cfg)
    sim.run(200, drain=True)
    stats = sim.finalize()
    assert stats.in_order_violations == []
    # cross-check: deliveries sorted by time have increasing sequences
    by_pair: dict[tuple[str, str], list] = {}
    for p in sim.packets.values():
        if p.delivered is not None:
            by_pair.setdefault((p.src, p.dst), []).append(p)
    for packets in by_pair.values():
        packets.sort(key=lambda p: p.delivered)
        seqs = [p.sequence for p in packets]
        assert seqs == sorted(seqs)
