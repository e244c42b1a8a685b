"""Edge-case coverage for small branches across the library."""

import pytest

from repro.routing.vc import vc_for_route
from repro.topology.mesh import mesh
from repro.topology.torus import torus
from repro.viz import render


def test_vc_for_route_rejects_insufficient_vcs():
    net = torus((4,), nodes_per_router=1, router_radix=6)
    # a route that crosses the wrap link needs VC 1
    wrap = next(l for l in net.router_links() if l.attrs.get("wraparound"))
    inject = net.out_links("n0")[0]
    with pytest.raises(ValueError, match="virtual channels"):
        vc_for_route(net, (inject.link_id, wrap.link_id), vc_count=1)


def test_render_dispatches_3d_mesh_to_adjacency():
    net = mesh((2, 2, 2), nodes_per_router=1, router_radix=7)
    text = render(net)
    assert "->" in text  # adjacency listing, not a 2-D grid


def test_worst_pair_names_real_nodes():
    from repro.core.fractahedron import FractaParams, fractahedron
    from repro.experiments.table1_fractahedron import worst_pair

    for levels in (1, 2):
        for fat in (False, True):
            params = FractaParams(levels, fat=fat, fanout_width=2)
            net = fractahedron(params)
            src, dst = worst_pair(params)
            assert net.has_node(src) and net.has_node(dst)
            assert src != dst


def test_oversubscribed_drain_completes_in_bounded_time():
    """The drain budget only burns on zero-progress cycles, so even a
    badly oversubscribed network delivers its whole backlog instead of
    cutting off mid-drain (and still terminates, because movement-free
    cycles are bounded by the budget and finite backlogs cannot move
    flits forever)."""
    from repro.core.fractahedron import thin_fractahedron
    from repro.core.routing import fractahedral_tables
    from repro.sim.engine import SimConfig
    from repro.sim.api import make_sim
    from repro.sim.traffic import uniform_traffic

    net = thin_fractahedron(2)  # 4-link bisection chokes easily
    tables = fractahedral_tables(net)
    traffic = uniform_traffic(net.end_node_ids(), rate=0.9, packet_size=8, seed=1)
    sim = make_sim(
        net,
        tables,
        traffic,
        SimConfig(raise_on_deadlock=False, stall_threshold=5000),
    )
    stats = sim.run(200, drain=True)
    assert not stats.deadlocked
    assert stats.packets_delivered == stats.packets_offered
    assert stats.cycles > 200  # it did have to drain well past the run window


def test_sequence_counter_direct():
    from repro.sim.traffic import SequenceCounter

    counter = SequenceCounter()
    a = counter.make("x", "y", 4, 0)
    b = counter.make("x", "y", 4, 1)
    c = counter.make("x", "z", 4, 1)
    assert (a.sequence, b.sequence, c.sequence) == (0, 1, 0)
    assert len({a.packet_id, b.packet_id, c.packet_id}) == 3
