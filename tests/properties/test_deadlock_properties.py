"""Property-based tests: the Dally-Seitz bridge between statics and dynamics.

The central theorem the library rests on: an acyclic channel-dependency
graph means the wormhole simulator can never deadlock.  We randomize
topologies, routings, traffic and buffer depths, and check both directions
of the evidence:

* CDG acyclic  ==> simulation always drains (no deadlock, all delivered);
* our deadlock-free constructions stay acyclic under every shape knob.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fractahedron import FractaParams, fractahedron
from repro.core.routing import fractahedral_tables
from repro.deadlock.cdg import channel_dependency_graph, is_deadlock_free
from repro.routing.base import all_pairs_routes
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.dimension_order import ecube_tables
from repro.routing.tree_routing import up_down_tables
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import uniform_traffic
from repro.topology.fattree import fat_tree, fat_tree_tables
from repro.topology.hypercube import hypercube
from repro.topology.mesh import mesh
from repro.topology.ring import ring
from repro.topology.shuffle_exchange import shuffle_exchange


@st.composite
def certified_network(draw):
    """A (network, tables) pair whose routing is deadlock-free by design."""
    kind = draw(st.sampled_from(["mesh", "hypercube", "fracta", "fat_tree", "updown"]))
    if kind == "mesh":
        shape = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
        net = mesh(shape, nodes_per_router=draw(st.integers(1, 2)))
        tables = dimension_order_tables(net, order=draw(st.permutations([0, 1])))
    elif kind == "hypercube":
        net = hypercube(draw(st.integers(2, 4)), nodes_per_router=1)
        tables = ecube_tables(net, high_first=draw(st.booleans()))
    elif kind == "fracta":
        params = FractaParams(draw(st.integers(1, 2)), fat=draw(st.booleans()))
        net = fractahedron(params)
        tables = fractahedral_tables(net)
    elif kind == "fat_tree":
        down, up = draw(st.sampled_from([(4, 2), (3, 3), (2, 2)]))
        net = fat_tree(draw(st.integers(1, 2)), down=down, up=up)
        tables = fat_tree_tables(net)
    else:
        builder = draw(st.sampled_from(["ring", "shufflex"]))
        if builder == "ring":
            net = ring(draw(st.integers(3, 7)), nodes_per_router=1)
        else:
            net = shuffle_exchange(draw(st.integers(2, 3)), nodes_per_router=1)
        tables = up_down_tables(net)
    return net, tables


@given(certified_network())
@settings(max_examples=30, deadline=None)
def test_constructions_have_acyclic_cdgs(case):
    net, tables = case
    routes = all_pairs_routes(net, tables)
    assert is_deadlock_free(channel_dependency_graph(net, routes))


@given(
    certified_network(),
    st.integers(1, 4),  # buffer depth
    st.integers(1, 12),  # packet size
    st.integers(0, 2**31 - 1),  # traffic seed
    st.integers(0, 3),  # router pipeline delay
)
@settings(max_examples=25, deadline=None)
def test_acyclic_cdg_implies_no_simulated_deadlock(case, depth, size, seed, delay):
    """The theorem, exercised: deadlock-free routing never hangs."""
    net, tables = case
    # Keep the offered load below even a thin fractahedron's 4-link
    # bisection so the drain stays short: congestion is allowed,
    # livelock/deadlock is not.
    traffic = uniform_traffic(
        net.end_node_ids(), rate=0.03, packet_size=size, seed=seed
    )
    sim = make_sim(
        net,
        tables,
        traffic,
        SimConfig(
            buffer_depth=depth,
            raise_on_deadlock=True,
            stall_threshold=64,
            router_delay=delay,
        ),
    )
    stats = sim.run(250, drain=True)
    assert not stats.deadlocked
    # Liveness: the drain budget only burns on zero-progress cycles, so a
    # certified network always finishes its backlog within one drain.
    assert stats.packets_delivered == stats.packets_offered
    stats = sim.finalize()
    assert stats.in_order_violations == []
