"""Performance microbenchmarks of the library's hot paths.

These are proper multi-round pytest-benchmark measurements (unlike the
experiment regenerations, which run once): routing-table compilation,
route walking, CDG construction, contention analysis, and simulator flit
throughput.  They guard against performance regressions in the layers
everything else is built on -- the "no optimization without measuring"
discipline.
"""

import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.core.routing import fractahedral_tables
from repro.deadlock.cdg import channel_dependency_graph
from repro.metrics.contention import worst_case_contention
from repro.routing.base import all_pairs_routes, compute_route
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import uniform_traffic


@pytest.fixture(scope="module")
def net():
    return fat_fractahedron(2)


@pytest.fixture(scope="module")
def tables(net):
    return fractahedral_tables(net)


@pytest.fixture(scope="module")
def routes(net, tables):
    return all_pairs_routes(net, tables)


def test_perf_build_fractahedron(benchmark):
    net = benchmark(fat_fractahedron, 2)
    assert net.num_routers == 48


def test_perf_compile_tables(benchmark, net):
    tables = benchmark(fractahedral_tables, net)
    assert tables.num_entries() > 0


def test_perf_route_walk(benchmark, net, tables):
    route = benchmark(compute_route, net, tables, "n0", "n63")
    assert route.router_hops == 5


def test_perf_all_pairs_routes(benchmark, net, tables):
    routes = benchmark(all_pairs_routes, net, tables)
    assert len(routes) == 64 * 63


def test_perf_cdg_build(benchmark, net, routes):
    cdg = benchmark(channel_dependency_graph, net, routes)
    assert cdg.number_of_nodes() > 0


def test_perf_contention_analysis(benchmark, net, routes):
    worst = benchmark(worst_case_contention, net, routes)
    assert worst.contention == 8


def test_perf_simulator_throughput(benchmark, net, tables):
    """Cycles/second of the wormhole simulator on the 64-node network at
    moderate load (the figure that bounds every sweep's wall-clock)."""

    def run_sim():
        traffic = uniform_traffic(net.end_node_ids(), 0.02, 8, seed=1)
        sim = make_sim(net, tables, traffic, SimConfig(stall_threshold=200))
        sim.run(300, drain=False)
        return sim.stats.flits_moved

    flits = benchmark(run_sim)
    assert flits > 0
