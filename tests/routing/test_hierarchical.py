"""``shortest_path_tables`` must be bit-identical to the per-destination BFS.

``python_bfs_tables`` is the deque BFS the builder used to be: one reverse
BFS per destination end node over string-keyed adjacency, sorting each
dequeued router's incoming links by the tie-break.  It stays here as the
oracle for the level-synchronous array BFS that replaced it: same port
matrix, same :class:`RoutingError` text for the first unreachable
destination in ``dests`` order, under both tie-breaks and any link
restriction.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron, thin_fractahedron
from repro.network.graph import NetworkError
from repro.routing.base import RoutingError, RoutingTable
from repro.routing.shortest_path import rotating_tie_break, shortest_path_tables
from repro.topology.mesh import mesh
from repro.topology.registry import build_topology
from tests.routing.test_walk import PARAMS


def python_bfs_tables(net, allowed=None, tie_break=None, dests=None) -> RoutingTable:
    """Shortest-path tables from one Python deque BFS per destination."""
    breaker = tie_break or (lambda _dest, link: (link.src, link.src_port))
    incoming = {r: [] for r in net.router_ids()}
    for link in net.router_links():
        if allowed is None or allowed(link):
            incoming[link.dst].append(link)
    routers = set(net.router_ids())
    tables = RoutingTable(net)
    for dest in net.end_node_ids() if dests is None else dests:
        dest_router = net.attached_router(dest)
        ejection = [l for l in net.out_links(dest_router) if l.dst == dest]
        tables.set(dest_router, dest, ejection[0].src_port)
        dist = {dest_router: 0}
        queue = deque([dest_router])
        while queue:
            current = queue.popleft()
            for link in sorted(incoming[current], key=lambda l: breaker(dest, l)):
                if link.src not in dist:
                    dist[link.src] = dist[current] + 1
                    tables.set(link.src, dest, link.src_port)
                    queue.append(link.src)
        missing = routers - dist.keys()
        if missing:
            raise RoutingError(
                f"{len(missing)} router(s) cannot reach {dest!r} "
                f"under the given restriction (e.g. {sorted(missing)[0]!r})"
            )
    return tables


def outcome(build, net, **kwargs):
    """The port matrix a build compiles, or the text of its RoutingError."""
    try:
        return build(net, **kwargs).ports
    except RoutingError as err:
        return str(err)


def assert_identical(net, **kwargs):
    """The array builder and the oracle agree cell for cell (or error text)."""
    got = outcome(shortest_path_tables, net, **kwargs)
    want = outcome(python_bfs_tables, net, **kwargs)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert (want >= 0).any()


def sampled(net, count=24):
    """``count`` evenly spaced destinations across the end-node order."""
    ends = net.end_node_ids()
    return ends[:: len(ends) // count][:count]


TIE_BREAKS = {"default": None, "rotating": rotating_tie_break}


class TestOracleIdentity:
    @pytest.mark.parametrize(
        "build,kwargs",
        [
            (fat_fractahedron, {"levels": 1}),
            (fat_fractahedron, {"levels": 2}),
            (fat_fractahedron, {"levels": 2, "fanout_width": 2}),
            (thin_fractahedron, {"levels": 2, "fanout_width": 2}),
            (thin_fractahedron, {"levels": 3}),
        ],
    )
    def test_full_sweep_matches(self, build, kwargs):
        assert_identical(build(**kwargs))

    @pytest.mark.parametrize("build", [fat_fractahedron, thin_fractahedron])
    @pytest.mark.parametrize("levels", [1, 2])
    def test_rotating_full_sweep_matches(self, build, levels):
        assert_identical(build(levels, fanout_width=2), tie_break=rotating_tie_break)

    def test_depth3_fat_sampled_sweep_matches(self):
        net = fat_fractahedron(3, fanout_width=2)
        assert_identical(net, dests=sampled(net))

    @pytest.mark.parametrize(
        "build,tie",
        [
            (thin_fractahedron, "default"),
            (fat_fractahedron, "rotating"),
            (thin_fractahedron, "rotating"),
        ],
    )
    def test_depth3_sampled_sweep_matches(self, build, tie):
        net = build(3, fanout_width=2)
        assert_identical(net, dests=sampled(net), tie_break=TIE_BREAKS[tie])

    @pytest.mark.parametrize("tie", sorted(TIE_BREAKS))
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_every_registered_topology_matches(self, name, tie):
        net = build_topology(name, **PARAMS[name])
        assert_identical(net, tie_break=TIE_BREAKS[tie])

    def test_non_fractahedral_network_matches(self):
        assert_identical(mesh((3, 3)))

    def test_allowed_predicate_matches(self):
        net = fat_fractahedron(2)
        # forbid one direction of one intra-tetra link; both builders must
        # route around it the same way
        victim = next(l for l in net.router_links() if l.src == "L1.G0.Y0.C0")

        def allowed(link):
            return not (link.src == victim.src and link.src_port == victim.src_port)

        assert_identical(net, allowed=allowed)

    def test_dests_subset(self):
        net = fat_fractahedron(2)
        dests = net.end_node_ids()[:5]
        table = shortest_path_tables(net, dests=dests)
        assert table.num_entries() == python_bfs_tables(net, dests=dests).num_entries()
        assert_identical(net, dests=dests)

    def test_port_matrix_identical(self):
        # the engines route from the port matrix itself, so equal matrices
        # mean identical simulated routes
        net = fat_fractahedron(2, fanout_width=2)
        po = python_bfs_tables(net).ports_on(net)
        ph = shortest_path_tables(net).ports_on(net)
        assert np.array_equal(po, ph)


class TestDisconnectedRestriction:
    @pytest.mark.parametrize(
        "bad, text", [("R1,1", "'R1,1' is not an end node"), ("nope", "unknown node 'nope'")]
    )
    def test_non_end_in_dests_raises_network_error(self, bad, text):
        with pytest.raises(NetworkError, match=rf"^{text}$"):
            shortest_path_tables(mesh((3, 3)), dests=["n0", bad])

    def test_same_error_as_oracle(self):
        net = fat_fractahedron(1)
        # cut every link into one corner: its ends become unreachable

        def allowed(link):
            return link.dst != "L1.G0.Y0.C3"

        with pytest.raises(RoutingError) as oracle_err:
            python_bfs_tables(net, allowed=allowed)
        with pytest.raises(RoutingError) as array_err:
            shortest_path_tables(net, allowed=allowed)
        assert str(array_err.value) == str(oracle_err.value)

    @pytest.mark.parametrize("tie", sorted(TIE_BREAKS))
    @pytest.mark.parametrize(
        "name", ["mesh", "torus", "hypercube", "dragonfly", "fat_fractahedron"]
    )
    def test_random_disable_sets(self, name, tie):
        """Random link cuts, some of which disconnect the fabric, with the
        destinations in a shuffled order: the first unreachable one names
        the error on both sides."""
        net = build_topology(name, **PARAMS[name])
        rng = np.random.default_rng(sum(map(ord, name + tie)))
        link_ids = sorted(l.link_id for l in net.router_links())
        errors = 0
        for fraction in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7):
            picks = rng.choice(len(link_ids), int(len(link_ids) * fraction), replace=False)
            cut = {link_ids[i] for i in picks}
            ends = net.end_node_ids()
            dests = [ends[i] for i in rng.permutation(len(ends))]
            kwargs = {
                "allowed": lambda link, cut=cut: link.link_id not in cut,
                "tie_break": TIE_BREAKS[tie],
                "dests": dests,
            }
            errors += isinstance(outcome(python_bfs_tables, net, **kwargs), str)
            assert_identical(net, **kwargs)
        assert errors > 0  # the heavier cuts disconnect every fabric here


class TestArrayRoutingTable:
    def test_is_duck_compatible_routing_table(self):
        net = fat_fractahedron(1)
        table = shortest_path_tables(net)
        assert type(table) is RoutingTable
        dest = net.end_node_ids()[0]
        router = net.attached_router(dest)
        port = table.lookup(router, dest)
        assert table.entries(router)[dest] == port
        assert (router, dest, port) in set(table.items())
        assert table.has_entry(router, dest)
        assert not table.has_entry(router, "n999")

    def test_missing_entry_raises_like_dict_table(self):
        net = fat_fractahedron(1)
        table = shortest_path_tables(net)
        with pytest.raises(RoutingError):
            table.lookup("L1.G0.Y0.C0", "n999")

    def test_set_and_copy_are_independent(self):
        net = fat_fractahedron(1)
        table = shortest_path_tables(net)
        clone = table.copy()
        dest = net.end_node_ids()[0]
        router = net.attached_router(dest)
        original = table.lookup(router, dest)
        clone.set(router, dest, original + 1)
        assert clone.lookup(router, dest) == original + 1
        assert table.lookup(router, dest) == original

    def test_ports_match_dict_rebuild(self):
        net = fat_fractahedron(1)
        table = shortest_path_tables(net)
        rebuilt = RoutingTable(net, {r: table.entries(r) for r in table.routers()})
        assert np.array_equal(table.ports_on(net), rebuilt.ports_on(net))
