"""Depth-3 structural invariants and the scale path's guard rails.

The paper's 1024-CPU fractahedrons (Table 1's N=3 row) pin down exact
port budgets, unused-up-port counts and bisection widths; these tests
measure them on the built networks.  Alongside them: the parameter
bounds that keep absurd depths from silently grinding, and the
``Network.indices()`` cache: rebuilt from the insertion-ordered id arenas
after any mutation, so growth keeps every earlier index and link ids
stay sorted.
"""

import pytest

from repro.core.fractahedron import MAX_LEVELS, FractaParams, fat_fractahedron, thin_fractahedron
from repro.core.generalized import MAX_END_NODES, GeneralFractaParams
from repro.metrics.bisection import bisection_of_partition

UP_PORT = 5  # the 2-3-1 split: ports 0-1 down, 2-4 intra, 5 up


def used_ports(net, rid):
    return {l.src_port for l in net.out_links(rid)}


def corner_routers(net):
    return [r for r in net.router_ids() if not net.node(r).attrs.get("fanout")]


class TestDepth3PortBudgets:
    def test_fat_uses_every_up_port_below_the_top(self):
        net = fat_fractahedron(3, fanout_width=2)
        assert (net.num_routers, net.num_end_nodes) == (960, 1024)
        corners = corner_routers(net)
        assert len(corners) == 448  # 4 * (64 + 8*4 + 16) layered tetra corners
        no_up = [r for r in corners if UP_PORT not in used_ports(net, r)]
        # exactly the top level's 4^2 layers x 4 corners stay unconnected,
        # reserved for future expansion as the paper specifies
        assert len(no_up) == 64
        assert all(net.node(r).attrs["level"] == 3 for r in no_up)
        for r in corners:
            ports = used_ports(net, r)
            assert len(ports) == (5 if r in set(no_up) else 6)
            assert ports <= set(range(6))

    def test_thin_leaves_three_up_ports_per_tetra_unused(self):
        net = thin_fractahedron(3, fanout_width=2)
        corners = corner_routers(net)
        assert len(corners) == 292  # (64 + 8 + 1) tetras x 4 corners
        no_up = [r for r in corners if UP_PORT not in used_ports(net, r)]
        # every tetra sends one up link except the top one: 73*4 - 72
        assert len(no_up) == 220

    def test_fanout_routers_use_one_up_and_width_down(self):
        net = fat_fractahedron(3, fanout_width=2)
        fanouts = [r for r in net.router_ids() if net.node(r).attrs.get("fanout")]
        assert len(fanouts) == 512
        for r in fanouts[:: len(fanouts) // 32]:
            assert len(used_ports(net, r)) == 3  # 1 toward the corner + 2 ends


class TestDepth3Bisection:
    def test_thin_bisection_pinned_at_four(self):
        net = thin_fractahedron(3, fanout_width=2)
        half = net.num_end_nodes // 2
        assert bisection_of_partition(net, [f"n{i}" for i in range(half)]) == 4

    @pytest.mark.parametrize("levels,expected", [(1, 4), (2, 16), (3, 64)])
    def test_fat_bisection_grows_4_to_the_n(self, levels, expected):
        net = fat_fractahedron(levels, fanout_width=2)
        half = net.num_end_nodes // 2
        assert bisection_of_partition(net, [f"n{i}" for i in range(half)]) == expected


class TestParamBounds:
    @pytest.mark.parametrize("levels", [0, -1, MAX_LEVELS + 1])
    def test_depth_out_of_range(self, levels):
        with pytest.raises(ValueError, match="supported depth range"):
            FractaParams(levels)

    @pytest.mark.parametrize("width", [0, 6, -2])
    def test_fanout_width_must_fit_the_radix(self, width):
        with pytest.raises(ValueError, match="fan-out router"):
            FractaParams(2, fanout_width=width)

    def test_max_depth_still_constructs(self):
        params = FractaParams(MAX_LEVELS, fanout_width=2)
        assert params.num_nodes == 2 * 8**MAX_LEVELS

    def test_generalized_node_cap(self):
        with pytest.raises(ValueError, match="supported maximum"):
            GeneralFractaParams(
                levels=8, assembly_size=4, router_radix=6, fanout_width=5
            )
        # the error names the remedy
        with pytest.raises(ValueError, match="reduce levels"):
            GeneralFractaParams(
                levels=8, assembly_size=4, router_radix=6, fanout_width=5
            )
        assert MAX_END_NODES == 1 << 17

    def test_describe_shows_depth_range(self, capsys):
        from repro.cli import main

        assert main(["topologies", "--describe", "fat_fractahedron"]) == 0
        out = capsys.readouterr().out
        assert "1..5" in out


class TestIndicesCache:
    def test_incremental_growth_matches_fresh_rebuild(self):
        net = fat_fractahedron(1)
        idx1 = net.indices()
        net.add_router("X", 6)
        net.add_end_node("nX")
        net.connect("X", 0, "nX", 0)
        idx2 = net.indices()
        assert idx2.version == net.version
        # append-only: old prefix preserved, new ids appended in order
        assert idx2.router_ids[: len(idx1.router_ids)] == idx1.router_ids
        assert idx2.router_ids[-1] == "X"
        assert idx2.end_ids[-1] == "nX"
        assert idx2.router_index["X"] == len(idx2.router_ids) - 1
        # link ids stay globally sorted, exactly like a fresh rebuild
        assert list(idx2.link_ids) == sorted(l.link_id for l in net.links())
        assert idx2.link_index[idx2.link_ids[0]] == 0

    def test_disconnect_invalidates(self):
        net = fat_fractahedron(1)
        idx1 = net.indices()
        victim = next(iter(net.router_links()))
        net.disconnect(victim.link_id)
        idx2 = net.indices()
        assert idx2.version == net.version != idx1.version
        assert victim.link_id not in idx2.link_index
        assert len(idx2.link_ids) == len(idx1.link_ids) - 2

    def test_remove_node_invalidates(self):
        net = fat_fractahedron(1)
        end = net.end_node_ids()[0]
        net.remove_node(end)
        idx = net.indices()
        assert end not in idx.end_index
        assert end not in idx.end_ids
        assert len(idx.end_ids) == net.num_end_nodes

    def test_regrow_after_destructive_change(self):
        net = fat_fractahedron(1)
        end = net.end_node_ids()[0]
        router = net.attached_router(end)
        link = next(l for l in net.out_links(end))
        net.remove_node(end)
        net.indices()
        net.add_end_node(end)
        net.connect(end, 0, router, link.dst_port)
        idx = net.indices()
        assert idx.version == net.version
        assert end in idx.end_index
        assert list(idx.link_ids) == sorted(l.link_id for l in net.links())
