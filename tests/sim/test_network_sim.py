"""Unit and behaviour tests for the wormhole simulator."""

import pytest

from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.shortest_path import shortest_path_tables
from repro.sim.engine import DeadlockDetected, SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import pairs_traffic, uniform_traffic
from repro.topology.ring import ring


@pytest.fixture
def square():
    return build()


class TestBasicDelivery:
    def test_single_packet_delivery_and_latency(self, square):
        tables = dimension_order_tables(square)
        sim = make_sim(square, tables, pairs_traffic([("n0", "n3")], 4))
        stats = sim.run(100, drain=True)
        assert stats.packets_delivered == 1
        # the route covers 4 links (inject, 2 mesh hops, eject); the head
        # ejects at cycle 3 and the tail (3 flits behind) at cycle 6
        assert stats.latencies[0] == 4 + 4 - 2

    def test_payload_conservation(self, square):
        tables = dimension_order_tables(square)
        pattern = [("n0", "n3"), ("n1", "n2"), ("n2", "n0")]
        sim = make_sim(square, tables, pairs_traffic(pattern, 6))
        stats = sim.run(200, drain=True)
        assert stats.packets_delivered == 3
        assert stats.flits_delivered == 3 * 6

    def test_all_buffers_empty_after_drain(self, square):
        tables = dimension_order_tables(square)
        sim = make_sim(square, tables, pairs_traffic(figure1_pattern(square), 8))
        sim.run(200, drain=True)
        assert all(len(b) == 0 for b in sim.buffers.values())
        assert sim.in_flight == 0

    def test_in_order_delivery(self, square):
        tables = dimension_order_tables(square)
        traffic = uniform_traffic(square.end_node_ids(), rate=0.3, packet_size=3, seed=5)
        sim = make_sim(square, tables, traffic)
        sim.run(500, drain=True)
        stats = sim.finalize()
        assert stats.in_order_violations == []
        assert stats.packets_delivered == stats.packets_offered

    def test_deterministic_across_runs(self, square):
        tables = dimension_order_tables(square)

        def run_once():
            traffic = uniform_traffic(
                square.end_node_ids(), rate=0.4, packet_size=4, seed=11
            )
            sim = make_sim(square, tables, traffic)
            stats = sim.run(300, drain=True)
            return (stats.packets_delivered, stats.flits_moved, tuple(stats.latencies))

        assert run_once() == run_once()


class TestDeadlockBehaviour:
    def test_clockwise_square_deadlocks(self, square):
        sim = make_sim(
            square,
            clockwise_tables(square),
            pairs_traffic(figure1_pattern(square), 16),
            SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=16),
        )
        stats = sim.run(1000, drain=True)
        assert stats.deadlocked
        assert stats.deadlock_cycle
        assert stats.packets_delivered == 0

    def test_deadlock_raises_when_configured(self, square):
        sim = make_sim(
            square,
            clockwise_tables(square),
            pairs_traffic(figure1_pattern(square), 16),
            SimConfig(buffer_depth=2, raise_on_deadlock=True, stall_threshold=16),
        )
        with pytest.raises(DeadlockDetected) as exc:
            sim.run(1000)
        assert len(exc.value.cycle) >= 4

    def test_short_packets_may_survive_cyclic_routing(self, square):
        """Single-flit packets never hold two channels, so the cyclic
        routing cannot interlock them (store-and-forward behaviour)."""
        sim = make_sim(
            square,
            clockwise_tables(square),
            pairs_traffic(figure1_pattern(square), 1),
            SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=16),
        )
        stats = sim.run(500, drain=True)
        assert not stats.deadlocked
        assert stats.packets_delivered == 4


class TestVirtualChannels:
    def test_dateline_ring_is_deadlock_free(self):
        from repro.experiments.ablations import vc_ring_demo

        result = vc_ring_demo()
        assert result["single_vc_deadlocked"]
        assert not result["dateline_deadlocked"]
        assert result["dateline_delivered"] == 4
        assert result["buffer_cost_vc"] == 2 * result["buffer_cost_single"]

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_buffer_cost_counts_each_engines_fifos(self, engine):
        """The demo's engine-neutral buffer cost is the FIFO count an
        engine allocates, times the depth."""
        from repro.experiments.ablations import vc_ring_demo

        result = vc_ring_demo()
        net = ring(4, nodes_per_router=1)
        tables = shortest_path_tables(net)
        for key, vcs in (("buffer_cost_single", 1), ("buffer_cost_vc", 2)):
            cfg = SimConfig(buffer_depth=2, vc_count=vcs, engine=engine)
            sim = make_sim(net, tables, pairs_traffic([], 1), cfg)
            assert sim.engine == engine
            assert result[key] == len(sim.buffers) * cfg.buffer_depth


class TestFaults:
    def test_failed_link_blocks_traffic(self):
        from repro.sim.fault import FaultSchedule

        net = ring(4, nodes_per_router=1)
        tables = shortest_path_tables(net)
        # find the link the n0 -> n1 route uses and fail it
        from repro.routing.base import compute_route

        route = compute_route(net, tables, "n0", "n1")
        fault = FaultSchedule().fail_link(route.router_links[0], at_cycle=0)
        sim = make_sim(
            net,
            tables,
            pairs_traffic([("n0", "n1")], 4),
            SimConfig(raise_on_deadlock=False, stall_threshold=2000),
            fault=fault,
        )
        stats = sim.run(300, drain=False)
        assert stats.packets_delivered == 0

    def test_unaffected_traffic_still_flows(self):
        from repro.sim.fault import FaultSchedule
        from repro.routing.base import compute_route

        net = ring(4, nodes_per_router=1)
        tables = shortest_path_tables(net)
        bad = compute_route(net, tables, "n0", "n1").router_links
        good = compute_route(net, tables, "n2", "n3").router_links
        assert set(bad).isdisjoint(good)
        fault = FaultSchedule()
        for link in bad:
            fault.fail_link(link)
        sim = make_sim(
            net,
            tables,
            pairs_traffic([("n2", "n3")], 4),
            SimConfig(raise_on_deadlock=False, stall_threshold=2000),
            fault=fault,
        )
        stats = sim.run(300, drain=False)
        assert stats.packets_delivered == 1


class TestAccounting:
    def test_link_flit_counters(self, square):
        tables = dimension_order_tables(square)
        sim = make_sim(square, tables, pairs_traffic([("n0", "n3")], 4))
        sim.run(100, drain=True)
        # every link on the route carried exactly 4 flits
        from repro.routing.base import compute_route

        route = compute_route(square, tables, "n0", "n3")
        for link in route.links:
            assert sim.stats.link_flits.get(link, 0) == 4

    def test_backlog_property(self, square):
        tables = dimension_order_tables(square)
        sim = make_sim(square, tables, pairs_traffic([("n0", "n3")], 4))
        sim.step()
        assert sim.backlog in (0, 1)
