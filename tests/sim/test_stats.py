"""Unit tests for SimStats: the numpy latency accumulator and shard merge."""

import numpy as np
import pytest

from repro.sim.stats import LatencySeries, SimStats


class TestLatencySeries:
    def test_list_ergonomics(self):
        s = LatencySeries()
        assert not s and len(s) == 0
        for v in (5, 3, 9):
            s.append(v)
        assert s and len(s) == 3
        assert list(s) == [5, 3, 9]
        assert s[0] == 5 and s[-1] == 9
        assert s[1:] == [3, 9]
        assert s == [5, 3, 9] and s == (5, 3, 9)
        assert s != [5, 3]
        assert isinstance(s[0], int) and isinstance(next(iter(s)), int)

    def test_growth_past_initial_capacity(self):
        s = LatencySeries()
        s.extend(range(1000))
        assert len(s) == 1000
        assert list(s) == list(range(1000))
        s.append(1000)
        assert s[1000] == 1000

    def test_extend_from_series_and_equality(self):
        a = LatencySeries([1, 2])
        b = LatencySeries()
        b.extend(a)
        b.extend([3])
        assert b == [1, 2, 3]
        assert LatencySeries([1, 2]) == LatencySeries([1, 2])
        assert LatencySeries([1, 2]) != LatencySeries([2, 1])

    def test_numpy_reductions_zero_copy(self):
        s = LatencySeries([4, 6, 8])
        assert float(np.mean(s)) == 6.0
        assert float(np.percentile(s, 99)) == pytest.approx(7.96)
        assert s.to_array().dtype == np.int64

    def test_stats_properties_match_list_semantics(self):
        stats = SimStats()
        assert np.isnan(stats.avg_latency) and np.isnan(stats.p99_latency)
        assert stats.max_latency == 0
        for v in (10, 20, 60):
            stats.latencies.append(v)
        assert stats.avg_latency == 30.0
        assert stats.p99_latency == float(np.percentile([10, 20, 60], 99))
        assert stats.max_latency == 60


class TestMerge:
    def test_counters_distributions_and_extrema(self):
        a = SimStats(
            cycles=100,
            packets_offered=5,
            packets_delivered=4,
            flits_moved=40,
            flits_delivered=30,
            peak_occupied_buffers=3,
        )
        a.latencies.extend([10, 12])
        a.link_flits = {"l0": 7, "l1": 1}
        b = SimStats(
            cycles=80,
            packets_offered=2,
            packets_delivered=2,
            flits_moved=16,
            flits_delivered=16,
            peak_occupied_buffers=5,
        )
        b.latencies.extend([9])
        b.link_flits = {"l1": 2, "l2": 4}
        out = a.merge(b)
        assert out is a
        assert a.cycles == 100 and a.peak_occupied_buffers == 5
        assert a.packets_offered == 7 and a.packets_delivered == 6
        assert a.flits_moved == 56 and a.flits_delivered == 46
        assert a.latencies == [10, 12, 9]
        assert a.link_flits == {"l0": 7, "l1": 3, "l2": 4}

    def test_deadlock_adopted_only_when_absent(self):
        a = SimStats()
        b = SimStats(deadlock_cycle=["c1", "c2"], deadlock_at=50)
        a.merge(b)
        assert a.deadlock_cycle == ["c1", "c2"] and a.deadlock_at == 50
        c = SimStats(deadlock_cycle=["other"], deadlock_at=99)
        a.merge(c)
        assert a.deadlock_cycle == ["c1", "c2"] and a.deadlock_at == 50

    def test_earliest_deadlock_wins_regardless_of_merge_order(self):
        # folding shard 99 before shard 50 must still keep cycle 50: the
        # merged record reports the *first* deadlock of the combined run
        a = SimStats(deadlock_cycle=["late"], deadlock_at=99)
        a.merge(SimStats(deadlock_cycle=["early"], deadlock_at=50))
        assert a.deadlock_cycle == ["early"] and a.deadlock_at == 50

    def test_stamped_deadlock_never_replaced_by_unstamped(self):
        a = SimStats(deadlock_cycle=["c"], deadlock_at=50)
        a.merge(SimStats(deadlock_cycle=["nostamp"], deadlock_at=None))
        assert a.deadlock_cycle == ["c"] and a.deadlock_at == 50

    def test_recovery_counters_and_series(self):
        a = SimStats(packets_retried=1, table_swaps=1)
        a.failover_latencies.append(30)
        a.reconvergence_cycles.append(64)
        b = SimStats(packets_retried=2, packets_dropped=1, table_swaps=2)
        b.failover_latencies.extend([40, 50])
        b.reconvergence_cycles.extend([70, 80])
        a.merge(b)
        assert a.packets_retried == 3 and a.packets_dropped == 1
        assert a.table_swaps == 3
        assert a.failover_latencies == [30, 40, 50]
        assert a.reconvergence_cycles == [64, 70, 80]

    def test_merge_deadlock_fold_is_order_independent(self):
        # property: for any set of shards, folding in any order yields the
        # same (earliest) deadlock record -- the invariant SweepRunner
        # shard aggregation depends on (shards complete in any order)
        from hypothesis import given, strategies as st

        @given(st.data())
        def check(data):
            ats = data.draw(
                st.lists(
                    st.one_of(st.none(), st.integers(0, 1000)),
                    min_size=1,
                    max_size=6,
                    unique=True,
                )
            )

            def fold(order):
                out = SimStats()
                for i in order:
                    shard = SimStats(
                        deadlock_cycle=None if ats[i] is None else [f"c{i}"],
                        deadlock_at=ats[i],
                    )
                    out.merge(shard)
                return out.deadlock_at, out.deadlock_cycle

            base = fold(range(len(ats)))
            assert fold(data.draw(st.permutations(range(len(ats))))) == base
            stamped = [a for a in ats if a is not None]
            assert base[0] == (min(stamped) if stamped else None)

        check()

    def test_merge_of_real_shards_matches_combined_totals(self):
        # shard a workload by splitting its traffic over two sims; merged
        # stats must add up to the combined totals for additive counters
        from repro.routing.cache import cached_tables
        from repro.sim.engine import SimConfig
        from repro.sim.api import make_sim
        from repro.sim.traffic import explicit_traffic
        from repro.topology.mesh import mesh

        net = mesh((3, 3), nodes_per_router=1)
        tables = cached_tables(net)
        ends = net.end_node_ids()
        pairs = [(i, ends[i], ends[(i + 4) % len(ends)], 4) for i in range(6)]

        def run(schedule):
            sim = make_sim(
                net, tables, explicit_traffic(schedule), SimConfig()
            )
            return sim.run(300, drain=True)

        merged = run(pairs[:3]).merge(run(pairs[3:]))
        whole = run(pairs)
        assert merged.packets_delivered == whole.packets_delivered
        assert merged.flits_delivered == whole.flits_delivered
        assert sorted(merged.latencies) == sorted(whole.latencies)
        assert sum(merged.link_flits.values()) == sum(whole.link_flits.values())
