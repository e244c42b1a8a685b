"""The vectorized struct-of-arrays engine: bit-identical to the
reference interpreter at batch=1 (field-complete signature parity),
bit-identical per replica when batched, and statistically equivalent in
aggregate."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fractahedron import fat_fractahedron
from repro.obs.parity import assert_counter_parity, compare_signatures, stats_signature
from repro.routing.cache import cached_tables
from repro.sim.api import make_sim
from repro.sim.engine import DeadlockDetected, SimConfig
from repro.sim.traffic import explicit_traffic, pairs_traffic, uniform_traffic
from repro.sim.vec import (
    DEST_SHIFT,
    MAX_ENDS,
    MAX_PID,
    MAX_SIZE,
    PID_SHIFT,
    SIZE_SHIFT,
    UniformPlan,
    VecCore,
    VecSim,
    _fires,
    _group_by_key,
    _is_tail,
)
from repro.topology.mesh import mesh

CFG = SimConfig(raise_on_deadlock=False, stall_threshold=400)
ENGINES = ("reference", "compiled", "vectorized")


class _Shaped:
    """Minimal sim-shaped view over (stats, packets) for stats_signature."""

    def __init__(self, stats, packets):
        self.stats, self.packets = stats, packets


@pytest.fixture(scope="module")
def grid():
    net = mesh((3, 3), nodes_per_router=1)
    return net, cached_tables(net)


@pytest.fixture(scope="module")
def fracta():
    net = fat_fractahedron(1)
    return net, cached_tables(net)


class TestBatchOneParity:
    @pytest.mark.parametrize("rate", [0.02, 0.08, 0.2])
    def test_uniform_parity_all_engines(self, grid, rate):
        net, tables = grid
        sig = assert_counter_parity(
            net,
            tables,
            lambda: uniform_traffic(net.end_node_ids(), rate, 4, 1996),
            CFG,
            cycles=300,
            drain=True,
            engines=ENGINES,
        )
        assert sig["packets_delivered"] > 0

    def test_uniform_plan_fast_path_matches_generator(self, grid):
        """The pre-generated array arrival path must consume the PCG64
        stream exactly like the per-cycle generator."""
        net, tables = grid
        ref = make_sim(
            net, tables, uniform_traffic(net.end_node_ids(), 0.1, 4, 1996), CFG
        )
        ref.run(300, drain=True)
        ref.finalize()
        vec = VecSim(net, tables, UniformPlan(0.1, 4, 1996), CFG)
        vec.run(300, drain=True)
        vec.finalize()
        assert compare_signatures(stats_signature(ref), stats_signature(vec)) == []

    def test_adversarial_explicit_traffic(self, fracta):
        net, tables = fracta
        ends = net.end_node_ids()
        sched = []
        for burst in range(6):
            c = burst * 20
            for i, src in enumerate(ends):
                dst = ends[(i + len(ends) // 2) % len(ends)]
                if dst != src:
                    sched.append((c + 3, src, dst, 5))
                if src != ends[0]:
                    sched.append((c, src, ends[0], 5))
        sig = assert_counter_parity(
            net,
            tables,
            lambda: explicit_traffic(list(sched)),
            SimConfig(raise_on_deadlock=False, stall_threshold=64),
            cycles=300,
            drain=False,
            engines=ENGINES,
        )
        assert sig["cycles"] == 300

    def test_virtual_channels(self, grid):
        net, tables = grid
        assert_counter_parity(
            net,
            tables,
            lambda: uniform_traffic(net.end_node_ids(), 0.1, 4, 7),
            SimConfig(vc_count=2, raise_on_deadlock=False, stall_threshold=400),
            cycles=300,
            drain=True,
            engines=ENGINES,
        )


class TestDeadlockParity:
    def test_recorded_deadlock_matches(self):
        from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern

        net = build()
        tables = clockwise_tables(net)
        cfg = SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=16)
        assert_counter_parity(
            net,
            tables,
            lambda: pairs_traffic(figure1_pattern(net), 16),
            cfg,
            cycles=400,
            drain=True,
            engines=ENGINES,
        )

    def test_raised_deadlock_is_identical(self):
        from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern

        net = build()
        tables = clockwise_tables(net)
        cfg = SimConfig(buffer_depth=2, raise_on_deadlock=True, stall_threshold=16)
        with pytest.raises(DeadlockDetected) as ref_exc:
            make_sim(
                net, tables, pairs_traffic(figure1_pattern(net), 16), cfg
            ).run(400)
        with pytest.raises(DeadlockDetected) as vec_exc:
            VecSim(
                net, tables, pairs_traffic(figure1_pattern(net), 16), cfg
            ).run(400)
        assert str(vec_exc.value) == str(ref_exc.value)
        assert vec_exc.value.at_cycle == ref_exc.value.at_cycle


class TestBatchedReplicas:
    def test_each_replica_bit_identical_to_independent_run(self, fracta):
        net, tables = fracta
        plans = [UniformPlan(0.02 + 0.02 * i, 8, 100 + i) for i in range(8)]
        core = VecCore(net, tables, plans, CFG)
        core.run(400, drain=True)
        for b, plan in enumerate(plans):
            solo = make_sim(
                net,
                tables,
                uniform_traffic(net.end_node_ids(), plan.rate, 8, plan.seed),
                CFG,
            )
            solo.run(400, drain=True)
            solo.finalize()
            diffs = compare_signatures(
                stats_signature(solo),
                stats_signature(_Shaped(core.stats_of(b), core.packets_of(b))),
                labels=("independent", f"replica[{b}]"),
            )
            assert diffs == []

    def test_batch_statistics_match_independent_population(self, grid):
        """B=8 same-rate replicas (different seeds) must agree with 8
        independent runs in aggregate, not just per replica."""
        net, tables = grid
        plans = [UniformPlan(0.06, 4, 500 + i) for i in range(8)]
        core = VecCore(net, tables, plans, CFG)
        batch = core.run(400, drain=True)
        solo_delivered, solo_latency = [], []
        for plan in plans:
            sim = make_sim(
                net,
                tables,
                uniform_traffic(net.end_node_ids(), plan.rate, 4, plan.seed),
                CFG,
            )
            stats = sim.run(400, drain=True)
            sim.finalize()
            solo_delivered.append(stats.packets_delivered)
            solo_latency.append(np.mean(stats.latencies))
        assert [s.packets_delivered for s in batch] == solo_delivered
        batch_latency = [float(np.mean(s.latencies)) for s in batch]
        assert batch_latency == pytest.approx([float(x) for x in solo_latency])
        assert float(np.mean(batch_latency)) == pytest.approx(
            float(np.mean(solo_latency))
        )

    def test_incremental_run_and_cycle_accounting(self, grid):
        net, tables = grid
        core = VecCore(net, tables, [UniformPlan(0.05, 4, 1), UniformPlan(0.05, 4, 2)], CFG)
        core.run(100)
        assert core.cycle_of(0) == 100 and core.cycle_of(1) == 100
        stats = core.run(100)
        assert all(s.cycles == 200 for s in stats)


class TestRawUniformGate:
    """The fast-path probe may only swallow *expected* failure shapes."""

    @pytest.fixture(autouse=True)
    def _reset_gate(self):
        from repro.sim import vec

        saved = vec._RAW_UNIFORM_OK
        vec._RAW_UNIFORM_OK = None
        yield
        vec._RAW_UNIFORM_OK = saved

    def test_expected_probe_failures_disable_fast_path(self, monkeypatch):
        from repro.sim import vec

        def broken_probe():
            raise AttributeError("no PCG64 state dict on this build")

        monkeypatch.setattr(vec, "_check_raw_uniform", broken_probe)
        assert vec._raw_uniform_ok() is False
        # the verdict is cached: the probe does not run again
        monkeypatch.setattr(vec, "_check_raw_uniform", lambda: True)
        assert vec._raw_uniform_ok() is False

    def test_real_errors_propagate(self, monkeypatch):
        from repro.sim import vec

        def crashing_probe():
            raise RuntimeError("genuine kernel bug")

        monkeypatch.setattr(vec, "_check_raw_uniform", crashing_probe)
        with pytest.raises(RuntimeError, match="genuine kernel bug"):
            vec._raw_uniform_ok()

    def test_healthy_probe_enables_fast_path(self):
        from repro.sim import vec

        assert vec._raw_uniform_ok() is True

    def test_threshold_mismatch_disables_fast_path(self, grid, monkeypatch):
        """A build where the integer compare picks other words than
        random() < rate loses the fast path; traffic stays the same."""
        from repro.sim import vec

        monkeypatch.setattr(
            vec, "_fires", lambda raw, rate: raw < np.uint64(int(rate * 2**53) << 10)
        )
        assert vec._raw_uniform_ok() is False
        net, tables = grid
        ref = make_sim(
            net, tables, uniform_traffic(net.end_node_ids(), 0.1, 4, 1996), CFG
        )
        ref.run(200, drain=True)
        ref.finalize()
        sim = VecSim(net, tables, UniformPlan(0.1, 4, 1996), CFG)
        sim.run(200, drain=True)
        sim.finalize()
        assert compare_signatures(stats_signature(ref), stats_signature(sim)) == []


def _float_fires(raw, rate):
    """Generator.random()'s double for each raw word, compared with rate."""
    return ((raw >> np.uint64(11)) * 2.0**-53) < rate


def boundary_words(rate):
    """Raw words on both sides of the integer threshold for ``rate``:
    the last word below it, the first at it, the last sharing its high 53
    bits, and the first word of the preceding double."""
    c = int(np.ceil(rate * 2.0**53))
    words = [(c << 11) - 1, c << 11, (c << 11) + 2047, (c - 1) << 11]
    return np.array([w for w in words if 0 <= w < 1 << 64], dtype=np.uint64)


class TestFiresThreshold:
    """``_fires``' integer threshold equals the float compare exactly."""

    @pytest.mark.parametrize(
        "rate",
        [0.0, 2.0**-53, 1 - 2.0**-53, 1.0, 0.5, 0.25, 3 * 2.0**-53,
         12345 * 2.0**-53, 0.002, 0.4, 0.1, 1 / 3],
    )
    def test_boundary_and_random_words(self, rate):
        words = np.concatenate(
            [
                boundary_words(rate),
                np.random.default_rng(5).bit_generator.random_raw(4096),
                np.array([0, 2047, 2048, (1 << 64) - 1], dtype=np.uint64),
            ]
        )
        assert np.array_equal(_fires(words, rate), _float_fires(words, rate))

    def test_boundary_words_straddle_the_threshold(self):
        # 0.1 is not a multiple of 2**-53: the threshold is its ceiling
        fired = _fires(boundary_words(0.1), 0.1).tolist()
        assert fired == [True, False, False, True]


class TestPlanValidation:
    """UniformPlan refuses the rates uniform_traffic refuses, where the
    plan is made, so every engine fails the same way."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("rate", [1.5, -0.1, float("nan")])
    def test_rate_outside_unit_interval(self, grid, engine, rate):
        net, tables = grid
        with pytest.raises(ValueError, match=r"rate must be in \[0, 1\]"):
            sim = make_sim(
                net, tables, UniformPlan(rate, 4, 1), replace(CFG, engine=engine)
            )
            sim.run(50)
        # the generator every other engine draws from says the same
        with pytest.raises(ValueError, match=r"rate must be in \[0, 1\]"):
            uniform_traffic(net.end_node_ids(), rate, 4, 1)

    def test_packet_size_below_one(self):
        with pytest.raises(ValueError, match="at least one flit"):
            UniformPlan(0.1, 0, 1)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_unit_interval_ends_are_accepted(self, rate):
        assert UniformPlan(rate, 1, 1).rate == rate


class TestGroupByKey:
    """The allocate phase groups free-output head requests by output with
    one composite (key, position) value sort; the order must be the stable
    argsort's, at every width the core can choose."""

    @settings(deadline=None, max_examples=200)
    @given(
        keys=st.lists(st.integers(0, 2**31 - 2), min_size=1, max_size=64),
        spread=st.sampled_from([1, 3, 2**31 - 1]),
        slack=st.integers(0, 8),
    )
    def test_matches_stable_argsort(self, keys, spread, slack):
        keys = np.array(keys, dtype=np.int64) % spread
        # the tightest width any core can pick for this many requests
        # (positions fill the field up to its top value), and wider ones
        bits = len(keys).bit_length() + slack
        order, starts, gkeys = _group_by_key(keys, bits)
        want = np.argsort(keys, kind="stable")
        assert np.array_equal(order, want)
        sk = keys[want]
        assert np.array_equal(starts, np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]]))
        assert np.array_equal(gkeys, np.unique(keys))

    def test_widest_key_and_position_fit_62_bits(self):
        keys = np.array([2**31 - 2, 5, 2**31 - 2, 0], dtype=np.int64)
        order, starts, gkeys = _group_by_key(keys, 31)
        assert order.tolist() == [3, 1, 0, 2]
        assert starts.tolist() == [0, 1, 2]
        assert gkeys.tolist() == [0, 5, 2**31 - 2]

    @pytest.mark.parametrize("replicas", [1, 3, 40])
    def test_core_width_covers_every_request(self, grid, replicas):
        net, tables = grid
        core = VecCore(net, tables, [UniformPlan(0.1, 2, s) for s in range(replicas)], CFG)
        # at most one request per (replica, channel), and keys below B*C
        assert core.B * core.C < 1 << core._gbits
        assert core._gbits + (core.B * core.C - 1).bit_length() <= 62


@settings(deadline=None, max_examples=200)
@given(
    pid=st.integers(0, MAX_PID),
    dest=st.integers(0, MAX_ENDS),
    size=st.integers(1, MAX_SIZE),
    data=st.data(),
)
def test_tail_test_matches_decoded_fields(pid, dest, size, data):
    index = data.draw(st.integers(0, size - 1))
    code = (pid << PID_SHIFT) | (dest << DEST_SHIFT) | (size << SIZE_SHIFT) | index
    assert bool(_is_tail(np.array([code], dtype=np.int64))[0]) == (index == size - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 3), st.sampled_from([1, 2]))
def test_in_order_replay_matches_the_sinks(seed, replicas, size):
    """``_violations`` reports what ``SinkState`` would, sink by sink in
    delivery order.  Sequence stamps are scrambled within each (source,
    destination) pair after the run, so most pairs deliver out of order."""
    from repro.sim.nic import SinkState
    from repro.sim.packet import Packet

    net = mesh((3, 3), nodes_per_router=1)
    plans = [UniformPlan(0.3, size, seed + b) for b in range(replicas)]
    core = VecCore(net, cached_tables(net), plans, CFG)
    core.run(120, drain=True)
    rng = np.random.default_rng(seed)
    ends = core._cn.end_ids
    for b in range(replicas):
        seq = core._pseq[b]
        seq[:] = rng.integers(0, 4, size=seq.size)  # ties count as violations too
        sinks = {e: SinkState(e) for e in ends}
        for pid in core._delivery_order()[b].tolist():
            src, dst = ends[core._psrc[b, pid]], ends[core._pdst[b, pid]]
            packet = Packet(pid, src, dst, size, created=0, sequence=int(seq[pid]))
            sinks[dst].deliver(packet, int(core._pdel[b, pid]))
        expected = [v for e in ends for v in sinks[e].violations]
        assert expected
        assert core._violations(b) == expected
