"""Property: windowed traffic pre-generation is bit-identical.

``VecCore.run`` materializes arrivals one window of
``max(1, BUDGET // sources)`` cycles at a time.  With ``BUDGET`` shrunk to
a few cycles per window, every traffic path and run shape must still give
the field-complete ``stats_signature`` of a single-window run and of the
compiled engine run alone on the same stream: the raw-PCG64 uniform path,
generator traffic (``_pregen_generic``), batches whose replicas freeze at
different cycles, idle stretches that fast-forward onto window edges, and
chained ``run`` calls followed by a drain.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.vec as vec
from repro.experiments.fig1_deadlock import build, clockwise_tables
from repro.obs.parity import stats_signature
from repro.routing.cache import cached_tables
from repro.sim.api import make_sim
from repro.sim.engine import SimConfig
from repro.sim.traffic import explicit_traffic
from repro.sim.vec import UniformPlan, VecCore
from repro.topology.mesh import mesh

NET = mesh((3, 3), nodes_per_router=1)
TABLES = cached_tables(NET)
ENDS = NET.end_node_ids()
CFG = SimConfig(raise_on_deadlock=False, stall_threshold=400)

#: The Figure 1 square routed one way round the loop, with long worms in
#: shallow buffers: each replica deadlocks at its own cycle.
LOOP_NET = build()
LOOP_TABLES = clockwise_tables(LOOP_NET)
LOOP_CFG = SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=16)


class _Shaped:
    """Minimal sim-shaped view over (stats, packets) for stats_signature."""

    def __init__(self, stats, packets):
        self.stats, self.packets = stats, packets


def _core_signatures(net, tables, factories, runs, drain, per_window=None, cfg=CFG):
    """Run one core over ``runs`` chained ``run`` calls; ``per_window``
    cycles per pre-generation window (None: the shipped budget).  Also
    returns how many windows were generated."""
    windows = []
    with pytest.MonkeyPatch.context() as mp:
        if per_window is not None:
            sources = net.num_end_nodes
            mp.setattr(vec, "BUDGET", per_window * sources)
        core = VecCore(net, tables, [f() for f in factories], cfg)
        pregen = core._pregen_to

        def spy(stop):
            windows.append(stop)
            pregen(stop)

        mp.setattr(core, "_pregen_to", spy)
        for i, n in enumerate(runs):
            core.run(n, drain=drain and i == len(runs) - 1)
        core.finalize()
    sigs = [
        stats_signature(_Shaped(core.stats_of(b), core.packets_of(b)))
        for b in range(len(factories))
    ]
    return sigs, len(windows)


def _compiled_signatures(net, tables, factories, runs, drain, cfg=CFG):
    out = []
    for factory in factories:
        stream = factory()
        if isinstance(stream, UniformPlan):
            stream = stream.build(net)
        sim = make_sim(net, tables, stream, replace(cfg, engine="compiled"))
        for i, n in enumerate(runs):
            sim.run(n, drain=drain and i == len(runs) - 1)
        sim.finalize()
        out.append(stats_signature(sim))
    return out


def assert_windowing_invisible(net, tables, factories, runs, drain, per_window, cfg=CFG):
    args = (net, tables, factories, runs, drain)
    windowed, n_windows = _core_signatures(*args, per_window, cfg)
    assert windowed == _core_signatures(*args, None, cfg)[0]
    assert windowed == _compiled_signatures(*args, cfg)
    return n_windows


def _plan(rate, size, seed):
    plan = UniformPlan(rate, size, seed)
    return lambda: plan


def _generator(rate, size, seed):
    plan = UniformPlan(rate, size, seed)
    return lambda: plan.build(NET)


@settings(deadline=None, max_examples=10)
@given(
    rate=st.sampled_from([0.02, 0.1, 0.3]),
    seed=st.integers(0, 999),
    per_window=st.integers(1, 7),
)
def test_uniform_plan_raw_path(rate, seed, per_window):
    n = assert_windowing_invisible(
        NET, TABLES, [_plan(rate, 3, seed)], [150], False, per_window
    )
    assert n == -(-150 // per_window)


@settings(deadline=None, max_examples=10)
@given(
    rate=st.sampled_from([0.02, 0.1]),
    seed=st.integers(0, 999),
    per_window=st.integers(1, 7),
)
def test_generator_traffic(rate, seed, per_window):
    assert_windowing_invisible(
        NET, TABLES, [_generator(rate, 2, seed)], [120], False, per_window
    )


def test_explicit_schedule_with_silent_stretches():
    schedule = [(3, ENDS[0], ENDS[8], 4), (4, ENDS[8], ENDS[0], 2), (97, ENDS[2], ENDS[6], 5)]
    assert_windowing_invisible(
        NET, TABLES, [lambda: explicit_traffic(schedule)], [130], True, 4
    )


def test_batch_replicas_freeze_at_different_cycles():
    factories = [_plan(0.05, 16, seed) for seed in (1, 2, 3, 4)]
    assert_windowing_invisible(LOOP_NET, LOOP_TABLES, factories, [200], False, 3, LOOP_CFG)
    core = VecCore(LOOP_NET, LOOP_TABLES, [f() for f in factories], LOOP_CFG)
    core.run(200)
    frozen = [core.stats_of(b).deadlock_at for b in range(len(factories))]
    assert None not in frozen and len(set(frozen)) > 1, frozen


def test_low_rate_fast_forwards_onto_window_edges():
    # ~one arrival per 55 cycles across the fabric: nearly every window
    # is idle, so fast-forward jumps end on window edges
    n = assert_windowing_invisible(
        NET, TABLES, [_plan(0.002, 2, 11), _plan(0.002, 2, 12)], [2000], False, 5
    )
    assert n == 400


def test_chained_runs_then_drain():
    factories = [_plan(0.15, 3, 5), _generator(0.1, 2, 6)]
    assert_windowing_invisible(NET, TABLES, factories, [37, 1, 90, 25], True, 6)


def test_rate_one_chained_windows():
    # every source fires every cycle: the replay's threshold would pass
    # 2**64, so every raw word fires, and no window may lose a draw
    n = assert_windowing_invisible(NET, TABLES, [_plan(1.0, 2, 9)], [23, 1, 40], False, 3)
    assert n > 3


@pytest.mark.parametrize("runs", [[600], [250, 1, 349]])
def test_admission_memo_keeps_only_pending_cycles(runs):
    """Each admission slice is popped when its cycle is admitted, and each
    window drops the passed cycles, so after a long run the memos hold only
    what is not yet admitted instead of one entry per admission cycle."""
    per_window = 7
    factories = [_plan(0.1, 3, 21), _plan(0.05, 2, 22)]
    args = (NET, TABLES, factories, runs, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vec, "BUDGET", per_window * NET.num_end_nodes)
        core = VecCore(NET, TABLES, [f() for f in factories], CFG)
        admitted: list[int] = []
        window_starts: list[int] = []
        admit, consolidate = core._admit, core._consolidate_adm

        def spy_admit(ev, act, all_alive):
            admitted.append(core._cycle)
            admit(ev, act, all_alive)

        def spy_consolidate():
            window_starts.append(core._cycle)
            consolidate()

        mp.setattr(core, "_admit", spy_admit)
        mp.setattr(core, "_consolidate_adm", spy_consolidate)
        for n in runs[:-1]:
            core.run(n)
            assert all(t >= core._cycle for t in core._adm_arrays)
        core.run(runs[-1])
    assert len(admitted) > 10 * per_window  # many windows' worth
    assert core._adm_arrays == {}  # every generated cycle was admitted
    assert core._adm_cycles.size <= per_window
    assert (core._adm_cycles >= window_starts[-1]).all()
    core.finalize()
    sigs = [
        stats_signature(_Shaped(core.stats_of(b), core.packets_of(b)))
        for b in range(len(factories))
    ]
    assert sigs == _core_signatures(*args, None)[0] == _compiled_signatures(*args)
