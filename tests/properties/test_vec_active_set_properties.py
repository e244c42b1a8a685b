"""Property: both active-set step disciplines match the reference engine.

The vectorized core keeps two step disciplines, picked by width against
``vec.ACTIVE_SCAN_MAX``: *scan* (occupied/armed sets re-derived by
full-width boolean scans each cycle) and *index* (compressed index arrays
maintained incrementally).  Patching the crossover pins either one on
this small mesh.  Both must produce, for every replica, the field-complete
``stats_signature`` -- every counter, every latency sample, every
per-packet stamp -- of the reference interpreter run alone on the same
stream, whatever the occupancy pattern (bursty explicit schedules,
uniform plans, silence), batch size, idle window (which exercises the
fast-forward path the active sets key), VC count or buffer depth.
"""

import sys
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.parity import stats_signature
from repro.routing.cache import cached_tables
from repro.sim.api import make_sim
from repro.sim.engine import SimConfig
from repro.sim import vec
from repro.sim.traffic import explicit_traffic
from repro.sim.vec import UniformPlan, VecCore
from repro.topology.mesh import mesh

NET = mesh((3, 3), nodes_per_router=1)
TABLES = cached_tables(NET)
ENDS = NET.end_node_ids()
CFG = SimConfig(raise_on_deadlock=False, stall_threshold=400)
#: ACTIVE_SCAN_MAX values that pin each step discipline at any width
MODES = {"index": 0, "scan": sys.maxsize}


class _Shaped:
    """Minimal sim-shaped view over (stats, packets) for stats_signature."""

    def __init__(self, stats, packets):
        self.stats, self.packets = stats, packets


def _make_stream(spec):
    """A factory returning a fresh, identical stream per invocation.

    Generators are stateful, so each core must consume its own copy;
    plans are frozen recipes and can be shared as-is.
    """
    if isinstance(spec, tuple):  # (rate, size, seed) -> uniform plan
        rate, size, seed = spec
        plan = UniformPlan(rate, size, seed)
        return lambda: plan
    schedule = [(c, ENDS[s], ENDS[d], n) for c, s, d, n in spec if s != d]
    return lambda: explicit_traffic(schedule)


def _reference_signatures(factories, cycles, drain, cfg):
    """The oracle: each replica's stream run alone on the reference engine."""
    out = []
    for factory in factories:
        stream = factory()
        if isinstance(stream, UniformPlan):
            stream = stream.build(NET)
        sim = make_sim(NET, TABLES, stream, replace(cfg, engine="reference"))
        sim.run(cycles, drain=drain)
        sim.finalize()
        out.append(stats_signature(sim))
    return out


def _signatures(factories, cycles, drain, cfg, mode):
    with mock.patch.object(vec, "ACTIVE_SCAN_MAX", MODES[mode]):
        core = VecCore(NET, TABLES, [f() for f in factories], cfg)
    assert core._scan == (mode == "scan")
    core.run(cycles, drain=drain)
    core.finalize()
    return [
        stats_signature(_Shaped(core.stats_of(b), core.packets_of(b)))
        for b in range(len(factories))
    ]


# Bursty explicit schedules: injection cycles up to 120 against runs as
# short as 10 cycles leave long silent stretches on both sides, driving
# occupancy from zero to hot-spot contention and back.
_events = st.lists(
    st.tuples(
        st.integers(0, 120),
        st.integers(0, len(ENDS) - 1),
        st.integers(0, len(ENDS) - 1),
        st.integers(1, 5),
    ),
    max_size=24,
)

_plan = st.tuples(
    st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    st.integers(1, 5),
    st.integers(0, 999),
)

_replica = st.one_of(_events, _plan)


@settings(deadline=None, max_examples=20)
@given(
    specs=st.lists(_replica, min_size=1, max_size=4),
    cycles=st.integers(10, 200),
    drain=st.booleans(),
    vc_count=st.sampled_from([1, 2]),
    buffer_depth=st.integers(1, 4),
)
def test_active_set_bit_identical_to_reference(specs, cycles, drain, vc_count, buffer_depth):
    # depth 3 pads the FIFO ring to 4 slots; depth 1 is the one-slot FIFO
    cfg = replace(CFG, vc_count=vc_count, buffer_depth=buffer_depth)
    factories = [_make_stream(s) for s in specs]
    reference = _reference_signatures(factories, cycles, drain, cfg)
    index = _signatures(factories, cycles, drain, cfg, "index")
    scan = _signatures(factories, cycles, drain, cfg, "scan")
    assert index == reference
    assert scan == reference
