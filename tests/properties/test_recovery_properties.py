"""Property: fail/repair episodes run bit-identically on the compiled core
and a lone vectorized core.

Draws a fabric (4x4 mesh, fat fractahedron of 1 or 2 levels), k failed
cables with a permanent, fail-then-repair or flapping timeline, retry,
reroute and failover each on or off, and a load, then runs
:func:`~repro.sim.recovery.simulate_with_recovery` on both engines.  The
whole result row and the field-complete ``stats_signature`` of the run
must agree -- in both of the vectorized core's active-set disciplines.
"""

from __future__ import annotations

import math
from functools import cache
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.vec as vec
from repro.obs.parity import stats_signature
from repro.routing.cache import cached_tables
from repro.sim import api
from repro.sim.engine import RetryPolicy, ReroutePolicy
from repro.sim.fault import FaultSchedule
from repro.sim.recovery import simulate_with_recovery
from repro.topology.registry import build_topology

FABRICS = {
    "mesh4x4": ("mesh", {"shape": (4, 4), "nodes_per_router": 1}),
    "fracta1": ("fat_fractahedron", {"levels": 1}),
    "fracta2": ("fat_fractahedron", {"levels": 2}),
}


@cache
def fabric(name):
    topology, params = FABRICS[name]
    net = build_topology(topology, **params)
    return net, cached_tables(net)


@st.composite
def schedules(draw, net):
    """k distinct cables, each failing for good, failing then repairing,
    or flapping one or more times."""
    cables = net.router_links()
    picks = draw(
        st.lists(st.integers(0, len(cables) - 1), min_size=1, max_size=3, unique=True)
    )
    fault = FaultSchedule()
    for i in picks:
        link = cables[i].link_id
        down = draw(st.integers(0, 150))
        kind = draw(st.sampled_from(["fail", "repair", "flap"]))
        if kind == "fail":
            fault.fail_cable(net, link, down)
        elif kind == "repair":
            up = down + draw(st.integers(1, 150))
            fault.fail_cable(net, link, down).repair_cable(net, link, up)
        else:
            for _ in range(draw(st.integers(1, 3))):
                up = down + draw(st.integers(1, 40))
                fault.flap_cable(net, link, down, up)
                down = up + draw(st.integers(1, 40))
    return fault


@st.composite
def episodes(draw):
    name = draw(st.sampled_from(sorted(FABRICS)))
    net, _ = fabric(name)
    retry = draw(
        st.none()
        | st.builds(
            RetryPolicy,
            timeout=st.integers(12, 64),
            backoff=st.sampled_from([1.0, 2.0]),
            max_retries=st.integers(0, 3),
            resend_delay=st.integers(1, 4),
        )
    )
    reroute = draw(
        st.none()
        | st.builds(
            ReroutePolicy,
            detection_delay=st.integers(0, 16),
            reconvergence_delay=st.integers(0, 32),
        )
    )
    return dict(
        name=name,
        fault=draw(schedules(net)),
        retry=retry,
        reroute=reroute,
        failover=draw(st.booleans()),
        rate=draw(st.sampled_from([0.01, 0.03, 0.06, 0.1])),
        packet_size=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**16)),
        index=draw(st.booleans()),
    )


def _episode(engine, ep):
    """The row and the run's signature; the run's simulator is captured
    from the one ``make_sim`` call the episode makes."""
    built = []
    real = api.make_sim

    def capture(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    net, tables = fabric(ep["name"])
    with mock.patch.object(api, "make_sim", capture):
        row = simulate_with_recovery(
            net, tables, rate=ep["rate"], cycles=250, packet_size=ep["packet_size"],
            seed=ep["seed"], fault=ep["fault"], retry=ep["retry"],
            reroute=ep["reroute"], failover=ep["failover"], engine=engine,
        )
    (sim,) = built
    assert sim.engine == engine
    return row, stats_signature(sim)


def _same(a, b):
    """Equality that also holds between two NaN latencies (no delivery)."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@settings(max_examples=40, deadline=None)
@given(episodes())
def test_recovery_episode_is_engine_independent(ep):
    row_c, sig_c = _episode("compiled", ep)
    scan_max = 0 if ep["index"] else vec.ACTIVE_SCAN_MAX
    with mock.patch.object(vec, "ACTIVE_SCAN_MAX", scan_max):
        row_v, sig_v = _episode("vectorized", ep)
    assert row_c.keys() == row_v.keys()
    assert [k for k in row_c if not _same(row_c[k], row_v[k])] == []
    assert [k for k in sig_c if not _same(sig_c[k], sig_v[k])] == []
