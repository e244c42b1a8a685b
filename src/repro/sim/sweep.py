"""Load sweeps, saturation search and recovery sweeps.

The quantitative summary of a topology's "ability to handle load
imbalances" (§3.0) is its saturation point: the offered load where
latency departs from the zero-load regime.  :func:`find_saturation`
binary-searches it; :func:`curve_points` produces the classic
latency-vs-offered-load series the §4.0 benchmark prints, and
:func:`recovery_curve` the fault-recovery metrics per failure count.

This module is the only home of that logic.  Every measured point is an
independent task with a seed derived from its identity
(:func:`repro.sim.parallel.derive_seed`), so fanning the points over a
:class:`repro.sim.parallel.SweepRunner` -- ``run_batch=runner.execute_batch``
for curves, which ships each batch group as one task, ``runner=`` for
recovery sweeps -- returns results bit-identical to a serial run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RoutingTable
from repro.sim.engine import SimConfig
from repro.sim.packet import PacketRecords

__all__ = [
    "LoadPoint",
    "curve_points",
    "find_saturation",
    "measure_point",
    "recovery_curve",
    "sample_point",
    "steady_window",
]


@dataclass(frozen=True)
class LoadPoint:
    """One measurement of a load sweep."""

    offered_rate: float
    accepted_flits_per_node_cycle: float
    avg_latency: float
    p99_latency: float
    saturated: bool


def _point_config(packet_size: int, switching: str, engine: str) -> SimConfig:
    """The measurement config every curve point runs under."""
    return SimConfig(
        buffer_depth=max(4, packet_size if switching == "store_and_forward" else 4),
        raise_on_deadlock=False,
        stall_threshold=400,
        switching=switching,
        engine=engine,
    )


def steady_window(records: PacketRecords, cycles: int) -> np.ndarray:
    """Mask of the packets a load point measures: the delivered ones
    created at or after the ``cycles // 5`` warmup (cold-start packets see
    an empty network and bias the average down).  The one definition of
    the window; :func:`_window_summary` and the section 4.0 rows read it.
    """
    return (records.delivered >= 0) & (records.created >= cycles // 5)


def _window_summary(
    records: PacketRecords,
    rate: float,
    cycles: int,
    zero_load: float,
    factor: float,
    num_end_nodes: int,
) -> LoadPoint:
    """Summarize one run's packet records into a :class:`LoadPoint`.

    Every reported figure uses the :func:`steady_window`: latency comes
    from its packets, and accepted load counts exactly their flits over
    the post-warmup cycles (the whole-run average would fold the warmup
    ramp into the steady state and understate accepted throughput near
    saturation).
    """
    created, delivered, size = records
    steady = steady_window(records, cycles)
    latency = delivered[steady] - created[steady]
    avg = float(np.mean(latency)) if latency.size else float("inf")
    p99 = float(np.percentile(latency, 99)) if latency.size else float("inf")
    steady_flits = int(size[steady].sum())
    window = max(1, cycles - cycles // 5)
    return LoadPoint(
        offered_rate=rate,
        accepted_flits_per_node_cycle=steady_flits / window / max(1, num_end_nodes),
        avg_latency=avg,
        p99_latency=p99,
        saturated=avg > factor * zero_load,
    )


def measure_point(
    net: Network,
    tables: RoutingTable,
    rate: float,
    cycles: int,
    packet_size: int,
    seed: int,
    zero_load: float,
    factor: float,
    switching: str = "wormhole",
    engine: str = "auto",
) -> LoadPoint:
    """Simulate one offered rate and classify it against the zero-load bar.

    Pure in all arguments (the traffic RNG is seeded here), which is what
    lets a saturation search probe points in any order.  ``engine``
    selects the simulator implementation only -- it never enters the seed
    derivation, because the engines are bit-identical.

    A thin wrapper over :func:`repro.sim.api.execute` plus the shared
    :func:`_window_summary` measure-window logic (see :func:`curve_points`
    for the batched many-rates form).
    """
    from repro.sim import api
    from repro.sim.vec import UniformPlan

    records = api.execute(
        api.SimSpec(
            network=(net, tables),
            traffic=UniformPlan(rate, packet_size, seed),
            config=_point_config(packet_size, switching, engine),
            cycles=cycles,
            drain=False,
        )
    ).records
    return _window_summary(
        records, rate, cycles, zero_load, factor, net.num_end_nodes
    )


def curve_points(
    net: Network,
    tables: RoutingTable,
    rates: Sequence[float],
    cycles: int = 2000,
    packet_size: int = 8,
    seed: int = 1996,
    saturation_factor: float = 3.0,
    switching: str = "wormhole",
    engine: str = "auto",
    run_batch: "Callable | None" = None,
) -> list[LoadPoint]:
    """The one shared latency-curve implementation.

    Builds one :class:`repro.sim.api.SimSpec` per rate (seeded from the
    point's identity, as always) and executes them through ``run_batch``
    -- by default :func:`repro.sim.api.execute_batch`, which advances all
    vec-eligible points as one batched kernel.  Pass
    :meth:`repro.sim.parallel.SweepRunner.execute_batch` to fan the points
    over worker processes, or a :func:`sample_point` executor to attach a
    probe to every point; the warmup/measure-window logic
    (:func:`_window_summary`) stays here either way.
    """
    zero = _zero_load_latency(net, tables, packet_size)
    return _measure_rates(
        net, tables, rates, cycles, packet_size, seed, zero, saturation_factor,
        switching, engine, run_batch,
    )


def _measure_rates(
    net: Network,
    tables: RoutingTable,
    rates: Sequence[float],
    cycles: int,
    packet_size: int,
    seed: int,
    zero_load: float,
    factor: float,
    switching: str,
    engine: str,
    run_batch: "Callable | None" = None,
) -> list[LoadPoint]:
    """Measure several rates as one batch: the probe seam
    :func:`curve_points` and :func:`find_saturation` share.

    Each rate's traffic seed is ``derive_seed(seed, "rate", repr(rate),
    "switching", switching)``, a function of the point's identity alone,
    so a rate measures the same whichever batch it runs in.
    """
    from repro.sim import api
    from repro.sim.parallel import derive_seed
    from repro.sim.vec import UniformPlan

    rates = [float(rate) for rate in rates]
    cfg = _point_config(packet_size, switching, engine)
    specs = [
        api.SimSpec(
            network=(net, tables),
            traffic=UniformPlan(
                rate,
                packet_size,
                derive_seed(seed, "rate", repr(rate), "switching", switching),
            ),
            config=cfg,
            cycles=cycles,
            drain=False,
        )
        for rate in rates
    ]
    results = (run_batch or api.execute_batch)(specs)
    return [
        _window_summary(
            res.records, rate, cycles, zero_load, factor, net.num_end_nodes
        )
        for rate, res in zip(rates, results)
    ]


def _zero_load_latency(net: Network, tables: RoutingTable, packet_size: int) -> float:
    from repro.metrics.hops import hop_stats_sampled

    stats = hop_stats_sampled(net, tables, max_pairs=2000)
    # mean links = mean hops + 1; zero-load = links + flits - 2
    return stats.mean + 1 + packet_size - 2


def sample_point(sample_interval: int, spec) -> tuple[Any, list[dict[str, Any]]]:
    """Execute one load-point spec with a :class:`repro.obs.SimProbe` attached.

    Returns the :class:`~repro.sim.api.RunResult` and the probe's timeline
    rows; ``repro simulate --sample-interval`` runs its point here.  Bind
    the interval with :func:`functools.partial` and fan the
    specs with :meth:`repro.sim.parallel.SweepRunner.map`: the probe is
    created inside the worker and its rows travel back with the point, so
    reassembling them in submission order keeps ``jobs=N`` output
    bit-identical to ``jobs=1``.  Probes need a live simulator hook, so
    sampled points never join a vectorized batch.
    """
    from repro.obs.probe import SimProbe
    from repro.sim import api

    probe = SimProbe(sample_interval)
    sim = api.make_sim(*spec.network, spec.traffic, spec.config, probe=probe)
    sim.run(spec.cycles, drain=spec.drain)
    result = api.RunResult.of(sim, sim.finalize())
    return result, probe.timeline_rows(rate=spec.traffic.rate)


def _recovery_point(
    net: Network, tables: RoutingTable, failures: int, **options: Any
) -> dict:
    """One point of :func:`recovery_curve` (module level, so it pickles)."""
    from repro.sim.recovery import simulate_with_recovery

    result = simulate_with_recovery(net, tables, faults=failures, **options)
    result["failures"] = failures
    return result


def recovery_curve(
    net: Network,
    tables: RoutingTable,
    failure_counts: Sequence[int],
    rate: float = 0.05,
    cycles: int = 1000,
    packet_size: int = 8,
    seed: int = 1996,
    fault_cycle: int | None = None,
    repair_cycle: int | None = None,
    retry=None,
    reroute=None,
    failover: bool = False,
    runner=None,
    engine: str = "auto",
) -> list[dict]:
    """Fault-recovery metrics at each failure count (see
    :func:`repro.sim.recovery.simulate_with_recovery`).

    Each point offers the same traffic (the base seed) against
    ``failures`` random cable faults chosen from ``derive_seed(seed,
    "faults", failures)`` -- the fault set is a function of the point's
    identity, never of scheduling.  Pass a
    :class:`~repro.sim.parallel.SweepRunner` to fan the points over its
    workers (serial in-process otherwise); the series is bit-identical
    either way.
    """
    from repro.sim.parallel import SweepRunner

    point = functools.partial(
        _recovery_point,
        net,
        tables,
        rate=float(rate),
        cycles=cycles,
        packet_size=packet_size,
        seed=seed,
        fault_cycle=fault_cycle,
        repair_cycle=repair_cycle,
        retry=retry,
        reroute=reroute,
        failover=failover,
        engine=engine,
    )
    counts = [int(k) for k in failure_counts]
    return (runner or SweepRunner()).map(
        point, counts, labels=[f"{net.name} recovery k={k}" for k in counts]
    )


#: The batches :func:`find_saturation` measures when they run vectorized.
#: While the bracket's low end is still 0.0, a batch is its probe plus the
#: saturated spine below it -- the midpoints the walk tests if every one
#: saturates, then the low-bracket guard probe -- at most ``_SPINE_RATES``
#: rates.  Once a rate has come back unsaturated, a batch is the whole
#: rest of the bisection when it ends within ``_FINISH_LEVELS`` levels
#: (``2**4 - 1`` midpoints), else the next ``_STEP_LEVELS`` levels.  The
#: cost is the number of batches, not their width: on the three 64-node
#: ``sweep64`` fabrics (1000 cycles, resolution 0.002) this plan takes 2
#: batches each where three-level subtrees took 3, and the three searches
#: 2.09 s instead of 3.28 s (medians of 5 runs, 2-vCPU VM); the table is
#: in docs/performance.md.
_SPINE_RATES = 15
_FINISH_LEVELS = 4
_STEP_LEVELS = 3
#: The widest batch the plan forms: a probe plus a full spine.
_WIDEST_BATCH = max(1 + _SPINE_RATES, 2**_FINISH_LEVELS - 1)


def _speculates(
    net: Network, packet_size: int, max_rate: float, switching: str, engine: str
) -> bool:
    """Whether the plan's widest batch runs vectorized; otherwise the
    search measures exactly the serial probes, one at a time."""
    from repro.sim import api
    from repro.sim.vec import UniformPlan

    cfg = _point_config(packet_size, switching, engine)
    plan = UniformPlan(max_rate, packet_size, 0)
    try:
        chosen = api.preferred_engine(net, cfg, plan, replicas=_WIDEST_BATCH)
    except ValueError:
        # a forced engine refuses the batch; the lone probes raise alike
        return False
    return chosen == "vectorized"


def _next_mid(low: float, high: float, resolution: float) -> float | None:
    """The rate the bisection tests next in the bracket ``(low, high)``,
    or ``None`` once the bracket is within ``resolution`` or its ends are
    adjacent floats, which no midpoint can separate."""
    mid = (low + high) / 2
    return mid if high - low > resolution and low < mid < high else None


def _spine(high: float, resolution: float) -> list[float]:
    """The rates the bisection tests from ``(0.0, high)`` if every one
    saturates: the midpoints down to ``resolution``, then the low-bracket
    guard probe; at most ``_SPINE_RATES`` of them."""
    rates: list[float] = []
    while len(rates) < _SPINE_RATES:
        mid = _next_mid(0.0, high, resolution)
        if mid is None:
            if high / 2 > 0.0:
                rates.append(high / 2)
            break
        rates.append(mid)
        high = mid
    return rates


def _levels(low: float, high: float, resolution: float, depth: int) -> list[list[float]]:
    """The midpoints the bisection can test in its next ``depth`` steps
    from ``(low, high)``, down both outcomes of each step, level by level."""
    levels: list[list[float]] = []
    brackets = [(low, high)]
    for _ in range(depth):
        split = [
            (lo, mid, hi)
            for lo, hi in brackets
            if (mid := _next_mid(lo, hi, resolution)) is not None
        ]
        if not split:
            break
        levels.append([mid for _, mid, _ in split])
        brackets = [b for lo, mid, hi in split for b in ((lo, mid), (mid, hi))]
    return levels


def _speculation(low: float, high: float, resolution: float) -> list[float]:
    """The rates one speculative batch adds to the probe it is measured
    for: the spine while ``low`` is 0.0, else the rest of the bisection
    when it ends within ``_FINISH_LEVELS`` levels, else ``_STEP_LEVELS``."""
    if low == 0.0:
        return _spine(high, resolution)
    levels = _levels(low, high, resolution, _FINISH_LEVELS + 1)
    if len(levels) > _FINISH_LEVELS:
        levels = levels[:_STEP_LEVELS]
    return [rate for level in levels for rate in level]


def find_saturation(
    net: Network,
    tables: RoutingTable,
    cycles: int = 2000,
    packet_size: int = 8,
    seed: int = 1996,
    saturation_factor: float = 3.0,
    resolution: float = 0.002,
    max_rate: float = 0.5,
    switching: str = "wormhole",
    engine: str = "auto",
) -> float:
    """Binary-search the offered rate where latency exceeds
    ``saturation_factor`` x the zero-load average.

    Returns the highest *tested* rate that is still unsaturated (to within
    ``resolution``).  Deterministic for fixed arguments.  When every probed
    rate saturates, one final probe below the bracket decides between a
    tiny-but-real saturation rate and the ``0.0`` sentinel -- the bisection
    itself never tests ``low = 0.0``, so returning it unprobed would claim
    an unsaturated rate that was never measured.

    When the widest batch runs vectorized, each measurement speculates:
    one batch holds the rate the walk needs plus, while no rate has come
    back unsaturated, the saturated spine below it (``max_rate`` first,
    then ``max_rate / 2``, ``/ 4``, ... down to ``resolution`` and the
    guard probe), and afterwards the rest of the bisection tree when it
    ends within four levels, else its next three.  The walk reads later
    verdicts from a ``rate -> saturated`` memo.  Every rate is seeded
    from its own identity, so the walk tests the serial search's rates
    bit-identically and returns the same answer; on the 64-node
    ``sweep64`` fabrics the search takes two batches.

    Raises ``ValueError`` unless ``resolution > 0`` and
    ``0 < max_rate <= 1``.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be > 0, got {resolution!r}")
    if not 0 < max_rate <= 1:
        raise ValueError(f"max_rate must be in (0, 1], got {max_rate!r}")
    zero = _zero_load_latency(net, tables, packet_size)
    speculate = _speculates(net, packet_size, max_rate, switching, engine)
    known: dict[float, bool] = {}

    def saturated(rate: float, low: float, high: float) -> bool:
        if rate not in known:
            plan = _speculation(low, high, resolution) if speculate else []
            batch = [r for r in dict.fromkeys([rate, *plan]) if r not in known]
            points = _measure_rates(
                net, tables, batch, cycles, packet_size, seed, zero,
                saturation_factor, switching, engine,
            )
            known.update(zip(batch, (p.saturated for p in points)))
        return known[rate]

    low, high = 0.0, max_rate
    if not saturated(max_rate, low, high):
        return max_rate
    while (mid := _next_mid(low, high, resolution)) is not None:
        if saturated(mid, low, high):
            high = mid
        else:
            low = mid
    if low == 0.0:
        # Every probed rate saturated.  Probe once below the final bracket
        # before conceding: if that rate is unsaturated it is the answer;
        # only a confirmed saturation justifies the 0.0 sentinel.
        probe = high / 2
        if probe > 0.0 and not saturated(probe, low, high):
            return probe
        return 0.0
    return low
