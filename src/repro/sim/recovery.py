"""The fault-recovery subsystem: timeout/retry, online re-routing, failover.

The paper's premise is that links fail and deadlock avoidance must coexist
with recovery (§2.0 surveys timeout/retry and per-link path disables;
ServerNet ships dual fabrics precisely for failover).  This module is the
recovery layer on top of the wormhole simulator:

* **Timeout/retry** (:class:`~repro.sim.engine.RetryPolicy`): the NIC
  presumes a packet lost ``timeout`` cycles after injection, kills its
  worm everywhere in the fabric (so retries cannot deadlock behind their
  own dead flits) and retransmits with exponential backoff until the
  per-packet budget is spent.

* **Online re-routing** (:class:`~repro.sim.engine.ReroutePolicy`): every
  fault transition triggers, after a detection delay, recompilation of a
  deadlock-free routing table with the failed links disabled
  (:func:`recompute_recovery_tables`), certified deadlock-free by the
  linear channel-order check
  (:func:`~repro.deadlock.certifier.certify_channel_order`), and
  atomically swapped in after a reconvergence delay.  Recomputation and
  its verdict are memoized in the content-keyed
  :class:`~repro.routing.cache.RoutingTableCache`, whose keys already
  include the disable set -- a sweep re-encountering the same failure set
  pays the compile and the certification once.

* **Dual-fabric failover** (:class:`FailoverPlan`): packets that exhaust
  their retry budget retarget to the second fabric; the plan models the
  Y fabric's zero-load delivery and records per-packet failover latency.

:class:`RecoveryManager` wires all three into the simulator's cycle loop;
:func:`simulate_with_recovery` is the one-call experiment driver the CLI
(``simulate --faults/--retry/--reroute``) and ``fault_study`` build on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Protocol

from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable, compute_route
from repro.routing.cache import DEFAULT_CACHE, RoutingTableCache
from repro.routing.disables import DisableSet
from repro.sim.engine import RetryPolicy, ReroutePolicy, SimConfig
from repro.sim.fault import FaultSchedule, random_cable_schedule
from repro.sim.stats import SimStats

__all__ = [
    "FailoverPlan",
    "RecoveredTables",
    "RecoveryManager",
    "RecoverySurface",
    "implied_manager",
    "recompute_recovery_tables",
    "recovery_config",
    "simulate_with_recovery",
]

#: Recovery routings tried in order; the first whose tables certify
#: (deliverable + an ascending channel order exists) wins.  Shortest-path keeps routes minimal
#: when the survivors happen to be cycle-free; up*/down* is the provably
#: deadlock-free fallback on any connected remnant.
RECOVERY_ALGORITHMS: tuple[str, ...] = ("shortest_path", "up_down")


@dataclass(frozen=True)
class RecoveredTables:
    """Outcome of one routing recomputation around a failure set."""

    tables: RoutingTable | None
    algorithm: str
    deliverable: bool
    acyclic: bool
    down_links: frozenset[str]

    @property
    def certified(self) -> bool:
        return self.tables is not None and self.deliverable and self.acyclic


def recompute_recovery_tables(
    net: Network,
    down_links: set[str] | frozenset[str],
    cache: RoutingTableCache | None = None,
    algorithms: tuple[str, ...] = RECOVERY_ALGORITHMS,
) -> RecoveredTables:
    """Compile a deadlock-free routing table that avoids ``down_links``.

    Only router-to-router links can be routed around (a dead injection or
    ejection cable isolates its end node outright), so the disable set is
    restricted to those.  Each candidate algorithm's result is certified
    -- every ordered pair deliverable over a simple path *and* an
    ascending channel order over the routes -- and the first certified
    result wins.  If none certifies (e.g. the surviving fabric is
    disconnected) the last attempt is returned with its failure flags so
    callers can decide to keep the old tables.

    Both the tables and the certification verdict are memoized in
    ``cache`` under its content key, so a sweep hitting the same (network,
    failure set) point recomputes nothing, and ``cache.clear()`` forgets
    both together.
    """
    # "is None", not "or": an empty cache has len() 0 and would be swapped out
    cache = DEFAULT_CACHE if cache is None else cache
    router_links = {l.link_id for l in net.router_links()}
    ds = DisableSet(sorted(set(down_links) & router_links))
    last: RecoveredTables | None = None
    for algorithm in algorithms:
        key = cache.key(net, algorithm, None, ds)
        memo = cache.memo_get(key)
        if memo is not None:
            if memo.certified:
                return memo
            last = memo
            continue
        try:
            tables = cache.get_or_build(net, algorithm=algorithm, disables=ds)
        except RoutingError:
            # disconnected remnant: this algorithm cannot even compile
            result = RecoveredTables(
                None, algorithm, False, False, frozenset(ds.link_ids())
            )
            last = cache.memo_put(key, result)
            continue
        result = cache.memo_put(key, _certify(net, tables, algorithm, ds))
        if result.certified:
            return result
        last = result
    assert last is not None, "algorithms tuple must not be empty"
    return last


def _certify(
    net: Network, tables: RoutingTable, algorithm: str, ds: DisableSet
) -> RecoveredTables:
    from repro.deadlock.certifier import certify_channel_order

    # undeliverable tables certify an empty route set, which reads acyclic
    result = certify_channel_order(net, tables)
    return RecoveredTables(
        tables=tables,
        algorithm=algorithm,
        deliverable=result.deliverable,
        acyclic=result.deadlock_free,
        down_links=frozenset(ds.link_ids()),
    )


class FailoverPlan:
    """Zero-load delivery model of the second (Y) fabric.

    ServerNet pairs router fabrics with dual-ported nodes; when the X
    fabric gives up on a transfer (retry budget exhausted) the NIC
    retargets it to Y.  The plan answers "how long would this packet take
    on an idle second fabric" -- route length plus serialization plus the
    NIC's retarget turnaround -- which is what the failover-latency metric
    adds on top of the time already burned on X.
    """

    def __init__(
        self, net: Network, tables: RoutingTable, retarget_delay: int = 4
    ) -> None:
        self.net = net
        self.tables = tables
        self.retarget_delay = retarget_delay
        self._route_links: dict[tuple[str, str], int] = {}

    def latency(self, src: str, dst: str, size: int) -> int:
        """Zero-load cycles to deliver ``size`` flits from src to dst on Y."""
        links = self._route_links.get((src, dst))
        if links is None:
            links = len(compute_route(self.net, self.tables, src, dst).links)
            self._route_links[(src, dst)] = links
        return self.retarget_delay + links + size - 1


class RecoveryManager:
    """Wires retry, re-routing and failover into the simulator's cycle loop.

    The simulator calls :meth:`on_injected` / :meth:`on_delivered` with
    packet ids as packets move and :meth:`before_cycle` once per cycle; the
    manager does the rest: deadline tracking (a heap ordered by (deadline,
    packet id), so timeout processing is deterministic), worm kills and
    re-queues, fault detection, memoized table recomputation, and the
    delayed atomic swap.  Everything it schedules is a pure function of the
    fault schedule and the packet timeline, which is what keeps parallel
    sweeps bit-identical to serial ones.

    It drives every engine through one narrow surface (:class:`RecoverySurface`):
    ``drop_packet``, ``requeue``, ``swap_tables``, ``packet_info`` and the
    ``recovery_stats`` counters, so the same manager runs on the reference
    interpreter, the compiled core and a lone vectorized core.
    """

    def __init__(
        self,
        net: Network,
        base_tables: RoutingTable,
        retry: RetryPolicy | None = None,
        reroute: ReroutePolicy | None = None,
        fault: FaultSchedule | None = None,
        failover: FailoverPlan | None = None,
        cache: RoutingTableCache | None = None,
    ) -> None:
        self.net = net
        self.base_tables = base_tables
        self.retry = retry
        self.reroute = reroute
        self.fault = fault
        self.failover = failover
        self.cache = DEFAULT_CACHE if cache is None else cache
        #: reroute event log: one dict per detection, with its outcome
        self.events: list[dict[str, Any]] = []
        #: ids of packets retargeted to the second fabric
        self.failed_over: set[int] = set()

        # retry state
        self._attempts: dict[int, int] = {}
        self._outstanding: set[int] = set()
        self._deadlines: list[tuple[int, int, int]] = []  # (deadline, pid, attempt)
        self._resends: dict[int, list[int]] = {}  # due cycle -> packet ids
        self._pending_resends = 0

        # reroute state
        self._detect_at: list[int] = []
        self._swaps: dict[int, list[dict[str, Any]]] = {}  # due cycle -> swaps
        self._pending_swaps = 0
        if reroute is not None and fault is not None:
            self._detect_at = sorted(
                {t + reroute.detection_delay for t in fault.transition_cycles()}
            )

    # ------------------------------------------------------------------
    @property
    def pending(self) -> bool:
        """True while retries or table swaps are scheduled but not done.

        The simulator's drain loop keeps stepping while this holds, so a
        packet between worm-kill and re-send (in neither a source queue
        nor the network) is not mistaken for "everything delivered".
        """
        return bool(self._pending_resends or self._pending_swaps)

    # ------------------------------------------------------------------
    # simulator hooks
    # ------------------------------------------------------------------
    def on_injected(self, packet_id: int, cycle: int) -> None:
        if self.retry is None:
            return
        attempt = self._attempts.get(packet_id, 0)
        deadline = cycle + self.retry.timeout_for_attempt(attempt)
        heapq.heappush(self._deadlines, (deadline, packet_id, attempt))
        self._outstanding.add(packet_id)

    def on_delivered(self, packet_id: int, cycle: int) -> None:
        self._outstanding.discard(packet_id)

    def before_cycle(self, sim: "RecoverySurface", cycle: int) -> None:
        if self._detect_at and self._detect_at[0] <= cycle:
            while self._detect_at and self._detect_at[0] <= cycle:
                self._detect(self._detect_at.pop(0))
        if self._pending_swaps:
            self._apply_due_swaps(sim, cycle)
        if self.retry is not None:
            self._expire_timeouts(sim, cycle)
        if self._pending_resends:
            for pid in self._resends.pop(cycle, ()):
                self._pending_resends -= 1
                sim.requeue(pid)

    # ------------------------------------------------------------------
    # timeout/retry
    # ------------------------------------------------------------------
    def _expire_timeouts(self, sim: "RecoverySurface", cycle: int) -> None:
        while self._deadlines and self._deadlines[0][0] <= cycle:
            _, pid, attempt = heapq.heappop(self._deadlines)
            if pid not in self._outstanding:
                continue  # delivered in the meantime
            if self._attempts.get(pid, 0) != attempt:
                continue  # stale deadline from an earlier attempt
            self._timeout(sim, pid, attempt, cycle)

    def _timeout(
        self, sim: "RecoverySurface", pid: int, attempt: int, cycle: int
    ) -> None:
        sim.drop_packet(pid, at_cycle=cycle)
        self._outstanding.discard(pid)
        self._attempts[pid] = attempt + 1
        stats = sim.recovery_stats
        if attempt + 1 <= self.retry.max_retries:
            stats.packets_retried += 1
            due = cycle + self.retry.resend_delay
            self._resends.setdefault(due, []).append(pid)
            self._pending_resends += 1
        elif self.failover is not None:
            stats.packets_failed_over += 1
            self.failed_over.add(pid)
            src, dst, size, created = sim.packet_info(pid)
            latency = (cycle - created) + self.failover.latency(src, dst, size)
            stats.failover_latencies.append(latency)
        else:
            stats.packets_dropped += 1

    # ------------------------------------------------------------------
    # online re-routing
    # ------------------------------------------------------------------
    def _detect(self, cycle: int) -> None:
        down = frozenset(self.fault.down_links(cycle))
        if down:
            recovered = recompute_recovery_tables(self.net, down, self.cache)
        else:
            # full repair: certify (memoized, once) and restore the baseline
            recovered = self._baseline_recovered()
        event: dict[str, Any] = {
            "detected_at": cycle,
            "down_links": sorted(down),
            "algorithm": recovered.algorithm,
            "deliverable": recovered.deliverable,
            "acyclic": recovered.acyclic,
            "swapped_at": None,
        }
        if recovered.certified or not self.reroute.require_certified:
            due = cycle + self.reroute.reconvergence_delay
            self._swaps.setdefault(due, []).append(
                {"tables": recovered.tables, "event": event}
            )
            self._pending_swaps += 1
        self.events.append(event)

    def _baseline_recovered(self) -> RecoveredTables:
        """Certify and return the pre-fault tables for a full repair.

        The verdict is memoized under the tables' content key, so every
        manager over the same cached tables certifies them once; tables
        the cache did not build have no content key and certify per repair.
        """
        key = self.cache.content_key(self.base_tables)
        if key is not None:
            key += "|baseline-restore"
            memo = self.cache.memo_get(key)
            if memo is not None:
                return memo
        recovered = _certify(self.net, self.base_tables, "baseline", DisableSet())
        return recovered if key is None else self.cache.memo_put(key, recovered)

    def _apply_due_swaps(self, sim: "RecoverySurface", cycle: int) -> None:
        for due in sorted(c for c in self._swaps if c <= cycle):
            for swap in self._swaps.pop(due):
                self._pending_swaps -= 1
                if swap["tables"] is None:
                    continue
                sim.swap_tables(swap["tables"])
                swap["event"]["swapped_at"] = cycle
                sim.recovery_stats.reconvergence_cycles.append(
                    cycle - (swap["event"]["detected_at"] - self.reroute.detection_delay)
                )


class RecoverySurface(Protocol):
    """What :class:`RecoveryManager` needs of an engine, and all it touches.

    ``ReferenceSim``, ``SimCore`` and a lone (``B = 1``) ``VecCore`` each
    implement it; the manager never reads an engine's packets, queues or
    buffers directly.
    """

    #: the run's stats object the manager counts retries, drops,
    #: failovers and reconvergence delays into
    recovery_stats: SimStats

    def drop_packet(self, packet_id: int, at_cycle: int | None = None) -> int:
        """Purge the packet's worm: its latches, fabric flits and NIC cursor."""

    def requeue(self, packet_id: int) -> None:
        """Queue the packet at its source again, behind what waits there."""

    def swap_tables(self, tables: RoutingTable) -> None:
        """Atomically install new routing tables."""

    def packet_info(self, packet_id: int) -> tuple[str, str, int, int]:
        """The packet's ``(src, dst, size, created)``."""


def implied_manager(
    net: Network,
    tables: RoutingTable,
    config: SimConfig,
    fault: FaultSchedule | None,
    failover: FailoverPlan | None,
) -> RecoveryManager | None:
    """The manager an engine builds when none is passed: one exactly when
    the config carries a retry or reroute policy or a failover plan is
    given."""
    if config.retry is None and config.reroute is None and failover is None:
        return None
    return RecoveryManager(
        net, tables, retry=config.retry, reroute=config.reroute, fault=fault,
        failover=failover,
    )


def recovery_config(
    retry: RetryPolicy | None = None,
    reroute: ReroutePolicy | None = None,
    engine: str = "auto",
) -> SimConfig:
    """The config a :func:`simulate_with_recovery` episode runs under, and
    the one its run manifests record: deadlocks are recorded, not raised,
    and the stall window lets worms wait behind a dead cable until a
    timeout or a table swap frees them."""
    return SimConfig(
        buffer_depth=4,
        raise_on_deadlock=False,
        stall_threshold=400,
        retry=retry,
        reroute=reroute,
        engine=engine,
    )


def simulate_with_recovery(
    net: Network,
    tables: RoutingTable,
    rate: float,
    cycles: int,
    packet_size: int = 8,
    seed: int = 1996,
    fault: FaultSchedule | None = None,
    faults: int = 0,
    fault_cycle: int | None = None,
    repair_cycle: int | None = None,
    retry: RetryPolicy | None = None,
    reroute: ReroutePolicy | None = None,
    failover: bool = False,
    drain: bool = True,
    cache: RoutingTableCache | None = None,
    engine: str = "auto",
    probe: Any = None,
) -> dict[str, Any]:
    """One fault-recovery measurement: inject, fail, recover, account.

    Either pass an explicit ``fault`` schedule or let ``faults`` random
    cables fail at ``fault_cycle`` (default ``cycles // 4``) and -- when
    ``repair_cycle`` is given -- come back up, exercising the repair path.
    The fault selection RNG is derived from ``(seed, "faults", faults)``
    so the same point reproduces bit-identically anywhere in a sweep.

    Returns a flat dict of delivery and recovery metrics, including the
    post-recovery delivery rate over the window after the last table swap
    (or the last fault transition when re-routing is off).
    """
    import numpy as np

    from repro.sim.api import RunResult, make_sim
    from repro.sim.parallel import derive_seed
    from repro.sim.vec import UniformPlan

    if fault is None and faults > 0:
        rng = np.random.default_rng(derive_seed(seed, "faults", faults))
        fault = random_cable_schedule(
            net,
            faults,
            rng,
            at_cycle=cycles // 4 if fault_cycle is None else fault_cycle,
            repair_at=repair_cycle,
        )

    config = recovery_config(retry, reroute, engine)
    plan = FailoverPlan(net, tables) if failover else None
    # The manager is built even when every policy is None: routing a run
    # through this entry point declares "faults are expected here", which
    # also disarms the simulator's stalled-without-deadlock tripwire.
    manager = RecoveryManager(
        net, tables, retry=retry, reroute=reroute, fault=fault, failover=plan,
        cache=cache,
    )
    sim = make_sim(
        net,
        tables,
        UniformPlan(rate, packet_size, seed),
        config,
        fault=fault,
        recovery=manager,
        probe=probe,
    )
    sim.run(cycles, drain=drain)
    stats = sim.finalize()

    events = manager.events
    swap_cycles = [e["swapped_at"] for e in events if e["swapped_at"] is not None]
    if swap_cycles:
        window_start = max(swap_cycles)
    elif fault is not None and fault.transition_cycles():
        window_start = max(fault.transition_cycles())
    else:
        window_start = 0
    # a plan numbers its packets 0, 1, ... in creation order, so a record's
    # position is its packet id; a failed-over packet completed on the
    # second fabric and counts as delivered for the post-recovery
    # service-rate question
    records = RunResult.of(sim, stats).records
    done = records.delivered >= 0
    if manager.failed_over:
        done[np.fromiter(manager.failed_over, np.int64)] = True
    post = records.created >= window_start
    post_offered = int(np.count_nonzero(post))
    post_delivered = int(np.count_nonzero(done & post))

    delivered_total = stats.packets_delivered + stats.packets_failed_over
    return {
        "offered": stats.packets_offered,
        "delivered": stats.packets_delivered,
        "delivered_total": delivered_total,
        "delivery_rate": delivered_total / stats.packets_offered
        if stats.packets_offered
        else 1.0,
        "dropped": stats.packets_dropped,
        "retried": stats.packets_retried,
        "failed_over": stats.packets_failed_over,
        "failover_latency_avg": float(np.mean(stats.failover_latencies))
        if stats.failover_latencies
        else 0.0,
        "reroutes": stats.table_swaps,
        "reconvergence_cycles": list(stats.reconvergence_cycles),
        "reconvergence_avg": float(np.mean(stats.reconvergence_cycles))
        if stats.reconvergence_cycles
        else 0.0,
        "recovered_acyclic": all(e["acyclic"] for e in events) if events else True,
        "reroute_events": [
            {k: v for k, v in e.items() if k != "tables"} for e in events
        ],
        "post_recovery_offered": post_offered,
        "post_recovery_delivered": post_delivered,
        "post_recovery_rate": post_delivered / post_offered if post_offered else 1.0,
        "avg_latency": stats.avg_latency,
        "cycles": stats.cycles,
        "deadlocked": stats.deadlocked,
        "order_violations": len(stats.in_order_violations),
    }
