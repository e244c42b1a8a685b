"""Compiled simulation core: integer-indexed IR + phase-structured kernel.

The reference :class:`~repro.sim.network_sim.ReferenceSim` interprets the
network each cycle through string-keyed ``(link_id, vc)`` dictionaries and
:class:`~repro.sim.packet.Flit` objects.  That is the right shape for
reading the model, and the wrong shape for 64-node saturation sweeps: at
high load every cycle hashes thousands of tuple keys and allocates
nothing but garbage.

This module *compiles* the simulation instead:

* :class:`CompiledNet` is the IR.  It interns node/link/channel ids into
  dense integers -- channel ``ch = link_index * vc_count + vc`` with link
  indices assigned by ``sorted(link_ids)`` (see
  :meth:`repro.network.graph.Network.indices`) -- and precomputes the
  per-channel facts the kernel needs (destination router, end-node flags,
  injection channels).  Because links are ranked by their id string and
  VCs are contiguous, *sorting channels as integers is exactly sorting
  the reference engine's ``(link_id, vc)`` tuples*, which is what makes
  arbitration order, and therefore every statistic, bit-identical.
* Routing reads the table's own ``router_index x end_index`` port matrix
  and a per-router ``port -> base output channel`` lookup
  (:meth:`repro.routing.cache.RoutingTableCache.get_or_lower`, memoized
  under the same content hash as the tables themselves): a head's next
  channel is ``lut[r, ports[r, e]]``, with no widened channel matrix.
* :class:`SimCore` is the step kernel.  Flits are packed into single ints
  (``packet_id << 20 | flit_index``; a flit is a head iff its index is 0
  and a tail iff its index is ``size - 1``), FIFOs are deques of ints,
  and the cycle runs as explicit phases -- inject, route, allocate,
  traverse, eject -- over flat per-channel lists.  When no flit can move
  and the remaining schedule is provably inert (no pending fault
  transitions, no recovery manager, traffic exhausted), ``run`` fast
  forwards idle stretches in O(1) while reproducing stall accounting and
  deadlock-detection timing exactly.

Invariants (checked by ``tests/sim/test_engine_equivalence.py``):

* identical ``SimStats`` (including latency order and link flit counts),
  trace events, deadlock cycles and exception text for every supported
  configuration;
* the network and fault schedule must not be structurally mutated while a
  ``SimCore`` is live (the reference engine re-reads the graph per cycle;
  the compiled engine reads the IR).  ``Network.version`` guards the IR
  memo between runs.

Unsupported features (``vc_select``, ``route_override``, ``on_deliver``,
store-and-forward switching) stay on the reference engine;
:func:`repro.sim.api.preferred_engine` decides.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.deadlock.waitfor import WaitForGraph
from repro.network.graph import Network
from repro.routing.base import RoutingTable
from repro.sim.engine import DeadlockDetected, SimConfig
from repro.sim.link import ChannelBuffer
from repro.sim.nic import SinkState, SourceState
from repro.sim.packet import Flit, FlitKind, Packet
from repro.sim.router import OutputPort
from repro.sim.stats import SimStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.probe import SimProbe
    from repro.sim.fault import FaultSchedule
    from repro.sim.recovery import FailoverPlan, RecoveryManager
    from repro.sim.trace import SimTrace
    from repro.sim.traffic import TrafficGenerator

__all__ = ["CompiledNet", "FLIT_INDEX_BITS", "SimCore", "compile_network"]

#: Flit codes pack ``packet_id << FLIT_INDEX_BITS | flit_index``; 20 bits
#: allow packets of up to ~1M flits, far beyond any configuration here.
FLIT_INDEX_BITS = 20
_IDX_MASK = (1 << FLIT_INDEX_BITS) - 1


class CompiledNet:
    """Integer-interned view of one structural revision of a network.

    Channel ``ch`` maps to ``(link_ids[ch // V], ch % V)``; every array
    below is indexed by link, channel or end index, expanded from the
    network's :meth:`~repro.network.graph.Network.link_arrays` view.
    Instances are immutable after construction and shared between
    simulations via :func:`compile_network`.
    """

    def __init__(self, net: Network, vc_count: int = 1) -> None:
        idx = net.indices()
        arr = net.link_arrays()
        self.net = net
        self.version = idx.version
        self.vc_count = V = vc_count
        self.link_ids = idx.link_ids
        self.link_index = idx.link_index
        self.router_ids = idx.router_ids
        self.router_index = idx.router_index
        self.end_ids = idx.end_ids
        self.end_index = idx.end_index
        nL = len(idx.link_ids)
        self.num_links = nL
        self.num_channels = nL * V

        #: per link: destination node id
        self.link_dst = list(map((idx.router_ids + idx.end_ids).__getitem__, arr.dst.tolist()))

        #: per channel (ch = li * V + vc): destination router index (-1 for
        #: an end node), whether it ejects, whether it ends in a router
        #: buffer, whether a router drives it
        self.ch_router = np.repeat(arr.dst_router(), V).astype(np.intp)
        self.ch_dst_is_end = np.repeat(~arr.dst_is_router, V)
        self.ch_has_buffer = np.repeat(arr.dst_is_router, V)
        self.ch_has_output = np.repeat(arr.src_is_router, V)

        #: per end index: base injection channel (its lowest-port out link,
        #: VC 0), -1 when the end node is uncabled
        self.inj_ch = np.where(arr.injection >= 0, arr.injection.astype(np.intp) * V, -1)
        for shared in (
            self.ch_router, self.ch_dst_is_end, self.ch_has_buffer, self.ch_has_output, self.inj_ch
        ):
            shared.flags.writeable = False

        #: lazily-built ``str((link_id, vc))`` per channel -- the wait-for
        #: graph node labels, kept identical to the reference engine's
        self._ch_strs: list[str | None] = [None] * (nL * V)

    def ch_key(self, ch: int) -> tuple[str, int]:
        li, vc = divmod(ch, self.vc_count)
        return (self.link_ids[li], vc)

    def ch_str(self, ch: int) -> str:
        s = self._ch_strs[ch]
        if s is None:
            self._ch_strs[ch] = s = str(self.ch_key(ch))
        return s


#: Network -> (version, {vc_count -> CompiledNet}); weak so throwaway
#: sweep networks do not accumulate.
_NET_MEMO: "weakref.WeakKeyDictionary[Network, tuple[int, dict[int, CompiledNet]]]"
_NET_MEMO = weakref.WeakKeyDictionary()


def compile_network(net: Network, vc_count: int = 1) -> CompiledNet:
    """Build (or fetch) the :class:`CompiledNet` IR for a network.

    Memoized per ``(network instance, structural version, vc_count)``;
    any topology mutation invalidates the memo via ``Network.version``.
    """
    memo = _NET_MEMO.get(net)
    if memo is None or memo[0] != net.version:
        memo = (net.version, {})
        _NET_MEMO[net] = memo
    got = memo[1].get(vc_count)
    if got is None:
        got = CompiledNet(net, vc_count)
        memo[1][vc_count] = got
    return got


class SimCore:
    """The compiled wormhole engine (see module docstring).

    Drop-in state surface for the tests: exposes ``cycle``, ``stats``,
    ``packets``, ``sources``, ``sinks``, ``in_flight``, ``backlog``, plus
    ``buffers``/``outputs`` properties that materialize reference-shaped
    snapshots on demand.  The recovery manager uses only its
    :class:`~repro.sim.recovery.RecoverySurface` (``drop_packet``,
    ``requeue``, ``swap_tables``, ``packet_info``, ``recovery_stats``).
    """

    engine = "compiled"

    def __init__(
        self,
        net: Network,
        tables: RoutingTable,
        traffic: "TrafficGenerator",
        config: SimConfig | None = None,
        fault: "FaultSchedule | None" = None,
        trace: "SimTrace | None" = None,
        failover: "FailoverPlan | None" = None,
        recovery: "RecoveryManager | None" = None,
        probe: "SimProbe | None" = None,
    ) -> None:
        self.net = net
        self.tables = tables
        self.traffic = traffic
        self.config = cfg = config or SimConfig()
        if cfg.switching != "wormhole":  # pragma: no cover - make_sim dispatches
            raise ValueError("SimCore only implements wormhole switching")
        self.fault = fault
        self.trace = trace
        self.probe = probe
        self.vc_select = None
        self.route_override = None
        self.on_deliver = None
        self.stats = SimStats()
        self.cycle = 0

        self.recovery = recovery
        if recovery is None:
            from repro.sim.recovery import implied_manager

            self.recovery = implied_manager(net, tables, cfg, fault, failover)

        self._cn = cn = compile_network(net, cfg.vc_count)
        self._ports, self._lut = self._route_from(tables)
        nC = cn.num_channels
        # the step loop reads the IR one channel or source at a time, where
        # a list or dict read beats a numpy scalar read
        self._ch_router = cn.ch_router.tolist()
        self._ch_dst_is_end = cn.ch_dst_is_end.tolist()
        self._inj_ch = dict(zip(cn.end_ids, cn.inj_ch.tolist()))

        #: per-channel input FIFO of flit codes (None where dst is an end node)
        self._q: list = [deque() if buffered else None for buffered in cn.ch_has_buffer.tolist()]
        self._cur_out = [-1] * nC  # worm latch: granted output channel
        self._cur_pid = [-1] * nC  # worm latch: owning packet
        self._holder = [-1] * nC  # output allocation (where src is a router)
        self._rr = [0] * nC  # per-output round-robin pointer
        self._infl = [0] * nC  # pipeline flits headed to a buffer (credit debt)
        self._lf = [0] * cn.num_links  # per-link flit counters
        self._occ: set[int] = set()  # non-empty input FIFOs
        self._pipe: dict[int, list[tuple[int, int]]] = {}  # due cycle -> [(ch, code)]
        self._inj_out: dict[str, int] = {}  # mid-injection latch per source
        self._stall = 0
        self._last_moved = 0

        self.sources = {n: SourceState(n) for n in cn.end_ids}
        self.sinks = {n: SinkState(n) for n in cn.end_ids}
        self._src_items = list(self.sources.items())
        self.packets: dict[int, Packet] = {}
        self._dst_idx: dict[int, int] = {}  # packet id -> dest end index
        self._size: dict[int, int] = {}  # packet id -> flit count
        self._pair_sequences: dict[tuple[str, str], int] = {}

        #: link state timeline resolved to (cycle, link index, down) events,
        #: applied with a pointer at step start; equivalent to the reference
        #: engine's lazy ``is_down(link, cycle)`` because every query within
        #: one step uses the same cycle.
        self._down = [False] * cn.num_links
        self._fault_events = [] if fault is None else fault.state_changes(cn.link_index)
        self._fault_ptr = 0

    # ------------------------------------------------------------------
    def _route_from(self, tables: RoutingTable):
        from repro.routing.cache import DEFAULT_CACHE

        # The port matrix is routed from directly; route lookups are one
        # per worm head per hop, far off the per-flit hot path, and boxing
        # rows into Python lists costs more than every lookup combined on
        # thousand-router fabrics.
        return DEFAULT_CACHE.get_or_lower(self.net, tables, self.config.vc_count)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Packets injected (at least partly) but not yet delivered."""
        s = self.stats
        return (
            s.packets_injected
            - s.packets_delivered
            - s.packets_retried
            - s.packets_dropped
            - s.packets_failed_over
        )

    @property
    def backlog(self) -> int:
        """Packets still waiting in source queues."""
        return sum(s.backlog for s in self.sources.values())

    # ------------------------------------------------------------------
    def run(self, max_cycles: int, drain: bool = False) -> SimStats:
        """Advance the simulation (same contract as the reference engine)."""
        stats = self.stats
        remaining = max_cycles
        while remaining > 0:
            self.step()
            remaining -= 1
            if stats.deadlock_cycle is not None:
                self._flush_link_flits()
                return stats
            if remaining and self._last_moved == 0:
                remaining -= self._fast_forward(remaining, True)
        if drain:
            budget = 4 * max_cycles + 1000
            recovery = self.recovery
            while (
                self.in_flight
                or self.backlog
                or (recovery is not None and recovery.pending)
            ) and budget > 0:
                self.step(generate=False)
                if stats.deadlock_cycle is not None:
                    break
                if self._last_moved == 0:
                    # budget only burns on zero-progress cycles (matching
                    # the reference engine), so a draining backlog that
                    # keeps moving flits always completes
                    budget -= 1
                    if budget:
                        budget -= self._fast_forward(budget, False)
        stats.cycles = self.cycle
        self._flush_link_flits()
        return stats

    def _fast_forward(self, limit: int, generate: bool) -> int:
        """Skip provably-inert cycles; returns how many were skipped.

        Sound because a zero-move cycle is a fixed point whenever nothing
        external can perturb the next one: no recovery manager, no flits
        mid router pipeline, no pending fault transitions, and no traffic
        past its last admission cycle.  Stall accounting advances as if
        the cycles had run, so deadlock detection (and the stalled-
        simulation tripwire) fire at exactly the reference cycle.
        """
        if (
            self.recovery is not None
            or self.probe is not None  # cycle-exact sampling: run every cycle
            or self._pipe
            or self._fault_ptr < len(self._fault_events)
        ):
            return 0
        if generate:
            exhausted_after = getattr(self.traffic, "exhausted_after", None)
            if exhausted_after is None or self.cycle <= exhausted_after:
                return 0
        if self.in_flight or self._occ:
            threshold = self.config.stall_threshold
            stall = self._stall
            target = (
                threshold - stall - 1 if stall < threshold else 10 * threshold - stall - 1
            )
            if target <= 0:
                return 0
            skip = target if target < limit else limit
            self._stall = stall + skip
        else:
            skip = limit
        self.cycle += skip
        self.stats.cycles = self.cycle
        return skip

    # ------------------------------------------------------------------
    def step(self, generate: bool = True) -> None:
        """Execute one cycle as explicit phases over integer state."""
        cfg = self.config
        cycle = self.cycle
        stats = self.stats
        down = self._down
        chk_down = self.fault is not None

        # 0b. apply link-state transitions due by now
        fe = self._fault_events
        fp = self._fault_ptr
        if fp < len(fe):
            while fp < len(fe) and fe[fp][0] <= cycle:
                _, li, is_down = fe[fp]
                down[li] = is_down
                fp += 1
            self._fault_ptr = fp

        # 0a. recovery actions due this cycle
        if self.recovery is not None:
            self.recovery.before_cycle(self, cycle)

        # 1. traffic admission (inject phase, part 1: offered load)
        if generate:
            packets = self.packets
            sources = self.sources
            sinks = self.sinks
            for packet in self.traffic(cycle):
                if packet.src not in sources or packet.dst not in sinks:
                    raise ValueError(
                        f"traffic names unknown end node: {packet.src}->{packet.dst}"
                    )
                pid = packet.packet_id
                if pid in packets:
                    raise ValueError(
                        f"duplicate packet id {pid} (share a "
                        "SequenceCounter across composed generators)"
                    )
                packets[pid] = packet
                sources[packet.src].enqueue(packet)
                self._dst_idx[pid] = self._cn.end_index[packet.dst]
                self._size[pid] = packet.size
                stats.packets_offered += 1

        q = self._q
        occ = self._occ
        infl = self._infl

        # 0. flits leaving router pipelines land in their input FIFOs
        landings = self._pipe.pop(cycle, None)
        if landings:
            for ch, code in landings:
                q[ch].append(code)
                occ.add(ch)
                infl[ch] -= 1

        moved = 0
        cur_out = self._cur_out
        cur_pid = self._cur_pid
        V = cfg.vc_count
        cn = self._cn
        ch_router = self._ch_router
        ch_dst_is_end = self._ch_dst_is_end
        depth = cfg.buffer_depth

        # 2. route phase: desired output for every occupied input buffer
        desires: dict[int, int] = {}
        requests: dict[int, list[int]] = {}
        if occ:
            ports, lut = self._ports, self._lut
            dst_idx = self._dst_idx
            for ch in sorted(occ):
                qc = q[ch]
                if not qc:
                    continue
                out = cur_out[ch]
                if out < 0:
                    code = qc[0]
                    if code & _IDX_MASK:
                        raise RuntimeError(
                            f"body flit without worm latch at {cn.ch_key(ch)} "
                            f"(packet {code >> FLIT_INDEX_BITS})"
                        )
                    pid = code >> FLIT_INDEX_BITS
                    rtr = ch_router[ch]
                    base = lut.item(rtr, ports.item(rtr, dst_idx[pid]))
                    if base < 0:
                        base = self._slow_route(ch, pid)
                    out = (base + ch % V) if V > 1 else base
                desires[ch] = out
                rl = requests.get(out)
                if rl is None:
                    requests[out] = [ch]
                else:
                    rl.append(ch)

        # 2b. inject phase, part 2: sources drive their injection link
        injections: list[tuple[str, Flit, int]] | None = None
        inj_out = self._inj_out
        inj_ch = self._inj_ch
        for node_id, source in self._src_items:
            cursor = source.cursor
            if cursor:
                flit = cursor[0]  # inlined SourceState.next_flit fast path
            elif source.queue:
                flit = source.next_flit()
                if flit is None:
                    continue
            else:
                continue
            if flit.index == 0:  # is_head: heads and atoms carry index 0
                base = inj_ch[node_id]
                if base < 0:
                    self.net.out_links(node_id)[0]  # raises like the reference
                inj_out[node_id] = base
            out = inj_out[node_id]
            if chk_down and down[out // V]:
                continue
            if len(q[out]) >= depth:
                continue
            if injections is None:
                injections = []
            injections.append((node_id, flit, out))

        # 3. allocate phase: grants per output channel
        grants: list[tuple[int, int]] | None = None
        if requests:
            holder = self._holder
            rr = self._rr
            for out in sorted(requests):
                if chk_down and down[out // V]:
                    continue
                reqs = requests[out]
                h = holder[out]
                if h >= 0:
                    if h in reqs and (
                        ch_dst_is_end[out] or depth - len(q[out]) - infl[out] >= 1
                    ):
                        if grants is None:
                            grants = []
                        grants.append((out, h))
                else:
                    if len(reqs) == 1:
                        # single requester: head test without the sort
                        heads = reqs if not (q[reqs[0]][0] & _IDX_MASK) else ()
                    else:
                        heads = sorted(k for k in reqs if not (q[k][0] & _IDX_MASK))
                    if heads and (
                        ch_dst_is_end[out] or depth - len(q[out]) - infl[out] >= 1
                    ):
                        winner = heads[rr[out] % len(heads)]
                        rr[out] += 1
                        holder[out] = winner
                        if grants is None:
                            grants = []
                        grants.append((out, winner))

        # 4a. traverse/eject phase: execute router-to-router and ejection moves
        if grants:
            holder = self._holder
            size = self._size
            lf = self._lf
            trace = self.trace
            recovery = self.recovery
            pipe_delay = cfg.router_delay
            link_ids = cn.link_ids
            link_dst = cn.link_dst
            for out, ch in grants:
                qc = q[ch]
                code = qc.popleft()
                pid = code >> FLIT_INDEX_BITS
                idx = code & _IDX_MASK
                if idx == 0:
                    cur_out[ch] = out
                    cur_pid[ch] = pid
                is_tail = idx == size[pid] - 1
                if is_tail:
                    cur_out[ch] = -1
                    cur_pid[ch] = -1
                if not qc:
                    occ.discard(ch)
                # transfer onto `out`
                li = out // V
                lf[li] += 1
                if trace is not None and idx == 0:
                    trace.record(cycle, "traverse", pid, link_ids[li])
                if ch_dst_is_end[out]:
                    stats.flits_delivered += 1
                    if is_tail:
                        packet = self.packets[pid]
                        self.sinks[link_dst[li]].deliver(packet, cycle)
                        stats.packets_delivered += 1
                        stats.latencies.append(packet.latency)
                        if recovery is not None:
                            recovery.on_delivered(pid, cycle)
                        if trace is not None:
                            trace.record(cycle, "deliver", pid, link_dst[li])
                elif pipe_delay:
                    due = cycle + pipe_delay + 1
                    pl = self._pipe.get(due)
                    if pl is None:
                        self._pipe[due] = [(out, code)]
                    else:
                        pl.append((out, code))
                    infl[out] += 1
                else:
                    q[out].append(code)
                    occ.add(out)
                if is_tail:
                    holder[out] = -1
                moved += 1

        # 4b. inject phase, part 3: execute injections
        if injections:
            pair_seq = self._pair_sequences
            lf = self._lf
            for node_id, flit, out in injections:
                flit = self.sources[node_id].consume_flit(cycle)
                pid = flit.packet_id
                if flit.index == 0:
                    stats.packets_injected += 1
                    packet = self.packets[pid]
                    pkey = (packet.src, packet.dst)
                    seq = pair_seq.get(pkey, -1) + 1
                    packet.sequence = seq
                    pair_seq[pkey] = seq
                    if self.recovery is not None:
                        self.recovery.on_injected(pid, cycle)
                    if self.trace is not None:
                        self.trace.record(cycle, "inject", pid, node_id)
                        self.trace.record(
                            cycle, "traverse", pid, cn.link_ids[out // V]
                        )
                q[out].append((pid << FLIT_INDEX_BITS) | flit.index)
                occ.add(out)
                lf[out // V] += 1
                moved += 1

        # 5. progress / deadlock bookkeeping
        stats.flits_moved += moved
        n_occ = len(occ)
        if n_occ > stats.peak_occupied_buffers:
            stats.peak_occupied_buffers = n_occ
        if moved == 0 and (self.in_flight or occ or self._pipe):
            self._stall += 1
            if self._stall >= cfg.stall_threshold:
                self._detect_deadlock(desires)
        else:
            self._stall = 0
            # each input is granted at most once, so len(grants) counts
            # distinct granted inputs; the set is only built on demand
            n_granted = len(grants) if grants else 0
            if cycle % cfg.deadlock_check_interval == 0 and n_granted < len(desires):
                if grants:
                    granted = {ch for _, ch in grants}
                    blocked = {k: v for k, v in desires.items() if k not in granted}
                else:
                    blocked = desires
                self._detect_deadlock(blocked)
        self.cycle = cycle + 1
        stats.cycles = cycle + 1
        self._last_moved = moved
        if self.probe is not None and self.probe.due(self.cycle):
            self.probe.sample(self)

    # ------------------------------------------------------------------
    def _slow_route(self, ch: int, pid: int) -> int:
        """Resolve a ``-1`` next-channel lookup through the original table.

        Reached only when the router has no entry for the destination (or
        the entry names an uncabled port), so the reference engine's
        ``RoutingError`` / ``NetworkError`` diagnostics surface verbatim.
        """
        cn = self._cn
        router = cn.link_dst[ch // cn.vc_count]
        dest = self.packets[pid].dst
        port = self.tables.lookup(router, dest)
        out_link = self.net.out_link_on_port(router, port)
        return cn.link_index[out_link.link_id] * cn.vc_count

    def _has_wait_cycle(self, desires: dict[int, int]) -> bool:
        """O(n) cycle-existence test on the integer wait-for graph.

        Each waiting channel desires exactly one output channel, so the
        wait-for graph is functional and a colored pointer-walk decides
        existence.  Only a positive answer needs the (expensive) string
        WaitForGraph, whose cycle listing the stats/exceptions pin.
        """
        q = self._q
        color: dict[int, int] = {}  # 1 = on current walk, 2 = finished
        for start in desires:
            if start in color:
                continue
            path = []
            node = start
            while True:
                c = color.get(node)
                if c == 1:
                    return True
                if c == 2:
                    break
                nxt = desires.get(node)
                if nxt is None or not q[node]:
                    color[node] = 2
                    break
                color[node] = 1
                path.append(node)
                node = nxt
            for n in path:
                color[n] = 2
        return False

    def _detect_deadlock(self, desires: dict[int, int]) -> None:
        """Build the wait-for graph from the stalled state (reference-identical)."""
        if not self._has_wait_cycle(desires):
            if self._stall >= 10 * self.config.stall_threshold and self.recovery is None:
                self._flush_link_flits()
                raise RuntimeError(
                    f"simulation stalled {self._stall} cycles without a wait-for "
                    f"cycle at cycle {self.cycle}; in_flight={self.in_flight}"
                )
            return
        wfg = WaitForGraph()
        q = self._q
        ch_str = self._cn.ch_str
        for ch, out in desires.items():
            qc = q[ch]
            if not qc:
                continue
            wfg.add_wait(ch_str(ch), ch_str(out), packet=qc[0] >> FLIT_INDEX_BITS)
        cycle = wfg.find_deadlock()
        if cycle is not None:
            self._flush_link_flits()
            self.stats.deadlock_cycle = cycle
            self.stats.deadlock_at = self.cycle
            if self.trace is not None:
                self.trace.record(self.cycle, "deadlock", None, " -> ".join(cycle[:6]))
            self.stats.in_order_violations = self._collect_violations()
            if self.config.raise_on_deadlock:
                raise DeadlockDetected(cycle, wfg.blocked_packets(cycle), self.cycle)
        elif self._stall >= 10 * self.config.stall_threshold and self.recovery is None:
            self._flush_link_flits()
            raise RuntimeError(
                f"simulation stalled {self._stall} cycles without a wait-for "
                f"cycle at cycle {self.cycle}; in_flight={self.in_flight}"
            )

    # ------------------------------------------------------------------
    # recovery surface: worm removal and atomic table swap
    # ------------------------------------------------------------------
    def drop_packet(self, packet_id: int, at_cycle: int | None = None) -> int:
        """Remove every trace of a packet's worm from the fabric."""
        dropped = 0
        cn = self._cn
        q = self._q
        cur_out = self._cur_out
        cur_pid = self._cur_pid
        holder = self._holder
        # The worm's latches: every channel its head crossed and its tail
        # has not (only buffered channels latch).  A latch can outlive the
        # flits in its FIFO, so the scan is over the latch list itself.
        ch = -1
        while True:
            try:
                ch = cur_pid.index(packet_id, ch + 1)
            except ValueError:
                break
            out = cur_out[ch]
            if out >= 0 and cn.ch_has_output[out] and holder[out] == ch:
                holder[out] = -1
            cur_out[ch] = -1
            cur_pid[ch] = -1
        # Its flits: only non-empty FIFOs can hold any, and its flit codes
        # are exactly those in [lo, hi).
        lo = packet_id << FLIT_INDEX_BITS
        hi = lo + (1 << FLIT_INDEX_BITS)
        occ = self._occ
        for ch in list(occ):
            qc = q[ch]
            for code in qc:
                if lo <= code < hi:
                    break
            else:
                continue
            kept = [code for code in qc if not lo <= code < hi]
            dropped += len(qc) - len(kept)
            qc.clear()
            qc.extend(kept)
            if not qc:
                occ.discard(ch)
        for due, landing in list(self._pipe.items()):
            kept_landing = []
            for ch, code in landing:
                if code >> FLIT_INDEX_BITS == packet_id:
                    dropped += 1
                    self._infl[ch] -= 1
                else:
                    kept_landing.append((ch, code))
            if kept_landing:
                self._pipe[due] = kept_landing
            else:
                del self._pipe[due]
        packet = self.packets[packet_id]
        source = self.sources[packet.src]
        if source.queue and source.queue[0].packet_id == packet_id:
            if source.cursor:
                dropped += len(source.cursor)
                source.cursor = []
            source.queue.popleft()
            self._inj_out.pop(packet.src, None)
        else:
            for queued in list(source.queue):
                if queued.packet_id == packet_id:
                    source.queue.remove(queued)
        self.stats.flits_dropped += dropped
        self._stall = 0
        if self.trace is not None:
            self.trace.record(
                at_cycle if at_cycle is not None else self.cycle,
                "drop",
                packet_id,
                packet.src,
            )
        return dropped

    def requeue(self, packet_id: int) -> None:
        """Queue a timed-out packet at its source again (a retry)."""
        packet = self.packets[packet_id]
        packet.injected = None
        self.sources[packet.src].enqueue(packet)

    def packet_info(self, packet_id: int) -> tuple[str, str, int, int]:
        """The packet's ``(src, dst, size, created)``."""
        p = self.packets[packet_id]
        return p.src, p.dst, p.size, p.created

    @property
    def recovery_stats(self) -> SimStats:
        """The stats object the recovery manager counts into."""
        return self.stats

    def swap_tables(self, tables: RoutingTable) -> None:
        """Atomically install a new routing table."""
        self.tables = tables
        self._ports, self._lut = self._route_from(tables)
        self.stats.table_swaps += 1
        self._stall = 0
        if self.trace is not None:
            self.trace.record(self.cycle, "reroute", None, f"swap #{self.stats.table_swaps}")

    # ------------------------------------------------------------------
    def _collect_violations(self) -> list[str]:
        out: list[str] = []
        for sink in self.sinks.values():
            out.extend(sink.violations)
        return out

    def finalize(self) -> SimStats:
        """Collect end-of-run statistics (ordering violations etc.)."""
        self.stats.in_order_violations = self._collect_violations()
        self.stats.cycles = self.cycle
        self._flush_link_flits()
        return self.stats

    def _flush_link_flits(self) -> None:
        """Publish per-link flit counters into ``stats.link_flits``.

        Replacement (not accumulation), so flushing is idempotent and can
        run at every exit point.
        """
        link_flits = self.stats.link_flits
        link_ids = self._cn.link_ids
        for li, n in enumerate(self._lf):
            if n:
                link_flits[link_ids[li]] = n

    # ------------------------------------------------------------------
    # observability surface (see repro.obs.probe)
    # ------------------------------------------------------------------
    def link_flit_snapshot(self) -> dict[str, int]:
        """Cumulative flits per link id, as an owned copy (no flush)."""
        link_ids = self._cn.link_ids
        return {link_ids[li]: n for li, n in enumerate(self._lf) if n}

    def occupied_buffer_count(self) -> int:
        """Input FIFOs currently holding at least one flit."""
        return len(self._occ)

    # ------------------------------------------------------------------
    # reference-shaped snapshot views (read-only by construction)
    # ------------------------------------------------------------------
    def _decode(self, code: int) -> Flit:
        pid = code >> FLIT_INDEX_BITS
        idx = code & _IDX_MASK
        size = self._size[pid]
        if size == 1:
            kind = FlitKind.ATOM
        elif idx == 0:
            kind = FlitKind.HEAD
        elif idx == size - 1:
            kind = FlitKind.TAIL
        else:
            kind = FlitKind.BODY
        return Flit(pid, kind, self.packets[pid].dst, idx)

    @property
    def buffers(self) -> dict[tuple[str, int], ChannelBuffer]:
        """Fresh reference-shaped snapshot of every input FIFO + worm latch."""
        out: dict[tuple[str, int], ChannelBuffer] = {}
        cn = self._cn
        V = cn.vc_count
        depth = self.config.buffer_depth
        for ch in range(cn.num_channels):
            qc = self._q[ch]
            if qc is None:
                continue
            li, vc = divmod(ch, V)
            buf = ChannelBuffer(cn.link_ids[li], vc, depth)
            for code in qc:
                buf.fifo.append(self._decode(code))
            if self._cur_pid[ch] >= 0:
                buf.current_packet = self._cur_pid[ch]
                buf.current_out = cn.ch_key(self._cur_out[ch])
            out[(cn.link_ids[li], vc)] = buf
        return out

    @property
    def outputs(self) -> dict[tuple[str, int], OutputPort]:
        """Fresh reference-shaped snapshot of every output port's allocation."""
        out: dict[tuple[str, int], OutputPort] = {}
        cn = self._cn
        for ch in range(cn.num_channels):
            if not cn.ch_has_output[ch]:
                continue
            key = cn.ch_key(ch)
            port = OutputPort(key)
            if self._holder[ch] >= 0:
                port.holder = cn.ch_key(self._holder[ch])
            port._rr_index = self._rr[ch]
            out[key] = port
        return out
