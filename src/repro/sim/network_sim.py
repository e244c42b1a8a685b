"""The wormhole simulator proper.

One simulation couples a :class:`~repro.network.graph.Network`, compiled
routing tables, a traffic generator and a :class:`~repro.sim.engine.SimConfig`.
Each cycle:

1. new packets enter their source queues;
2. every input buffer's front flit states its desired output -- heads via
   a routing-table lookup (and VC selection), bodies via the worm latch;
3. each output (link, VC) grants: the holding worm advances if the
   downstream FIFO has a credit, or a free output is claimed round-robin
   by a requesting head;
4. granted flits traverse their links (one per channel per cycle); tails
   release outputs; ejected tails complete packets at the sinks;
5. if nothing moved while traffic is in flight, the wait-for graph is
   checked: a cycle there is a real wormhole deadlock (Figure 1, live).

The simulator enforces *nothing* about deadlock: give it tables whose
channel-dependency graph is cyclic and the right traffic, and it locks up,
which is exactly the behaviour the paper's restricted routings exist to
prevent.

Two engines implement this cycle:

* :class:`ReferenceSim` (this module) -- the original string-keyed
  interpreter, kept as the executable specification and for the hooks the
  compiled core does not model (``vc_select``, ``route_override``,
  ``on_deliver``, store-and-forward switching);
* :class:`~repro.sim.compile.SimCore` -- the integer-indexed compiled
  core, bit-identical on everything it supports and several times faster.

:func:`repro.sim.api.make_sim` picks the engine for a run and builds it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.deadlock.waitfor import WaitForGraph
from repro.network.graph import Network
from repro.routing.base import RoutingTable
from repro.sim.engine import DeadlockDetected, SimConfig
from repro.sim.fault import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.probe import SimProbe
    from repro.sim.recovery import FailoverPlan, RecoveryManager
from repro.sim.link import ChannelBuffer
from repro.sim.nic import SinkState, SourceState
from repro.sim.packet import Flit, Packet
from repro.sim.router import OutputPort
from repro.sim.stats import SimStats
from repro.sim.trace import SimTrace
from repro.sim.traffic import TrafficGenerator

__all__ = ["ReferenceSim"]

#: VC selector: (router_id, in_link_id | None, out_link_id, flit, in_vc)
#: -> out_vc.  ``in_link_id`` is None at injection.
VcSelector = Callable[[str, "str | None", str, Flit, int], int]

#: Per-head routing override: (router_id, dest, sim) -> output port, or None
#: to fall back to the tables.  This is how *adaptive* schemes ("dynamically
#: select a non-busy link", §3.3) are modelled -- and how their in-order
#: violations are demonstrated.
RouteOverride = Callable[[str, str, "ReferenceSim"], "int | None"]

#: Delivery hook: (packet, cycle) -> packets to enqueue in response.  This
#: is how request/response protocols (ServerNet DMA reads) are modelled:
#: the target NIC turns a delivered request into a response packet.
OnDeliver = Callable[[Packet, int], "list[Packet]"]


class ReferenceSim:
    """Cycle-driven wormhole simulation of one routed network.

    The reference interpreter: string-keyed, object-per-flit, and the
    executable specification the compiled core is verified against.
    """

    engine = "reference"

    def __init__(
        self,
        net: Network,
        tables: RoutingTable,
        traffic: TrafficGenerator,
        config: SimConfig | None = None,
        vc_select: VcSelector | None = None,
        fault: FaultSchedule | None = None,
        trace: SimTrace | None = None,
        route_override: RouteOverride | None = None,
        on_deliver: OnDeliver | None = None,
        failover: "FailoverPlan | None" = None,
        recovery: "RecoveryManager | None" = None,
        probe: "SimProbe | None" = None,
    ) -> None:
        self.net = net
        self.tables = tables
        self.traffic = traffic
        self.config = config or SimConfig()
        self.vc_select = vc_select
        self.fault = fault
        self.trace = trace
        self.route_override = route_override
        self.on_deliver = on_deliver
        self.probe = probe
        self.stats = SimStats()
        self.cycle = 0

        #: fault-recovery layer (see repro.sim.recovery); built implicitly
        #: when the config carries a retry/reroute policy or a failover
        #: plan is given, or injected explicitly for bespoke managers.
        self.recovery = recovery
        if recovery is None:
            from repro.sim.recovery import implied_manager

            self.recovery = implied_manager(net, tables, self.config, fault, failover)

        vcs = range(self.config.vc_count)
        #: input FIFO per (link into a router, VC)
        self.buffers: dict[tuple[str, int], ChannelBuffer] = {}
        #: allocation state per (link out of a router, VC) -- includes
        #: ejection links; injection links are driven by their source.
        self.outputs: dict[tuple[str, int], OutputPort] = {}
        for link in net.links():
            if net.node(link.dst).is_router:
                for vc in vcs:
                    self.buffers[(link.link_id, vc)] = ChannelBuffer(
                        link.link_id, vc, self.config.buffer_depth
                    )
            if net.node(link.src).is_router:
                for vc in vcs:
                    self.outputs[(link.link_id, vc)] = OutputPort((link.link_id, vc))

        self.sources = {n: SourceState(n) for n in net.end_node_ids()}
        self.sinks = {n: SinkState(n) for n in net.end_node_ids()}
        self.packets: dict[int, Packet] = {}
        self._stall = 0
        #: per-source latched injection (link, VC) for the packet mid-injection
        self._inj_out: dict[str, tuple[str, int]] = {}
        #: non-empty input buffers (the hot loop only visits these)
        self._occupied: set[tuple[str, int]] = set()
        #: flits inside router pipelines: due_cycle -> [(buffer key, flit)]
        self._pipeline: dict[int, list[tuple[tuple[str, int], Flit]]] = {}
        #: per-buffer count of pipeline flits headed its way (credit debt)
        self._inflight: dict[tuple[str, int], int] = {}
        #: per-link precomputed endpoint facts (avoids graph lookups per flit)
        self._link_dst: dict[str, str] = {}
        self._link_dst_is_end: dict[str, bool] = {}
        for link in net.links():
            self._link_dst[link.link_id] = link.dst
            self._link_dst_is_end[link.link_id] = net.node(link.dst).is_end_node
        #: per-(src, dst) sequence numbers stamped at injection time -- the
        #: in-order guarantee is relative to transmission order, so the NIC
        #: (re)numbers packets as it actually sends them (responses created
        #: mid-flight would otherwise carry creation-order stamps)
        self._pair_sequences: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Packets injected (at least partly) but not yet delivered.

        With recovery active a packet can also *leave* the network by
        being timed out: each re-transmission re-increments the injection
        count, so retried / dropped / failed-over packets are subtracted
        to keep this an exact census of worms currently in the fabric.
        """
        return (
            self.stats.packets_injected
            - self.stats.packets_delivered
            - self.stats.packets_retried
            - self.stats.packets_dropped
            - self.stats.packets_failed_over
        )

    @property
    def backlog(self) -> int:
        """Packets still waiting in source queues."""
        return sum(s.backlog for s in self.sources.values())

    def run(self, max_cycles: int, drain: bool = False) -> SimStats:
        """Advance the simulation.

        Args:
            max_cycles: cycles to run (offered traffic keeps arriving).
            drain: after ``max_cycles``, keep running (without new traffic)
                until everything offered is delivered, deadlock, or a
                safety budget of ``4 * max_cycles`` zero-progress cycles
                is exhausted.  Cycles in which flits move never count
                against the budget, so a saturated backlog always drains;
                only a stuck network (undetected livelock, recovery that
                never converges) can hit the cutoff.
        """
        for _ in range(max_cycles):
            self.step()
            if self.stats.deadlocked:
                return self.stats
        if drain:
            budget = 4 * max_cycles + 1000
            while (
                self.in_flight
                or self.backlog
                or (self.recovery is not None and self.recovery.pending)
            ) and budget > 0:
                moved_before = self.stats.flits_moved
                self.step(generate=False)
                if self.stats.deadlocked:
                    break
                if self.stats.flits_moved == moved_before:
                    budget -= 1
        self.stats.cycles = self.cycle
        return self.stats

    # ------------------------------------------------------------------
    def step(self, generate: bool = True) -> None:
        """Execute one cycle."""
        cfg = self.config
        # 0a. recovery actions due this cycle: timeouts fire (killing their
        # worms before arbitration sees them), retried packets re-enter
        # their source queues, detected faults trigger recomputation, and
        # reconverged tables swap in.
        if self.recovery is not None:
            self.recovery.before_cycle(self, self.cycle)
        # 1. traffic admission
        if generate:
            for packet in self.traffic(self.cycle):
                if packet.src not in self.sources or packet.dst not in self.sinks:
                    raise ValueError(
                        f"traffic names unknown end node: {packet.src}->{packet.dst}"
                    )
                if packet.packet_id in self.packets:
                    raise ValueError(
                        f"duplicate packet id {packet.packet_id} (share a "
                        "SequenceCounter across composed generators)"
                    )
                self.packets[packet.packet_id] = packet
                self.sources[packet.src].enqueue(packet)
                self.stats.packets_offered += 1

        # 0. flits leaving router pipelines land in their input FIFOs
        for key, flit in self._pipeline.pop(self.cycle, ()):
            self.buffers[key].push(flit)
            self._occupied.add(key)
            self._inflight[key] -= 1

        moved = 0
        saf = cfg.switching == "store_and_forward"
        # 2. desired outputs for every occupied input buffer
        desires: dict[tuple[str, int], tuple[str, int]] = {}
        requests: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for key in sorted(self._occupied):
            buf = self.buffers[key]
            flit = buf.front()
            if flit is None:
                continue
            if buf.current_out is None:
                if not flit.is_head:
                    raise RuntimeError(
                        f"body flit without worm latch at {key} (packet {flit.packet_id})"
                    )
                if saf and not self._packet_fully_buffered(buf, flit):
                    continue  # store-and-forward: wait for the tail first
                out_key = self._route_head(key, flit)
            else:
                out_key = buf.current_out
            desires[key] = out_key
            requests.setdefault(out_key, []).append(key)

        # 2b. injection desires (sources drive their single injection link)
        injections: list[tuple[str, Flit, tuple[str, int]]] = []
        for node_id, source in self.sources.items():
            flit = source.next_flit()
            if flit is None:
                continue
            if flit.is_head:
                link = self.net.out_links(node_id)[0]
                vc = 0
                if self.vc_select is not None:
                    vc = self.vc_select(node_id, None, link.link_id, flit, 0)
                self._inj_out[node_id] = (link.link_id, vc)
            out_key = self._inj_out[node_id]
            if not (self._link_up(out_key[0]) and self.buffers[out_key].has_space()):
                continue
            if saf and flit.is_head:
                packet = source.queue[0]
                if packet.size > cfg.buffer_depth:
                    raise ValueError(
                        f"store-and-forward needs buffer_depth >= packet size "
                        f"({packet.size} > {cfg.buffer_depth})"
                    )
                if self.buffers[out_key].free_slots() < packet.size:
                    continue
            injections.append((node_id, flit, out_key))

        # 3. grants per output
        grants: list[tuple[tuple[str, int], tuple[str, int]]] = []
        for out_key, reqs in sorted(requests.items()):
            port = self.outputs[out_key]
            if not self._link_up(out_key[0]):
                continue
            if port.holder is not None:
                if port.holder in reqs and self._downstream_space(out_key):
                    grants.append((out_key, port.holder))
            else:
                heads = sorted(
                    k for k in reqs if self.buffers[k].front().is_head
                )
                if saf and heads:
                    # a hop may start only when the next buffer can hold
                    # the whole packet
                    heads = [
                        k
                        for k in heads
                        if self._downstream_free(out_key)
                        >= self.packets[self.buffers[k].front().packet_id].size
                    ]
                if heads and self._downstream_space(out_key):
                    winner = port.arbitrate(heads)
                    if winner is not None:
                        grants.append((out_key, winner))

        # 4a. execute router-to-router / ejection moves
        granted_inputs: set[tuple[str, int]] = set()
        for out_key, in_key in grants:
            granted_inputs.add(in_key)
            buf = self.buffers[in_key]
            flit = buf.front()
            if flit.is_head:
                buf.current_out = out_key
                buf.current_packet = flit.packet_id
            flit = buf.pop()
            if not buf.fifo:
                self._occupied.discard(in_key)
            self._transfer(flit, out_key)
            if flit.is_tail:
                self.outputs[out_key].release()
            moved += 1

        # 4b. execute injections
        for node_id, flit, out_key in injections:
            source = self.sources[node_id]
            flit = source.consume_flit(self.cycle)
            if flit.index == 0:
                self.stats.packets_injected += 1
                packet = self.packets[flit.packet_id]
                key = (packet.src, packet.dst)
                packet.sequence = self._pair_sequences.get(key, -1) + 1
                self._pair_sequences[key] = packet.sequence
                if self.recovery is not None:
                    self.recovery.on_injected(packet.packet_id, self.cycle)
                if self.trace is not None:
                    self.trace.record(self.cycle, "inject", flit.packet_id, node_id)
                    # the injection hop is a link traversal too
                    self.trace.record(self.cycle, "traverse", flit.packet_id, out_key[0])
            self.buffers[out_key].push(flit)
            self._occupied.add(out_key)
            self.stats.link_flits[out_key[0]] = (
                self.stats.link_flits.get(out_key[0], 0) + 1
            )
            moved += 1

        # 5. progress / deadlock bookkeeping
        self.stats.flits_moved += moved
        if len(self._occupied) > self.stats.peak_occupied_buffers:
            self.stats.peak_occupied_buffers = len(self._occupied)
        if moved == 0 and (self.in_flight or self._network_occupied()):
            self._stall += 1
            if self._stall >= cfg.stall_threshold:
                self._detect_deadlock(desires)
        else:
            self._stall = 0
            # A wait-for cycle among *blocked* channels can never resolve
            # (wormhole worms release only after their tail passes), so a
            # periodic scan catches local deadlocks even while unrelated
            # traffic keeps moving.
            if (
                self.cycle % cfg.deadlock_check_interval == 0
                and len(granted_inputs) < len(desires)
            ):
                blocked = {
                    k: v for k, v in desires.items() if k not in granted_inputs
                }
                self._detect_deadlock(blocked)
        self.cycle += 1
        self.stats.cycles = self.cycle
        if self.probe is not None and self.probe.due(self.cycle):
            self.probe.sample(self)

    # ------------------------------------------------------------------
    def _route_head(self, in_key: tuple[str, int], flit: Flit) -> tuple[str, int]:
        """Routing-table lookup (plus VC selection) for a head flit."""
        link_id, in_vc = in_key
        router = self._link_dst[link_id]
        port = None
        if self.route_override is not None:
            port = self.route_override(router, flit.dest, self)
        if port is None:
            port = self.tables.lookup(router, flit.dest)
        out_link = self.net.out_link_on_port(router, port)
        vc = in_vc if self.config.vc_count > 1 else 0
        if self.vc_select is not None:
            vc = self.vc_select(router, link_id, out_link.link_id, flit, in_vc)
        return (out_link.link_id, vc)

    def _packet_fully_buffered(self, buf: ChannelBuffer, front: Flit) -> bool:
        """True when every flit of the front packet sits in this buffer."""
        count = 0
        for flit in buf.fifo:
            if flit.packet_id != front.packet_id:
                break
            count += 1
        return count >= self.packets[front.packet_id].size

    def _downstream_free(self, out_key: tuple[str, int]) -> int:
        if self._link_dst_is_end[out_key[0]]:
            return 1 << 30  # sinks absorb at any rate
        return self.buffers[out_key].free_slots() - self._inflight.get(out_key, 0)

    def _downstream_space(self, out_key: tuple[str, int]) -> bool:
        if self._link_dst_is_end[out_key[0]]:
            return True  # sinks always consume
        buf = self.buffers[out_key]
        return buf.free_slots() - self._inflight.get(out_key, 0) >= 1

    def _link_up(self, link_id: str) -> bool:
        return self.fault is None or not self.fault.is_down(link_id, self.cycle)

    def _transfer(self, flit: Flit, out_key: tuple[str, int]) -> None:
        link_id, vc = out_key
        self.stats.link_flits[link_id] = self.stats.link_flits.get(link_id, 0) + 1
        if self.trace is not None and flit.is_head:
            self.trace.record(self.cycle, "traverse", flit.packet_id, link_id)
        if self._link_dst_is_end[link_id]:
            self.stats.flits_delivered += 1
            if flit.is_tail:
                packet = self.packets[flit.packet_id]
                self.sinks[self._link_dst[link_id]].deliver(packet, self.cycle)
                self.stats.packets_delivered += 1
                self.stats.latencies.append(packet.latency)
                if self.recovery is not None:
                    self.recovery.on_delivered(packet.packet_id, self.cycle)
                if self.trace is not None:
                    self.trace.record(
                        self.cycle, "deliver", packet.packet_id, self._link_dst[link_id]
                    )
                if self.on_deliver is not None:
                    for response in self.on_deliver(packet, self.cycle):
                        self.packets[response.packet_id] = response
                        self.sources[response.src].enqueue(response)
                        self.stats.packets_offered += 1
        elif self.config.router_delay:
            # +1 because the landing cycle also executes the next move;
            # the hop then costs exactly 1 + router_delay cycles
            due = self.cycle + self.config.router_delay + 1
            self._pipeline.setdefault(due, []).append((out_key, flit))
            self._inflight[out_key] = self._inflight.get(out_key, 0) + 1
        else:
            self.buffers[out_key].push(flit)
            self._occupied.add(out_key)

    def _network_occupied(self) -> bool:
        return bool(self._occupied) or bool(self._pipeline)

    def _detect_deadlock(self, desires: dict[tuple[str, int], tuple[str, int]]) -> None:
        """Build the wait-for graph from the stalled state and look for a cycle."""
        wfg = WaitForGraph()
        for in_key, out_key in desires.items():
            buf = self.buffers[in_key]
            flit = buf.front()
            if flit is None:
                continue
            wfg.add_wait(str(in_key), str(out_key), packet=flit.packet_id)
        cycle = wfg.find_deadlock()
        if cycle is not None:
            self.stats.deadlock_cycle = cycle
            self.stats.deadlock_at = self.cycle
            if self.trace is not None:
                self.trace.record(
                    self.cycle, "deadlock", None, " -> ".join(cycle[:6])
                )
            self.stats.in_order_violations = self._collect_violations()
            if self.config.raise_on_deadlock:
                raise DeadlockDetected(cycle, wfg.blocked_packets(cycle), self.cycle)
        elif self._stall >= 10 * self.config.stall_threshold and self.recovery is None:
            # With recovery active a long stall is a legitimate state --
            # worms blocked at a down link simply wait for the timeout or
            # the table swap to free them -- so the tripwire only arms for
            # plain simulations, where it means the model leaked a credit.
            raise RuntimeError(
                f"simulation stalled {self._stall} cycles without a wait-for "
                f"cycle at cycle {self.cycle}; in_flight={self.in_flight}"
            )

    # ------------------------------------------------------------------
    # recovery surface: worm removal and atomic table swap
    # ------------------------------------------------------------------
    def drop_packet(self, packet_id: int, at_cycle: int | None = None) -> int:
        """Remove every trace of a packet's worm from the fabric.

        This is the NIC-timeout cleanup: the send side has given up on the
        packet, so its flits are purged from input FIFOs, router pipelines
        and the source's injection cursor, and every output port its worm
        held is released.  Without this, a retransmission could deadlock
        behind its own first attempt's dead flits.  Returns the number of
        flits dropped (also accumulated in ``stats.flits_dropped``).
        """
        dropped = 0
        # input FIFOs + worm latches (a latch can outlive the last flit in
        # its buffer -- head forwarded, bodies upstream -- hence the
        # explicit current_packet ownership check, not a fifo scan)
        for key, buf in self.buffers.items():
            if buf.current_packet == packet_id:
                out_key = buf.current_out
                port = self.outputs.get(out_key)
                if port is not None and port.holder == key:
                    port.release()
                buf.current_out = None
                buf.current_packet = None
            if buf.fifo and any(f.packet_id == packet_id for f in buf.fifo):
                kept = [f for f in buf.fifo if f.packet_id != packet_id]
                dropped += len(buf.fifo) - len(kept)
                buf.fifo.clear()
                buf.fifo.extend(kept)
                if not buf.fifo:
                    self._occupied.discard(key)
        # flits mid router pipeline
        for due, landing in list(self._pipeline.items()):
            kept_landing = []
            for key, flit in landing:
                if flit.packet_id == packet_id:
                    dropped += 1
                    self._inflight[key] -= 1
                else:
                    kept_landing.append((key, flit))
            if kept_landing:
                self._pipeline[due] = kept_landing
            else:
                del self._pipeline[due]
        # the injection cursor, if the packet is still (partly) at its source
        packet = self.packets[packet_id]
        source = self.sources[packet.src]
        if source.queue and source.queue[0].packet_id == packet_id:
            if source.cursor:
                dropped += len(source.cursor)
                source.cursor = []
            source.queue.popleft()
            self._inj_out.pop(packet.src, None)
        else:
            # not mid-injection; drop a queued duplicate defensively
            for queued in list(source.queue):
                if queued.packet_id == packet_id:
                    source.queue.remove(queued)
        self.stats.flits_dropped += dropped
        self._stall = 0  # freed resources; give movement a fresh window
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
        """Atomically install a new routing table.

        Takes effect for every head flit routed from the next lookup on;
        worms already latched to an output keep their path (their channels
        are held, re-routing mid-worm would interleave flits).  Heads
        parked at a down link re-route automatically: the desired output
        is recomputed every cycle until a grant latches it.
        """
        self.tables = tables
        self.stats.table_swaps += 1
        self._stall = 0
        if self.trace is not None:
            self.trace.record(self.cycle, "reroute", None, f"swap #{self.stats.table_swaps}")

    # ------------------------------------------------------------------
    # observability surface (see repro.obs.probe)
    # ------------------------------------------------------------------
    def link_flit_snapshot(self) -> dict[str, int]:
        """Cumulative flits per link id, as an owned copy."""
        return dict(self.stats.link_flits)

    def occupied_buffer_count(self) -> int:
        """Input FIFOs currently holding at least one flit."""
        return len(self._occupied)

    def _collect_violations(self) -> list[str]:
        out: list[str] = []
        for sink in self.sinks.values():
            out.extend(sink.violations)
        return out

    def finalize(self) -> SimStats:
        """Collect end-of-run statistics (ordering violations etc.)."""
        self.stats.in_order_violations = self._collect_violations()
        self.stats.cycles = self.cycle
        return self.stats

