"""ServerNet transactions: remote reads and writes over the fabric.

§1.0: ServerNet provides "high-speed communications from processor to
processor, processor to I/O device, or I/O device to other I/O devices".
The programming model is transactional -- a *read* sends a small request
packet and the target returns the data; a *write* sends the data and the
target returns a short acknowledgement.  This module layers that model on
the wormhole simulator via its delivery hook: when a request packet
arrives at the target NIC, the engine enqueues the response packet, and
round-trip times are collected per transaction.

This is also where the in-order guarantee earns its keep: a response can
never overtake an earlier response between the same pair, so software
needs no reassembly or reordering logic -- the "lightweight protocol" of
§2.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.graph import Network
from repro.routing.base import RoutingTable
from repro.sim.api import Simulator, make_sim
from repro.sim.engine import SimConfig
from repro.sim.packet import Packet
from repro.sim.stats import SimStats
from repro.sim.traffic import SequenceCounter

__all__ = ["Transaction", "TransactionEngine"]

#: Flit sizes mirroring ServerNet's small-request / data-payload asymmetry.
REQUEST_FLITS = 2
ACK_FLITS = 1


@dataclass
class Transaction:
    """One read or write transaction."""

    txn_id: int
    kind: str  # "read" | "write"
    initiator: str
    target: str
    data_flits: int
    issued: int
    request_packet: int | None = None
    response_packet: int | None = None
    completed: int | None = None

    @property
    def round_trip(self) -> int | None:
        if self.completed is None:
            return None
        return self.completed - self.issued


@dataclass
class TransactionEngine:
    """Issues transactions and matches responses, on top of one simulator.

    Usage::

        engine = TransactionEngine(net, tables)
        engine.read("n0", "n63", data_flits=16, at_cycle=0)
        engine.write("n5", "n10", data_flits=8, at_cycle=3)
        stats = engine.run(2000)
        assert engine.all_completed()
    """

    net: Network
    tables: RoutingTable
    config: SimConfig = field(default_factory=SimConfig)
    _counter: SequenceCounter = field(default_factory=SequenceCounter)
    _schedule: dict[int, list[Packet]] = field(default_factory=dict)
    _transactions: dict[int, Transaction] = field(default_factory=dict)
    _by_request: dict[int, Transaction] = field(default_factory=dict)
    _by_response: dict[int, Transaction] = field(default_factory=dict)
    sim: Simulator | None = None

    # ------------------------------------------------------------------
    # issuing
    # ------------------------------------------------------------------
    def read(self, initiator: str, target: str, data_flits: int, at_cycle: int = 0) -> Transaction:
        """Remote read: small request out, ``data_flits`` response back."""
        return self._issue("read", initiator, target, data_flits, at_cycle)

    def write(self, initiator: str, target: str, data_flits: int, at_cycle: int = 0) -> Transaction:
        """Remote write: ``data_flits`` request out, short ack back."""
        return self._issue("write", initiator, target, data_flits, at_cycle)

    def _issue(
        self, kind: str, initiator: str, target: str, data_flits: int, at_cycle: int
    ) -> Transaction:
        if self.sim is not None:
            raise RuntimeError("issue all transactions before run()")
        if data_flits < 1:
            raise ValueError("data_flits must be >= 1")
        txn = Transaction(
            txn_id=len(self._transactions),
            kind=kind,
            initiator=initiator,
            target=target,
            data_flits=data_flits,
            issued=at_cycle,
        )
        request_size = REQUEST_FLITS if kind == "read" else data_flits
        packet = self._counter.make(initiator, target, request_size, at_cycle)
        txn.request_packet = packet.packet_id
        self._transactions[txn.txn_id] = txn
        self._by_request[packet.packet_id] = txn
        self._schedule.setdefault(at_cycle, []).append(packet)
        return txn

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int) -> SimStats:
        """Simulate until every transaction completes (or budget expires)."""

        def traffic(cycle: int) -> list[Packet]:
            return self._schedule.pop(cycle, [])

        def on_deliver(packet: Packet, cycle: int) -> list[Packet]:
            txn = self._by_request.get(packet.packet_id)
            if txn is not None:
                # the target NIC answers: data for reads, an ack for writes
                size = txn.data_flits if txn.kind == "read" else ACK_FLITS
                response = self._counter.make(txn.target, txn.initiator, size, cycle)
                txn.response_packet = response.packet_id
                self._by_response[response.packet_id] = txn
                return [response]
            txn = self._by_response.get(packet.packet_id)
            if txn is not None:
                txn.completed = cycle
            return []

        self.sim = make_sim(
            self.net, self.tables, traffic, self.config, on_deliver=on_deliver
        )
        return self.sim.run(max_cycles, drain=True)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def transactions(self) -> list[Transaction]:
        return list(self._transactions.values())

    def all_completed(self) -> bool:
        return all(t.completed is not None for t in self._transactions.values())

    def round_trips(self) -> list[int]:
        return [t.round_trip for t in self._transactions.values() if t.round_trip is not None]
