"""The lightweight in-order session layer (§2.1, §3.3).

ServerNet eliminates software protocol overhead by guaranteeing in-order
delivery in hardware: "the lightweight protocol implemented over these
networks cannot tolerate out of order delivery of packets", and "a typical
need for in-order delivery is in the delivery of an I/O interrupt packet
that must follow the data transfer from a controller".

:class:`SessionLayer` models that contract on top of simulation results:
a *transfer* is a data packet train followed by an interrupt packet, and
the transfer is correct only if every packet of the train arrives, in
order, with the interrupt last.  This is the check that makes adaptive
"pick a non-busy link" routing unacceptable (§3.3) -- run it over a
simulator with per-packet path diversity and it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.api import Simulator

__all__ = ["SessionLayer", "TransferOutcome"]


@dataclass(frozen=True)
class TransferOutcome:
    """Verdict for one logical transfer."""

    src: str
    dst: str
    packets: int
    delivered: int
    in_order: bool
    interrupt_last: bool

    @property
    def ok(self) -> bool:
        return self.delivered == self.packets and self.in_order and self.interrupt_last


class SessionLayer:
    """Post-hoc verification of the in-order transfer contract."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def verify_transfer(
        self, src: str, dst: str, interrupt_packet_id: int | None = None
    ) -> TransferOutcome:
        """Check all (src, dst) packets arrived complete and in order.

        Args:
            interrupt_packet_id: if given, this packet (the I/O interrupt)
                must be the last of the pair's deliveries.
        """
        packets = sorted(
            (p for p in self.sim.packets.values() if p.src == src and p.dst == dst),
            key=lambda p: p.sequence,
        )
        delivered = [p for p in packets if p.delivered is not None]
        deliveries = sorted(delivered, key=lambda p: (p.delivered, p.sequence))
        in_order = all(
            a.sequence < b.sequence for a, b in zip(deliveries, deliveries[1:])
        )
        interrupt_last = True
        if interrupt_packet_id is not None and deliveries:
            interrupt_last = deliveries[-1].packet_id == interrupt_packet_id
        return TransferOutcome(
            src=src,
            dst=dst,
            packets=len(packets),
            delivered=len(delivered),
            in_order=in_order,
            interrupt_last=interrupt_last,
        )

    def verify_all(self) -> list[TransferOutcome]:
        """Verify every (src, dst) pair that exchanged traffic."""
        pairs = sorted({(p.src, p.dst) for p in self.sim.packets.values()})
        return [self.verify_transfer(s, d) for s, d in pairs]

    def all_ok(self) -> bool:
        return all(t.ok for t in self.verify_all())
