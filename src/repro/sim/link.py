"""Channel buffers: the input FIFOs of ServerNet routers.

Each unidirectional link terminates in a small FIFO at its downstream
node (per virtual channel).  Credit-based flow control falls out of the
model: a flit may only traverse the link when the FIFO has a free slot.

The reference engine holds live ``ChannelBuffer`` objects; the compiled
core (``repro.sim.compile``) stores the same FIFOs as deques of flit ints
and materializes ``ChannelBuffer`` *snapshots* on demand through its
``buffers`` property, so inspection code works unchanged on either
engine.
"""

from __future__ import annotations

from collections import deque

from repro.sim.packet import Flit

__all__ = ["ChannelBuffer", "channel_key"]


def channel_key(link_id: str, vc: int) -> tuple[str, int]:
    """Key identifying one (physical channel, virtual channel) buffer."""
    return (link_id, vc)


class ChannelBuffer:
    """Input FIFO for one (link, VC), plus the worm-assignment latch.

    ``current_out`` remembers which output (link, VC) the worm currently
    at the front of this buffer has been switched to; it is set when the
    head flit wins allocation and cleared when the tail departs, exactly
    like the state a wormhole router keeps per input.  ``current_packet``
    records which packet owns that latch -- the buffer can be *empty* while
    the latch is live (head forwarded, bodies still upstream), so worm
    cleanup after a send-side timeout needs the owner recorded explicitly
    (see :meth:`repro.sim.network_sim.ReferenceSim.drop_packet`).
    """

    __slots__ = ("link_id", "vc", "capacity", "fifo", "current_out", "current_packet")

    def __init__(self, link_id: str, vc: int, capacity: int) -> None:
        self.link_id = link_id
        self.vc = vc
        self.capacity = capacity
        self.fifo: deque[Flit] = deque()
        self.current_out: tuple[str, int] | None = None
        self.current_packet: int | None = None

    @property
    def key(self) -> tuple[str, int]:
        return channel_key(self.link_id, self.vc)

    def has_space(self) -> bool:
        return len(self.fifo) < self.capacity

    def free_slots(self) -> int:
        return self.capacity - len(self.fifo)

    def push(self, flit: Flit) -> None:
        if not self.has_space():
            raise OverflowError(f"buffer {self.key} overflow")
        self.fifo.append(flit)

    def front(self) -> Flit | None:
        return self.fifo[0] if self.fifo else None

    def pop(self) -> Flit:
        flit = self.fifo.popleft()
        if flit.is_tail:
            self.current_out = None
            self.current_packet = None
        return flit

    def __len__(self) -> int:
        return len(self.fifo)
