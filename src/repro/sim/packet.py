"""Packets and flits.

ServerNet links are byte-serial; a *flit* here is the unit that advances
one link per cycle.  Wormhole switching gives flits three roles: the HEAD
carries the destination and claims channels, BODY flits follow, and the
TAIL releases the channels.  Single-flit packets use ATOM (head and tail
in one).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = ["Flit", "FlitKind", "Packet", "PacketRecords"]


class FlitKind(Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    ATOM = "atom"  # single-flit packet: head and tail at once


@dataclass(frozen=True)
class Flit:
    """One link-transfer unit of a packet."""

    packet_id: int
    kind: FlitKind
    dest: str
    index: int  # position within the packet, 0 = head

    @property
    def is_head(self) -> bool:
        return self.kind in (FlitKind.HEAD, FlitKind.ATOM)

    @property
    def is_tail(self) -> bool:
        return self.kind in (FlitKind.TAIL, FlitKind.ATOM)


@dataclass
class Packet:
    """A transfer between two end nodes.

    Attributes:
        packet_id: globally unique id.
        src / dst: end node ids.
        size: length in flits (>= 1).
        created: cycle the packet entered its source queue.
        sequence: per (src, dst) sequence number, used to verify ServerNet's
            in-order delivery guarantee at the sink.
        injected / delivered: cycle stamps filled in by the simulator
            (first flit onto the network / tail consumed at the sink).
    """

    packet_id: int
    src: str
    dst: str
    size: int
    created: int
    sequence: int = 0
    injected: int | None = None
    delivered: int | None = None

    def flits(self) -> list[Flit]:
        """Materialize the packet's flit train."""
        if self.size < 1:
            raise ValueError("packets need at least one flit")
        if self.size == 1:
            return [Flit(self.packet_id, FlitKind.ATOM, self.dst, 0)]
        out = [Flit(self.packet_id, FlitKind.HEAD, self.dst, 0)]
        out.extend(
            Flit(self.packet_id, FlitKind.BODY, self.dst, i)
            for i in range(1, self.size - 1)
        )
        out.append(Flit(self.packet_id, FlitKind.TAIL, self.dst, self.size - 1))
        return out

    @property
    def latency(self) -> int | None:
        """Creation-to-delivery latency in cycles (None while in flight)."""
        if self.delivered is None:
            return None
        return self.delivered - self.created


class PacketRecords(NamedTuple):
    """A run's packets as int64 columns in packet-id order.

    ``delivered`` is ``-1`` for a packet still in flight.  The sweep window
    summary reads only these three columns, so it never needs a
    :class:`Packet` object per packet.
    """

    created: np.ndarray
    delivered: np.ndarray
    size: np.ndarray

    @classmethod
    def of(cls, packets: dict[int, Packet]) -> PacketRecords:
        """The columns of a ``{packet_id: Packet}`` dict."""
        ordered = [packets[pid] for pid in sorted(packets)]
        n = len(ordered)
        return cls(
            np.fromiter((p.created for p in ordered), np.int64, n),
            np.fromiter(
                (-1 if p.delivered is None else p.delivered for p in ordered),
                np.int64,
                n,
            ),
            np.fromiter((p.size for p in ordered), np.int64, n),
        )
