"""Optional event tracing for the wormhole simulator.

A :class:`SimTrace` attached to a simulator (``make_sim(..., trace=...)``)
records injections, link traversals, deliveries and deadlock, bounded to a
maximum event count.  Traces answer the debugging questions the aggregate
stats cannot: *where was packet 17 at cycle 200?  which worm held the
contested link?*  The text rendering doubles as a teaching aid for the
Figure 1 walk-through.

The bound is a **ring**: when the buffer is full the *oldest* event is
evicted to make room for the new one, so a trace read after a long run
shows the most recent window -- the part that explains the failure you are
debugging -- with :attr:`SimTrace.dropped` counting the evicted prefix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

__all__ = ["SimTrace", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One simulator event."""

    cycle: int
    kind: str  # "inject" | "traverse" | "deliver" | "deadlock"
    packet_id: int | None
    where: str  # node id, link id, or cycle description

    def __str__(self) -> str:  # pragma: no cover - display helper
        pid = f"p{self.packet_id}" if self.packet_id is not None else "-"
        return f"[{self.cycle:6d}] {self.kind:8s} {pid:6s} {self.where}"


class SimTrace:
    """Bounded in-memory event log keeping the most recent events.

    ``max_events`` caps memory; once exceeded, each new event evicts the
    oldest one and bumps :attr:`dropped`.  Everything still present is in
    time order, and ``dropped`` tells you how long the evicted prefix was.
    """

    def __init__(self, max_events: int = 100_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self._events: deque[TraceEvent] = deque(maxlen=max_events)
        self.dropped = 0

    # ------------------------------------------------------------------
    # recording (called by the simulator)
    # ------------------------------------------------------------------
    def record(self, cycle: int, kind: str, packet_id: int | None, where: str) -> None:
        if len(self._events) == self.max_events:
            self.dropped += 1  # the append below evicts the oldest event
        self._events.append(TraceEvent(cycle, kind, packet_id, where))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def for_packet(self, packet_id: int) -> list[TraceEvent]:
        """Every retained event of one packet, in time order."""
        return [e for e in self._events if e.packet_id == packet_id]

    def at_cycle(self, cycle: int) -> list[TraceEvent]:
        return [e for e in self._events if e.cycle == cycle]

    def packet_path(self, packet_id: int) -> list[str]:
        """The links a packet's head traversed (from traverse events)."""
        seen: list[str] = []
        for event in self._events:
            if (
                event.packet_id == packet_id
                and event.kind == "traverse"
                and event.where not in seen
            ):
                seen.append(event.where)
        return seen

    def deadlock_events(self) -> list[TraceEvent]:
        return [e for e in self._events if e.kind == "deadlock"]

    def render(self, packet_id: int | None = None, limit: int = 50) -> str:
        """Readable transcript (optionally filtered to one packet).

        The ring keeps the *newest* window, and so does the rendering:
        when more than ``limit`` events are retained, the **tail** is
        shown and the elided (older) prefix is noted at the head, right
        after any note about events the ring itself already evicted.
        """
        if packet_id is not None:
            events = self.for_packet(packet_id)
        else:
            events = list(self._events)
        lines: list[str] = []
        if self.dropped:
            lines.append(
                f"... {self.dropped} older events dropped (ring buffer full)"
            )
        if len(events) > limit:
            lines.append(f"... {len(events) - limit} more events elided")
        lines.extend(str(e) for e in events[-limit:])
        return "\n".join(lines)
