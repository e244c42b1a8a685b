"""Link fault schedules: failures, repairs, and transient (flapping) faults.

ServerNet's dual-fabric designs exist because links fail; the simulator
lets experiments take links down mid-run and observe the consequences
(blocked worms with static tables; clean failover when traffic moves to
the second fabric).  The schedule is a full timeline, not a one-way
switch: links can be repaired (a cable re-seated, a router card swapped)
or flap (down then up), which is what drives the recovery subsystem --
every transition is a cycle at which detection, re-routing and table
reconvergence may have to happen (see :mod:`repro.sim.recovery`).
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

from repro.network.graph import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["FaultSchedule", "random_cable_schedule"]


class FaultSchedule:
    """A timeline of unidirectional link state changes.

    Each link carries a sorted list of ``(cycle, down)`` transitions; the
    link's state at cycle ``c`` is the last transition at or before ``c``
    (links start up).  ``fail_*`` appends a down transition, ``repair_*``
    an up transition, and ``flap_*`` a down/up pair -- the transient fault
    of a marginal cable.
    """

    def __init__(self) -> None:
        #: per-link sorted transitions: (cycle, True=down / False=up)
        self._events: dict[str, list[tuple[int, bool]]] = {}

    # ------------------------------------------------------------------
    # schedule construction
    # ------------------------------------------------------------------
    def _add(self, link_id: str, at_cycle: int, down: bool) -> None:
        if at_cycle < 0:
            raise ValueError("fault cycles must be >= 0")
        events = self._events.setdefault(link_id, [])
        bisect.insort(events, (at_cycle, down))

    def fail_link(self, link_id: str, at_cycle: int = 0) -> "FaultSchedule":
        """Fail one unidirectional channel from ``at_cycle`` onward."""
        self._add(link_id, at_cycle, True)
        return self

    def repair_link(self, link_id: str, at_cycle: int) -> "FaultSchedule":
        """Bring one unidirectional channel back up from ``at_cycle`` onward."""
        self._add(link_id, at_cycle, False)
        return self

    def fail_cable(self, net: Network, link_id: str, at_cycle: int = 0) -> "FaultSchedule":
        """Fail both directions of a cable (the common physical failure)."""
        link = net.link(link_id)
        self._add(link.link_id, at_cycle, True)
        self._add(link.reverse_id, at_cycle, True)
        return self

    def repair_cable(self, net: Network, link_id: str, at_cycle: int) -> "FaultSchedule":
        """Repair both directions of a cable from ``at_cycle`` onward."""
        link = net.link(link_id)
        self._add(link.link_id, at_cycle, False)
        self._add(link.reverse_id, at_cycle, False)
        return self

    def flap_link(self, link_id: str, down_at: int, up_at: int) -> "FaultSchedule":
        """Transient fault: one direction down at ``down_at``, up at ``up_at``."""
        if up_at <= down_at:
            raise ValueError("flap must repair strictly after it fails")
        return self.fail_link(link_id, down_at).repair_link(link_id, up_at)

    def flap_cable(
        self, net: Network, link_id: str, down_at: int, up_at: int
    ) -> "FaultSchedule":
        """Transient cable fault: both directions down, then both repaired."""
        if up_at <= down_at:
            raise ValueError("flap must repair strictly after it fails")
        return self.fail_cable(net, link_id, down_at).repair_cable(net, link_id, up_at)

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def is_down(self, link_id: str, cycle: int) -> bool:
        events = self._events.get(link_id)
        if not events:
            return False
        # state = last transition at or before `cycle`; (cycle, True) sorts
        # after (cycle, False), so a same-cycle fail+repair resolves to down.
        idx = bisect.bisect_right(events, (cycle, True))
        return events[idx - 1][1] if idx else False

    def down_links(self, cycle: int) -> set[str]:
        """All unidirectional links down at ``cycle``."""
        return {l for l in self._events if self.is_down(l, cycle)}

    def transition_cycles(self) -> list[int]:
        """Sorted cycles at which any link's state may change.

        These are the instants a recovery layer has to react to: each one
        potentially changes the down-link set the routing must avoid.
        """
        return sorted({c for events in self._events.values() for c, _ in events})

    def events(self) -> dict[str, list[tuple[int, bool]]]:
        """Copy of the full per-link transition timeline."""
        return {l: list(ev) for l, ev in self._events.items()}

    def state_changes(self, link_index: dict[str, int]) -> list[tuple[int, int, bool]]:
        """The timeline as sorted ``(cycle, link index, down)`` state changes.

        Only links in ``link_index`` count, and only transitions that flip
        a link's state.  Applying every change at or before cycle ``c``
        gives exactly :meth:`is_down` at ``c``, which is how the compiled
        and vectorized cores step their down masks with a pointer.
        """
        changes: list[tuple[int, int, bool]] = []
        for link_id, events in self._events.items():
            li = link_index.get(link_id)
            if li is None:
                continue
            prev = False
            for c in sorted({c for c, _ in events}):
                now = self.is_down(link_id, c)
                if now != prev:
                    changes.append((c, li, now))
                    prev = now
        changes.sort()
        return changes

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultSchedule {len(self._events)} links, "
            f"{sum(len(e) for e in self._events.values())} transitions>"
        )


def random_cable_schedule(
    net: Network,
    count: int,
    rng: "np.random.Generator",
    at_cycle: int = 0,
    repair_at: int | None = None,
) -> FaultSchedule:
    """Fail ``count`` distinct random router-to-router cables at ``at_cycle``.

    The cable population is sorted so the same ``rng`` state always picks
    the same cables -- the determinism contract of the sweep runner.  With
    ``repair_at`` the cables come back up, turning the schedule into one
    fail/repair episode (the shape the recovery experiments use).
    """
    cables = sorted({min(l.link_id, l.reverse_id) for l in net.router_links()})
    picks = rng.choice(len(cables), size=min(count, len(cables)), replace=False)
    schedule = FaultSchedule()
    for i in sorted(int(p) for p in picks):
        schedule.fail_cable(net, cables[i], at_cycle)
        if repair_at is not None:
            schedule.repair_cable(net, cables[i], repair_at)
    return schedule
