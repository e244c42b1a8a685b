"""Periodic in-run sampling: per-link utilization and buffer occupancy.

A :class:`SimProbe` attaches to either scalar engine (``make_sim(...,
probe=...)``) and snapshots the counters the aggregate
:class:`~repro.sim.stats.SimStats` collapses away: *which* links carried
the flits, *when* the buffers filled up.  Samples are taken at the end of
every ``sample_interval``-th cycle, on the engine's own clock, so the
timeline is a pure function of the simulated work:

* both engines sample identical values at identical cycles (the
  compiled core disables its idle fast-forward while a probe is
  attached, trading speed for cycle-exact sampling);
* a sweep's per-point timelines are identical at ``jobs=1`` and
  ``jobs=N`` because each point's probe lives inside its own task.

Sampling is **off by default**: a disabled probe costs the engines one
``is None`` test per cycle (measured well under the 2% overhead budget
for the compiled core).
"""

from __future__ import annotations

from typing import Any

__all__ = ["SimProbe"]


class SimProbe:
    """Collects cycle-stamped samples from a running simulation.

    Each sample records the cumulative per-link flit counts plus the
    instantaneous occupancy/progress counters; :meth:`timeline_rows`
    differentiates consecutive samples into per-interval link
    utilization (flits per cycle per link, 1.0 = fully busy).
    """

    def __init__(self, sample_interval: int) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1 cycle")
        self.sample_interval = sample_interval
        self.samples: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # engine-facing surface
    # ------------------------------------------------------------------
    def due(self, cycle: int) -> bool:
        """True when the cycle that just completed should be sampled."""
        return cycle % self.sample_interval == 0

    def sample(self, sim) -> None:
        """Snapshot one cycle boundary (the engines call this)."""
        stats = sim.stats
        self.samples.append(
            {
                "cycle": sim.cycle,
                "occupied_buffers": sim.occupied_buffer_count(),
                "in_flight": sim.in_flight,
                "backlog": sim.backlog,
                "packets_delivered": stats.packets_delivered,
                "flits_delivered": stats.flits_delivered,
                "flits_moved": stats.flits_moved,
                "link_flits": sim.link_flit_snapshot(),
            }
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def timeline_rows(self, **labels: Any) -> list[dict[str, Any]]:
        """One row per sample: occupancy plus per-link utilization.

        ``link_utilization`` maps link id -> flits moved on that link
        during the sample's interval, divided by the interval (so 1.0 is
        a link that moved a flit every cycle).  The first sample's window
        starts at cycle 0.  ``labels`` (e.g. ``rate=0.05``) are folded
        into every row so sweep timelines stay self-describing.
        """
        rows: list[dict[str, Any]] = []
        prev_links: dict[str, int] = {}
        prev_cycle = 0
        for s in self.samples:
            window = s["cycle"] - prev_cycle
            links = s["link_flits"]
            util = {
                link: round((count - prev_links.get(link, 0)) / window, 9)
                for link, count in sorted(links.items())
                if count != prev_links.get(link, 0)
            }
            rows.append(
                {
                    "kind": "sample",
                    **labels,
                    "cycle": s["cycle"],
                    "occupied_buffers": s["occupied_buffers"],
                    "in_flight": s["in_flight"],
                    "backlog": s["backlog"],
                    "packets_delivered": s["packets_delivered"],
                    "flits_delivered": s["flits_delivered"],
                    "flits_moved": s["flits_moved"],
                    "link_utilization": util,
                }
            )
            prev_links = links
            prev_cycle = s["cycle"]
        return rows

    def peak_link_utilization(self) -> dict[str, float]:
        """Per-link maximum interval utilization across the whole run."""
        peaks: dict[str, float] = {}
        for row in self.timeline_rows():
            for link, util in row["link_utilization"].items():
                if util > peaks.get(link, 0.0):
                    peaks[link] = util
        return peaks

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimProbe interval={self.sample_interval} "
            f"samples={len(self.samples)}>"
        )
