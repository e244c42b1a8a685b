"""Virtual-channel assignment: the Dally & Seitz alternative (§2.1).

The paper rejects virtual channels for router cost ("multiple packet
buffers at each router stage ... buffering space may dominate the area of
a typical router"), but they are the canonical fix for ring/torus
dimension-order routing, so the simulator supports them and this module
provides the classic *dateline* discipline:

each ring (each wrapped dimension) designates its wrap-around link as the
dateline; packets travel the ring on VC 0 and switch to VC 1 when they
cross it.  No worm can hold a full turn of any ring on a single VC, so
the per-VC channel dependencies are acyclic.
"""

from __future__ import annotations

from repro.network.graph import Network
from repro.sim.packet import Flit

__all__ = ["dateline_vc_select", "vc_for_route"]


def dateline_vc_select(net: Network):
    """VC selector (for :class:`~repro.sim.network_sim.ReferenceSim`) that
    implements per-ring datelines on a torus/ring built by our mesh
    builder (wrap links carry a ``wraparound`` attribute).

    Rules, evaluated at each head-flit routing decision:

    * entering a new dimension (or injecting) resets to VC 0;
    * crossing a wrap-around link switches to VC 1;
    * otherwise the worm keeps its current VC.
    """

    def select(
        router_id: str,
        in_link_id: str | None,
        out_link_id: str,
        flit: Flit,
        in_vc: int,
    ) -> int:
        link = net.link(out_link_id)
        out_dim = link.attrs.get("dim")
        if out_dim is None:
            return 0  # ejection (or non-dimensional link)
        in_dim = (
            net.link(in_link_id).attrs.get("dim") if in_link_id is not None else None
        )
        vc = in_vc if in_dim == out_dim else 0  # new ring -> back to VC 0
        if link.attrs.get("wraparound"):
            vc = 1  # crossed this ring's dateline
        return vc

    return select


def vc_for_route(net: Network, links: tuple[str, ...], vc_count: int = 2) -> list[int]:
    """Offline replay of :func:`dateline_vc_select` over a route's links.

    Returns the VC used on each link, for building VC-aware channel
    dependency graphs without running the simulator.
    """
    vcs: list[int] = []
    vc = 0
    current_dim: int | None = None
    for link_id in links:
        link = net.link(link_id)
        if not (net.node(link.src).is_router and net.node(link.dst).is_router):
            vcs.append(0)  # injection/ejection channels
            continue
        dim = link.attrs.get("dim")
        if dim != current_dim:
            vc = 0
            current_dim = dim
        if link.attrs.get("wraparound"):
            vc = 1
        if vc >= vc_count:
            raise ValueError("route needs more virtual channels than available")
        vcs.append(vc)
    return vcs
