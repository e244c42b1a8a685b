"""Convenience builder for assembling networks of uniform routers.

Topology modules use :class:`NetworkBuilder` so that every construction
shares the same conventions: routers with a common radix, end nodes with a
single port, and links cabled onto the lowest free ports.
"""

from __future__ import annotations

from typing import Any

from repro.network.graph import LinkPair, Network

__all__ = ["NetworkBuilder"]


class NetworkBuilder:
    """Incrementally build a :class:`~repro.network.graph.Network`.

    Args:
        name: name recorded on the resulting network.
        router_radix: default port count for routers added through the
            builder (6 for first-generation ServerNet).
    """

    def __init__(self, name: str, router_radix: int = 6) -> None:
        self.net = Network(name)
        self.router_radix = router_radix
        self.net.attrs["router_radix"] = router_radix

    # ------------------------------------------------------------------
    def router(self, node_id: str, num_ports: int | None = None, **attrs: Any) -> str:
        """Add a router (default radix) and return its id."""
        self.net.add_router(node_id, num_ports or self.router_radix, **attrs)
        return node_id

    def end_node(self, node_id: str, **attrs: Any) -> str:
        """Add a single-ported end node and return its id."""
        self.net.add_end_node(node_id, 1, **attrs)
        return node_id

    def cable(self, a: str, b: str, **attrs: Any) -> LinkPair:
        """Duplex-connect ``a`` and ``b`` on their lowest free ports."""
        return self.net.connect_next_free(a, b, **attrs)

    def cable_ports(
        self, a: str, a_port: int, b: str, b_port: int, **attrs: Any
    ) -> LinkPair:
        """Duplex-connect explicit ports (used when port numbering matters)."""
        return self.net.connect(a, a_port, b, b_port, **attrs)

    def attach_end_nodes(self, router_id: str, count: int, prefix: str = "n") -> list[str]:
        """Attach ``count`` fresh end nodes to a router.

        End nodes are named ``{prefix}{i}`` with a global running index so
        identifiers stay unique across routers.
        """
        created: list[str] = []
        base = self.net.num_end_nodes
        for i in range(count):
            nid = f"{prefix}{base + i}"
            self.end_node(nid)
            self.cable(nid, router_id)
            created.append(nid)
        return created

    def fully_connect(self, router_ids: list[str], **attrs: Any) -> list[LinkPair]:
        """Cable every pair of the given routers (a complete graph).

        This is the paper's basic building block: a fully-connected assembly
        of routers (Figure 3), of which the 4-router tetrahedron is the
        preferred instance.
        """
        pairs = []
        for i, a in enumerate(router_ids):
            for b in router_ids[i + 1 :]:
                pairs.append(self.cable(a, b, **attrs))
        return pairs

    def build(self) -> Network:
        """Return the assembled network."""
        return self.net
