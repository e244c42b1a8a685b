"""Turn-level path disables and cycle-breaking synthesis.

ServerNet routers have *path disable logic* that can forbid forwarding from
an input port to an output port even when the routing table asks for it
(§2.4).  A (input link, output link) pair through a router is a **turn**;
prohibiting turns is strictly more expressive than removing whole links:

* Figure 2 disables six (double-ended) paths of a 3-cube, yet the cube
  stays connected and its upper links are still "used only to communicate
  with the top node" -- only *through* traffic is forbidden, i.e. turns.
* §2.4 uses disables to enforce the fractahedral routing's loop freedom
  even against corrupted routing tables.

Because ServerNet routing tables are destination-indexed (they cannot see
the input port), a prohibited turn ``x -> r -> y`` is honoured
*conservatively* when compiling tables: router ``r`` only forwards onto
``y`` for destinations where **every** physical arrival at ``r`` may turn
onto ``y``.  The synthesized sets produced here always have that form
(whole-output or whole-input prohibitions at a router), so conservatism
costs nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable, ejections

__all__ = [
    "TurnSet",
    "allowed_turn_graph",
    "break_cycles_with_turns",
    "turn_restricted_tables",
]


class TurnSet:
    """A set of prohibited turns, stored as (in_link_id, out_link_id) pairs."""

    def __init__(self, turns: Iterable[tuple[str, str]] = ()) -> None:
        self._turns: set[tuple[str, str]] = set(turns)

    def prohibit(self, in_link: str, out_link: str) -> None:
        self._turns.add((in_link, out_link))

    def prohibit_bidirectional(self, net: Network, in_link: str, out_link: str) -> None:
        """Prohibit a turn and its reverse (the "double-ended arrow" form).

        The reverse of the turn ``a->r->b`` is ``b->r->a``: traffic coming
        back the other way through the same router.
        """
        self._turns.add((in_link, out_link))
        rev_in = net.link(out_link).reverse_id
        rev_out = net.link(in_link).reverse_id
        self._turns.add((rev_in, rev_out))

    def prohibit_through_router(self, net: Network, router: str) -> None:
        """Prohibit every router-to-router through turn at ``router``.

        End-node traffic (injection/ejection) is unaffected, so the router's
        links end up "used only to communicate with" its own nodes -- the
        Figure 2 upper-link behaviour.
        """
        in_links = [l for l in net.in_links(router) if net.node(l.src).is_router]
        out_links = [l for l in net.out_links(router) if net.node(l.dst).is_router]
        for lin in in_links:
            for lout in out_links:
                if lin.reverse_id != lout.link_id:  # U-turns are banned anyway
                    self._turns.add((lin.link_id, lout.link_id))

    def is_prohibited(self, in_link: str, out_link: str) -> bool:
        return (in_link, out_link) in self._turns

    def turns(self) -> set[tuple[str, str]]:
        return set(self._turns)

    def __len__(self) -> int:
        return len(self._turns)

    def __contains__(self, turn: tuple[str, str]) -> bool:
        return turn in self._turns


def turn_restricted_tables(
    net: Network, prohibited: TurnSet, tie_break=None
) -> RoutingTable:
    """Routing tables that honour prohibited turns exactly.

    For each destination a reverse BFS builds the in-tree *through allowed
    turns only*: when router ``r`` has adopted out-link ``y`` for the
    destination, a parent ``x`` may attach via link ``a = x -> r`` only if
    the turn ``(a, y)`` is permitted (and is not a U-turn).  Because all
    traffic for a destination follows the in-tree, the arrivals at ``r``
    are exactly the attached parent links, so the compiled tables never
    ask the hardware for a disabled path.

    Routes are hop-minimal subject to the greedy out-link adoption (each
    router keeps the first out-link that reached it).

    Raises:
        RoutingError: if the restriction makes some destination unreachable.
    """
    tables = RoutingTable(net)
    routers = set(net.router_ids())

    def breaker(dest: str, link) -> tuple:
        if tie_break is not None:
            return tie_break(dest, link)
        return (link.src, link.src_port)

    router_in_links: dict[str, list] = {
        r: [l for l in net.in_links(r) if net.node(l.src).is_router]
        for r in routers
    }

    for dest, dest_router, port, ejection in ejections(net).ends(net):
        tables.set(dest_router, dest, port)

        #: out-link each reached router adopted for this destination
        adopted: dict[str, str] = {dest_router: ejection}
        dist: dict[str, int] = {dest_router: 0}
        queue: deque[str] = deque([dest_router])
        while queue:
            current = queue.popleft()
            out_link_id = adopted[current]
            for link in sorted(
                router_in_links[current], key=lambda l: breaker(dest, l)
            ):
                if link.src in dist:
                    continue
                if link.reverse_id == out_link_id:
                    continue  # U-turn
                if prohibited.is_prohibited(link.link_id, out_link_id):
                    continue
                dist[link.src] = dist[current] + 1
                adopted[link.src] = link.link_id
                tables.set(link.src, dest, link.src_port)
                queue.append(link.src)
        missing = routers - dist.keys()
        if missing:
            raise RoutingError(
                f"turn restrictions make {dest!r} unreachable from "
                f"{sorted(missing)[0]!r} (+{len(missing) - 1} more)"
            )
    return tables


def allowed_turn_graph(net: Network, prohibited: TurnSet):
    """The *physical* channel-dependency possibility graph.

    Vertices are router-to-router channels; there is an edge ``a -> b``
    whenever some packet could hold ``a`` while waiting for ``b`` under
    *some* routing table: ``b`` continues ``a`` at a router, the turn is
    not a U-turn, and the disable registers allow it.  If this graph is
    acyclic, **every** table respecting the disables is deadlock-free --
    the hardware-level guarantee §2.4 describes ("even if the routing
    table is corrupted by a fault").
    """
    import networkx as nx

    g = nx.DiGraph()
    for link in net.router_links():
        g.add_node(link.link_id)
    for a in net.router_links():
        for b in net.out_links(a.dst):
            if not net.node(b.dst).is_router:
                continue
            if b.link_id == a.reverse_id:
                continue  # U-turn
            if prohibited.is_prohibited(a.link_id, b.link_id):
                continue
            g.add_edge(a.link_id, b.link_id)
    return g


def break_cycles_with_turns(
    net: Network,
    prefer_routers: Iterable[str] = (),
    max_rounds: int = 256,
    tie_break=None,
    bidirectional: bool = True,
) -> tuple[TurnSet, RoutingTable]:
    """Synthesize path disables making the network *hardware* deadlock-free.

    Greedy loop over the physical allowed-turn graph (not any particular
    table): while it has a cycle, prohibit one turn on it -- preferring
    turns at routers listed in ``prefer_routers`` (Figure 2 prefers the
    routers near the "top" node so the upper links end up lightly used)
    and skipping choices that would make some destination unreachable.

    Args:
        bidirectional: prohibit each turn together with its reverse (the
            figure's "double-ended arrows", which keeps routes reflexive
            but skews utilization), or singly (§2.2's "twelve single-ended
            arrows" alternative: utilization can stay even, but "the path
            from A to B may be different than the path from B to A").

    Returns the synthesized turn set and shortest-path tables compiled
    under it.  Because the *physical* graph is acyclic, any other table
    respecting the disables is deadlock-free too.
    """
    import networkx as nx

    preference = {r: i for i, r in enumerate(prefer_routers)}
    turns = TurnSet()
    for _ in range(max_rounds):
        g = allowed_turn_graph(net, turns)
        try:
            cycle_edges = nx.find_cycle(g)
        except nx.NetworkXNoCycle:
            tables = turn_restricted_tables(net, turns, tie_break=tie_break)
            return turns, tables
        # Each edge (a, b) of the cycle is a turn at router a.dst; prohibit
        # one of them (and its reverse -- the figure's double-ended arrows),
        # preferring turns at preferred routers and skipping prohibitions
        # that would make some destination unreachable.
        candidates = sorted(
            cycle_edges,
            key=lambda e: (
                preference.get(net.link(e[0]).dst, len(preference)),
                e[0],
                e[1],
            ),
        )
        for a, b in candidates:
            trial = TurnSet(turns.turns())
            if bidirectional:
                trial.prohibit_bidirectional(net, a, b)
            else:
                trial.prohibit(a, b)
            try:
                turn_restricted_tables(net, trial)  # delivery feasibility
            except RoutingError:
                continue
            turns = trial
            break
        else:
            raise RoutingError(
                "cannot break remaining cycles without disconnecting traffic"
            )
    raise RoutingError("failed to break all cycles within the round budget")
