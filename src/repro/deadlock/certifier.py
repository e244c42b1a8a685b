"""General deadlock certification via ascending channel orders.

Mendlovic & Matias (arXiv 2503.04583) give a *necessary and sufficient*
condition for deadlock-free routing on arbitrary graphs; in its
operational form for deterministic routing it is an ordering criterion:

    A route set is deadlock-free **iff** the channels can be assigned an
    injective order such that every route traverses its channels in
    strictly ascending order.

Sufficiency is the classic Dally-Seitz argument (an ascending order is a
witness that no cyclic wait can close); necessity follows because any
acyclic channel dependency graph admits a topological order, and that
order ascends along every route.  The value over the bare CDG cycle check
in :mod:`repro.deadlock.cdg` is the *certificate*: a concrete channel
order that anyone can re-verify in one linear pass over the routes,
without rebuilding the dependency graph (and without networkx).  On
refutation the certifier returns a dependency cycle instead -- the
counterexample witness.

The same ordering view yields constructive *synthesis* for arbitrary
connected fabrics: orient channels up*/down* from a BFS root, rank up
channels before down channels (descending levels first, then ascending),
and every up-then-down route ascends by construction.  That replaces
per-topology disable-set searches with one principled recipe
(:func:`synthesize_ordered_routing`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RouteSet, RoutingTable, all_pairs_routes, routes_for_pairs
from repro.routing.validate import sample_pairs, validate_routing

__all__ = [
    "ChannelOrderCertificate",
    "OrderCertification",
    "certify_channel_order",
    "channel_order_for",
    "synthesize_ordered_routing",
]


@dataclass(frozen=True)
class ChannelOrderCertificate:
    """An injective channel order witnessing deadlock freedom.

    ``order`` lists channel ids from lowest to highest rank; a route set
    is certified when every route's channel sequence strictly ascends in
    this order.  Verification is a single pass over the routes --
    independent of how the order was produced.
    """

    order: tuple[str, ...]

    def ranks(self) -> dict[str, int]:
        """Channel id -> position in the order."""
        return {channel: i for i, channel in enumerate(self.order)}

    def verify(self, routes: RouteSet) -> list[str]:
        """Re-check the certificate; returns violation descriptions.

        Empty means every route ascends (the certificate is valid).  A
        channel missing from the order is a violation too: the order must
        cover every channel the routes use.
        """
        rank = self.ranks()
        violations: list[str] = []
        for route in routes:
            prev = -1
            for link_id in route.links:
                r = rank.get(link_id)
                if r is None:
                    violations.append(
                        f"{route.src}->{route.dst}: channel {link_id} not in order"
                    )
                    break
                if r <= prev:
                    violations.append(
                        f"{route.src}->{route.dst}: channel {link_id} "
                        f"(rank {r}) does not ascend"
                    )
                    break
                prev = r
        return violations


@dataclass(frozen=True)
class OrderCertification:
    """Outcome of :func:`certify_channel_order`: the deadlock verdict.

    Reports deliverability and the size of the dependency relation, and
    carries the witness: an ascending-order certificate when
    deadlock-free, a dependency cycle when not.
    """

    network: str
    deliverable: bool
    deadlock_free: bool
    num_channels: int
    num_dependencies: int
    certificate: ChannelOrderCertificate | None
    counterexample: tuple[str, ...] | None
    failures: tuple[str, ...]

    @property
    def certified(self) -> bool:
        """True when routing is complete, loop-free and deadlock-free."""
        return self.deliverable and self.deadlock_free


def _dependency_edges(routes: RouteSet) -> tuple[list[str], np.ndarray]:
    """Channels used by the routes, sorted, and their deduplicated
    ``(k, 2)`` held -> waited dependencies as positions in that list."""
    channels: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for route in routes:
        channels.update(route.links)
        pairs.update(zip(route.links, route.links[1:]))
    labels = sorted(channels)
    pos = {channel: i for i, channel in enumerate(labels)}
    deps = np.array([(pos[h], pos[w]) for h, w in pairs], np.int64).reshape(-1, 2)
    return labels, deps


def _kahn(n: int, deps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kahn's topological sort of channels ``0 .. n-1`` with a
    deterministic tie-break, level-synchronous on arrays.

    ``deps`` holds deduplicated ``(held, waited)`` rows.  The order is
    exactly that of a FIFO Kahn pass that starts from the sorted
    zero-in-degree channels and visits each channel's successors in
    sorted order: such a pass releases channels one generation at a time,
    and orders each generation by (queue position of the channel's last
    predecessor, channel).  Each generation here gathers its frontier's
    successors from a sorted CSR in exactly that visiting order, so a
    channel's releasing edge is its last occurrence there.

    Returns the order and the final in-degrees.  The order covers every
    channel exactly when the dependencies are acyclic; otherwise the
    channels left with a positive in-degree are the ones a cycle stalls.
    """
    held, waited = deps[:, 0], deps[:, 1]
    indegree = np.bincount(waited, minlength=n)
    out_count = np.bincount(held, minlength=n)
    out_start = np.cumsum(out_count) - out_count
    succ = waited[np.lexsort((waited, held))]
    frontier = np.flatnonzero(indegree == 0)
    generations: list[np.ndarray] = []
    while frontier.size:
        generations.append(frontier)
        count = out_count[frontier]
        total = int(count.sum())
        if not total:
            break
        # the frontier's successor slices, back to back, in visiting order
        shift = np.repeat(out_start[frontier] - (np.cumsum(count) - count), count)
        target = succ[shift + np.arange(total)]
        by_target = np.argsort(target, kind="stable")
        grouped = target[by_target]
        last = np.flatnonzero(np.append(grouped[1:] != grouped[:-1], True))
        touched = grouped[last]
        indegree[touched] -= np.diff(last, prepend=-1)
        # a channel whose in-degree reached 0 is released by its last edge
        # here; the next generation follows those edges' positions
        frontier = target[np.sort(by_target[last[indegree[touched] == 0]])]
    order = np.concatenate(generations) if generations else np.zeros(0, np.intp)
    return order, indegree


def _stalled_successors(indegree: np.ndarray, deps: np.ndarray) -> tuple[set, dict]:
    """The channels a Kahn pass left stalled and held -> waited successor
    sets among them: the input :func:`_extract_cycle` walks."""
    stalled = indegree > 0
    among = deps[stalled[deps[:, 0]] & stalled[deps[:, 1]]]
    succ: dict[int, set[int]] = {}
    for held, waited in among.tolist():
        succ.setdefault(held, set()).add(waited)
    return set(np.flatnonzero(stalled).tolist()), succ


def _extract_cycle(remaining: set, succ: dict) -> tuple:
    """Extract one dependency cycle from the channels Kahn could not order.

    Walks *predecessors*: every stalled channel has at least one stalled
    predecessor (that is why it stalled), so the backward walk never dead
    ends and must revisit a channel -- unlike the forward walk, which can
    fall off the cycle into an ordered tail.
    """
    pred: dict[str, set[str]] = {c: set() for c in remaining}
    for held, waiting in succ.items():
        if held in remaining:
            for waited in waiting:
                if waited in remaining:
                    pred[waited].add(held)
    seen: dict[str, int] = {}
    path: list[str] = []
    current = min(remaining)  # deterministic entry point
    while current not in seen:
        seen[current] = len(path)
        path.append(current)
        current = min(pred[current])
    cycle = path[seen[current] :]
    cycle.reverse()  # predecessor order back to held -> waited order
    return tuple(cycle)


def certify_channel_order(
    net: Network,
    tables: RoutingTable | None = None,
    routes: RouteSet | None = None,
    pairs: list[tuple[str, str]] | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> OrderCertification:
    """Certify a route set by constructing an ascending channel order.

    Builds the dependency relation of the route set and runs Kahn's
    topological sort with a deterministic (sorted) tie-break: completion
    yields the certificate order, a stall yields a dependency cycle as
    the counterexample.  Either answer carries an independently checkable
    witness -- that is what makes this strictly stronger, as evidence,
    than the boolean CDG cycle check it agrees with.

    Tables the array walker reads (exact ``RoutingTable``, see
    :mod:`repro.routing.walk`) are validated and routed in one vectorized
    walk, and Kahn runs on link indices.  Link indices follow sorted link
    ids, so the tie-break, the certificate and the counterexample are
    identical to the per-route walk's.

    Args:
        net: the network.
        tables: routing tables; required unless ``routes`` is given.
        routes: explicit route set (e.g. a non-minimal scheme that
            destination-indexed tables cannot encode).
        pairs: restrict the deliverability walk to these pairs.
        sample: with ``tables`` and no explicit pairs/routes, validate (and
            route) a deterministic seeded sample of this many pairs instead
            of the quadratic all-pairs walk (see
            :func:`repro.routing.validate.validate_routing`).
        seed: sample seed.
    """
    if tables is None and routes is None:
        raise ValueError("certify_channel_order needs tables or routes")
    walk = None
    if tables is not None:
        report = validate_routing(net, tables, pairs=pairs, sample=sample, seed=seed)
        walk = report.walk
        deliverable = report.ok
        failures = tuple(report.failures[:10])
    else:
        deliverable = True
        failures = ()
    if routes is None and walk is not None:
        if deliverable:
            used = walk.channels
            deps = np.searchsorted(used, walk.dependencies)
            link_ids = net.indices().link_ids
            labels = [link_ids[c] for c in used.tolist()]
        else:
            labels, deps = [], np.zeros((0, 2), np.int64)
    else:
        if routes is None:
            if deliverable:
                if pairs is None and sample is None:
                    routes = all_pairs_routes(net, tables)
                else:
                    walk_pairs = pairs if pairs is not None else sample_pairs(net, sample, seed)
                    routes = routes_for_pairs(net, tables, walk_pairs)
            else:
                routes = RouteSet()
        labels, deps = _dependency_edges(routes)
    order, indegree = _kahn(len(labels), deps)

    certificate = counterexample = None
    if order.size == len(labels):
        certificate = ChannelOrderCertificate(tuple(labels[c] for c in order.tolist()))
    else:
        cycle = _extract_cycle(*_stalled_successors(indegree, deps))
        counterexample = tuple(labels[c] for c in cycle)

    return OrderCertification(
        network=net.name,
        deliverable=deliverable,
        deadlock_free=certificate is not None,
        num_channels=len(labels),
        num_dependencies=len(deps),
        certificate=certificate,
        counterexample=counterexample,
        failures=failures,
    )


def channel_order_for(net: Network, root: str | None = None) -> dict[str, int]:
    """The a-priori up*/down* channel ranking for an arbitrary fabric.

    Channels toward the BFS root ("up") rank before channels away from it
    ("down"); within each class, ranks follow the levels a legal route
    visits them in (up channels from the deepest tail upward, down
    channels from the root downward).  Injection channels rank below
    everything, ejection channels above, so full end-to-end routes ascend.
    Any up*-then-down* route strictly ascends in this ranking -- the
    closed-form certificate behind :func:`synthesize_ordered_routing`.
    """
    from repro.routing.tree_routing import _bfs_levels

    routers = net.router_ids()
    if not routers:
        raise ValueError("network has no routers")
    root = root or min(routers)
    levels = _bfs_levels(net, root)

    def tail(link) -> tuple:
        return (levels[link.src], link.src)

    def is_up(link) -> bool:
        return (levels[link.dst], link.dst) < tail(link)

    transit = [
        l
        for l in net.links()
        if net.node(l.src).is_router and net.node(l.dst).is_router
    ]
    # Consecutive up hops strictly descend in (level, id) of their tail, so
    # ranking up channels by descending tail orders every up chain; down
    # chains ascend in the same key, so ascending tail order works there.
    up = sorted(
        (l for l in transit if is_up(l)),
        key=lambda l: (tail(l), l.link_id),
        reverse=True,
    )
    down = sorted(
        (l for l in transit if not is_up(l)), key=lambda l: (tail(l), l.link_id)
    )
    injection = sorted(
        l.link_id for l in net.links() if not net.node(l.src).is_router
    )
    ejection = sorted(
        l.link_id
        for l in net.links()
        if net.node(l.src).is_router and not net.node(l.dst).is_router
    )
    ordered = injection + [l.link_id for l in up] + [l.link_id for l in down] + ejection
    return {link_id: i for i, link_id in enumerate(ordered)}


def synthesize_ordered_routing(
    net: Network, root: str | None = None
) -> tuple[RoutingTable, OrderCertification]:
    """Deadlock-free destination-indexed routing for an arbitrary fabric.

    The ordering view of up*/down*: rank channels with
    :func:`channel_order_for`, build the up*/down* tables (every route is
    up hops then down hops, hence ascending), and certify the result with
    :func:`certify_channel_order`.  This replaces topology-specific
    disable-set synthesis -- one recipe, any connected graph, and the
    output carries its own proof.
    """
    from repro.routing.tree_routing import up_down_tables

    tables = up_down_tables(net, root=root)
    certification = certify_channel_order(net, tables)
    if not certification.certified:
        raise RuntimeError(
            f"ordered-routing synthesis failed on {net.name}: "
            f"{certification.failures or certification.counterexample}"
        )
    return tables, certification
