"""k-ary n-fly butterfly: the canonical multistage indirect network.

The paper's opening sentence is about "multistage networks ... in both
massively parallel computer systems and in networks of workstations"; the
butterfly is the textbook instance and a useful indirect baseline next to
the fat tree.  A ``k``-ary ``n``-fly connects ``k**n`` sources to ``k**n``
destinations through ``n`` stages of ``k x k`` switches.

This builder makes the *folded* (bidirectional) variant so the same
duplex-link machinery applies: sources and destinations are the same end
nodes, attached to stage-0 switches; routes climb toward the last stage
only as far as the first switch shared with the destination, then descend
(which also makes the topology deadlock-free under up*/down*-style
routing -- compiled here by destination, like everything else).

Port budget: a ``k x k`` switch needs ``2k`` duplex ports (k toward the
nodes side, k toward the far side), so 6-port routers support up to the
3-ary fly -- another illustration of the paper's port-count arithmetic.
"""

from __future__ import annotations

from repro.network.builder import NetworkBuilder
from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable, ejections

__all__ = ["butterfly", "butterfly_tables"]


def butterfly(
    arity: int,
    stages: int,
    router_radix: int = 6,
) -> Network:
    """Build a folded ``arity``-ary ``stages``-fly.

    Args:
        arity: switch radix per side (k); nodes = ``arity ** stages``.
        stages: switch columns (n >= 1).
        router_radix: must be >= ``2 * arity``.

    Switch ids are ``B{stage}.{row}`` with ``arity**(stages-1)`` rows per
    stage.  Router attrs: ``stage``, ``row``.
    """
    if arity < 2:
        raise ValueError("arity must be >= 2")
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if 2 * arity > router_radix:
        raise ValueError(
            f"a {arity}x{arity} switch needs {2 * arity} ports > radix {router_radix}"
        )

    b = NetworkBuilder(f"butterfly{arity}ary-{stages}fly", router_radix)
    net = b.net
    net.attrs["topology"] = "butterfly"
    net.attrs["arity"] = arity
    net.attrs["stages"] = stages

    rows = arity ** (stages - 1)
    for stage in range(stages):
        for row in range(rows):
            b.router(f"B{stage}.{row}", stage=stage, row=row)

    # Stage s switch `row` connects "up" (toward stage s+1) to the switches
    # whose digit s (in base `arity`, counting from the node side) varies:
    # classic butterfly wiring on the row's digit representation.
    for stage in range(stages - 1):
        for row in range(rows):
            digit = (row // arity**stage) % arity
            for target_digit in range(arity):
                peer = row + (target_digit - digit) * arity**stage
                # cross-stage cables are unique per (row, peer) pair
                b.cable(
                    f"B{stage}.{row}",
                    f"B{stage + 1}.{peer}",
                    kind="stage",
                    digit=target_digit,
                )

    # end nodes on stage 0 (arity per switch)
    for row in range(rows):
        b.attach_end_nodes(f"B0.{row}", arity)
    return net


def butterfly_tables(net: Network) -> RoutingTable:
    """Destination-routed folded-butterfly tables.

    A packet for node ``d`` (on stage-0 switch ``r_d``) climbs stages until
    it reaches a switch from which ``r_d`` is reachable by descending
    (digit ``s`` of the current row can be corrected at stage ``s``), then
    descends correcting one digit per stage -- the indirect analogue of
    up*/down*, loop-free by the same argument.
    """
    arity = net.attrs.get("arity")
    stages = net.attrs.get("stages")
    if arity is None or stages is None:
        raise RoutingError("network lacks butterfly attributes")

    def digit(row: int, position: int) -> int:
        return (row // arity**position) % arity

    tables = RoutingTable(net)
    for dest, dest_switch, port, _ in ejections(net).ends(net):
        dest_row = net.node(dest_switch).attrs["row"]
        tables.set(dest_switch, dest, port)

        for router in net.routers():
            rid = router.node_id
            if rid == dest_switch:
                continue
            stage = router.attrs["stage"]
            row = router.attrs["row"]
            # lowest stage whose digits above it already match dest_row
            mismatch = max(
                (p + 1 for p in range(stages - 1) if digit(row, p) != digit(dest_row, p)),
                default=0,
            )
            if stage < mismatch:
                # climb: stay in the same row
                nxt = f"B{stage + 1}.{row}"
            else:
                # descend: correct digit (stage - 1) of the row
                position = stage - 1
                corrected = row + (digit(dest_row, position) - digit(row, position)) * (
                    arity**position
                )
                nxt = f"B{stage - 1}.{corrected}"
            links = net.links_between(rid, nxt)
            if not links:
                raise RoutingError(f"missing butterfly link {rid} -> {nxt}")
            tables.set(rid, dest, links[0].src_port)
    return tables
