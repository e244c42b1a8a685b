#!/usr/bin/env python3
"""ServerNet dual-fabric fault tolerance (§1.0).

"Full network fault-tolerance can be provided by configuring pairs of
router fabrics with dual-ported nodes."  This example builds an X/Y pair
of 64-node fat fractahedrons, kills cables and a whole router on the X
fabric, and shows every transfer still has a path; it then demonstrates
the single-fabric contrast in the wormhole simulator (a failed cable
strands traffic when there is no second fabric) and the §2.4 hardware
backstop (a corrupted routing table is blocked by the path-disable mask).

Run:  python examples/fault_tolerance.py
"""

from repro.core.fractahedron import fat_fractahedron, router_id
from repro.core.routing import fractahedral_tables
from repro.routing.base import all_pairs_routes, compute_route
from repro.servernet.fabric import DualFabric
from repro.servernet.router_asic import RouterAsic, TableCorruption
from repro.sim.engine import SimConfig
from repro.sim.fault import FaultSchedule
from repro.sim.api import make_sim
from repro.sim.traffic import pairs_traffic
from repro.workloads.patterns import ring_shift_permutation


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Dual fabrics with failover.
    # ------------------------------------------------------------------
    fabric = DualFabric(
        build=lambda: fat_fractahedron(2), route=fractahedral_tables
    )
    pairs = [(f"n{i}", f"n{j}") for i in range(0, 64, 7) for j in range(3, 64, 11) if i != j]

    print("dual fabric: all transfers start on X")
    assert all(fabric.select_fabric(s, d) == "X" for s, d in pairs)

    # Fail the n0 -> n63 route's first fabric cable plus an entire router.
    _, route = fabric.route_transfer("n0", "n63")
    fabric.fail_cable("X", route.router_links[0])
    fabric.fail_router("X", router_id(2, 0, 3, 3))
    moved = sum(1 for s, d in pairs if fabric.select_fabric(s, d) == "Y")
    print(f"after an X cable + X router failure: {moved}/{len(pairs)} transfers "
          f"fail over to Y; availability = {fabric.availability(pairs) * 100:.0f}%")

    # ------------------------------------------------------------------
    # 2. Contrast: one fabric, one failed cable, stranded worms.
    # ------------------------------------------------------------------
    net = fat_fractahedron(2)
    tables = fractahedral_tables(net)
    pattern = ring_shift_permutation(net.end_node_ids(), 9)
    # fail a cable that some of the pattern's fixed routes actually cross
    victim_route = compute_route(net, tables, *pattern[0])
    dead = victim_route.router_links[1]
    affected = sum(
        1
        for s, d in pattern
        if dead in compute_route(net, tables, s, d).router_links
    )
    fault = FaultSchedule().fail_cable(net, dead, at_cycle=0)
    sim = make_sim(
        net,
        tables,
        pairs_traffic(pattern, 8),
        SimConfig(buffer_depth=4, raise_on_deadlock=False, stall_threshold=400),
        fault=fault,
    )
    stats = sim.run(3000, drain=False)
    print(f"\nsingle fabric with a dead cable ({affected} routes cross it): "
          f"{stats.packets_delivered}/{stats.packets_offered} packets delivered "
          "-- traffic on the fixed paths over the dead cable is stranded")

    # ------------------------------------------------------------------
    # 3. The §2.4 backstop: path disables stop a corrupted table.
    # ------------------------------------------------------------------
    rid = router_id(1, 0, 0, 0)
    asic = RouterAsic(net, rid, tables)
    legal = set()
    for r in all_pairs_routes(net, tables):
        for a, b in zip(r.links, r.links[1:]):
            la, lb = net.link(a), net.link(b)
            if la.dst == rid:
                legal.add((la.dst_port, lb.src_port))
    for in_port in {l.dst_port for l in net.in_links(rid)}:
        for out_port in {l.src_port for l in net.out_links(rid)}:
            if (in_port, out_port) not in legal:
                asic.disable_path(in_port, out_port)
    print(f"\nrouter {rid}: {asic.num_disables} path disables programmed from "
          "the legal turn set")
    lateral_in = next(
        l.dst_port for l in net.in_links(rid)
        if net.node(l.src).is_router and net.node(l.src).attrs.get("level") == 1
    )
    lateral_out = next(
        l.src_port for l in net.out_links(rid)
        if net.node(l.dst).is_router and net.node(l.dst).attrs.get("level") == 1
        and l.src_port != lateral_in
    )
    asic.corrupt_entry("n63", lateral_out)
    try:
        asic.forward(lateral_in, "n63")
        print("corrupted entry forwarded -- backstop FAILED")
    except TableCorruption as exc:
        print(f"corrupted entry blocked in hardware: {exc}")


if __name__ == "__main__":
    main()
