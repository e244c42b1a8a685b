"""Modern-topology scenario pack: HyperX, Dragonfly and VC-free full mesh.

The paper certifies deadlock freedom topology by topology with bespoke
cycle arguments; this experiment runs the *general* machinery over the
fabrics that came after ServerNet.  For every (topology, routing) pair it
certifies deadlock freedom twice -- the Dally-Seitz CDG cycle check and
the ascending channel-order certifier
(:func:`repro.deadlock.certifier.certify_channel_order`) -- and demands
they agree; the order certifier is also cross-validated on the paper's
own Table 2 matrix (the 4-2 fat tree and the 64-node fat fractahedron).

Headline results:

* HyperX dimension-order routing certifies with zero virtual channels;
  its Valiant non-minimal variant certifies on the standard two-VC escape
  ladder (VC-aware CDG acyclic).
* Dragonfly minimal l-g-l routing is *rejected* on physical channels --
  both certifiers produce the cross-group cycle -- and certifies on the
  hop-class two-VC ladder.
* The full mesh certifies non-minimal two-hop spreading with **zero**
  virtual channels under the valley restriction (HOTI'25), while the
  naive successor-bounce spreading at the same size is correctly
  rejected, with the ring counterexample as the witness.

Each fabric then runs end to end: deterministic sampled-pairs routing
validation (:func:`repro.routing.validate.validate_routing` with
``sample=``), a saturation-point search, one fail/repair recovery episode
with the full retry/re-route stack, and a three-engine counter-parity
run (reference vs compiled vs vectorized, bit-identical by
``stats_signature``).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable

from repro.deadlock.cdg import channel_dependency_graph, channel_dependency_graph_vc, find_cycle
from repro.deadlock.certifier import certify_channel_order
from repro.experiments.future_simulation import CONTENDERS
from repro.metrics.report import format_table
from repro.network.graph import Network
from repro.obs.parity import stats_signature
from repro.routing.base import RouteSet, RoutingTable, all_pairs_routes
from repro.routing.cache import cached_tables
from repro.routing.dragonfly import dragonfly_vc_assign
from repro.routing.fullmesh import fullmesh_spread_routes
from repro.routing.hyperx import hyperx_valiant_routes
from repro.routing.validate import validate_routing
from repro.sim import SimConfig, UniformPlan
from repro.sim import api
from repro.sim.engine import RetryPolicy, ReroutePolicy
from repro.sim.parallel import SweepRunner, derive_seed
from repro.sim.sweep import find_saturation, recovery_curve
from repro.topology.registry import build_topology

__all__ = ["MODERN_TOPOLOGIES", "run", "report"]


def _registry_pair(topology: str, **params) -> tuple[Network, RoutingTable]:
    net = build_topology(topology, **params)
    return net, cached_tables(net)


#: the scenario pack, as zero-argument ``(net, tables)`` builders
MODERN_TOPOLOGIES: dict[str, Callable[[], tuple[Network, RoutingTable]]] = {
    "hyperx_3x3": partial(_registry_pair, "hyperx", shape=(3, 3)),
    "dragonfly_g5": partial(
        _registry_pair, "dragonfly", groups=5, routers_per_group=2, global_per_router=2
    ),
    "fullmesh_6": partial(_registry_pair, "fully_connected", num_routers=6),
}

#: the paper's Table 2 head-to-head, for certifier cross-validation
TABLE2_MATRIX: dict[str, Callable[[], tuple[Network, RoutingTable]]] = {
    "fat_tree_4_2": CONTENDERS["fat tree 4-2"],
    "fat_fractahedron": CONTENDERS["fat fractahedron"],
}

VALIDATE_SAMPLE = 120
RECOVERY_RETRY = RetryPolicy(timeout=48, backoff=2.0, max_retries=2, resend_delay=1)
RECOVERY_REROUTE = ReroutePolicy(detection_delay=16, reconvergence_delay=32)


def _dual_certify(net, tables=None, routes=None) -> dict:
    """Run the order certifier and the networkx CDG cycle check over the
    same route set and compare verdicts."""
    if routes is None:
        routes = all_pairs_routes(net, tables)
    order_result = certify_channel_order(net, tables, routes=routes)
    cdg_free = find_cycle(channel_dependency_graph(net, routes)) is None
    return {
        "cdg_free": cdg_free,
        "order_free": order_result.deadlock_free,
        "agree": cdg_free == order_result.deadlock_free,
        "channels": order_result.num_channels,
        "dependencies": order_result.num_dependencies,
        "certificate_valid": (
            order_result.certificate is not None
            and order_result.certificate.verify(routes) == []
        )
        if order_result.deadlock_free
        else None,
        "counterexample_len": (
            len(order_result.counterexample) if order_result.counterexample else 0
        ),
    }


def _vc_certify(net, routes, vc_assign) -> dict:
    """Both checks on virtual channels: the VC-aware networkx CDG, and the
    order certifier over the routes with each link renamed to its
    ``link#vc`` channel."""
    vc_cdg = channel_dependency_graph_vc(net, routes, vc_assign=vc_assign)
    cdg_free = find_cycle(vc_cdg) is None
    vc_routes = RouteSet(
        replace(r, links=tuple(f"{l}#{v}" for l, v in zip(r.links, vc_assign(r))))
        for r in routes
    )
    order_free = certify_channel_order(net, routes=vc_routes).deadlock_free
    return {
        "cdg_free": cdg_free,
        "order_free": order_free,
        "agree": cdg_free == order_free,
        "channels": vc_cdg.number_of_nodes(),
        "dependencies": vc_cdg.number_of_edges(),
        "certificate_valid": None,
        "counterexample_len": 0,
    }


def _certification_rows() -> list[dict]:
    rows: list[dict] = []

    # -- paper matrix: the order certifier must agree with the CDG check
    for name, build in TABLE2_MATRIX.items():
        net, tables = build()
        rows.append(
            {"name": name, "routing": "shipped", "virtual_channels": 0}
            | _dual_certify(net, tables)
        )

    hx, hx_tables = MODERN_TOPOLOGIES["hyperx_3x3"]()
    rows.append(
        {"name": "hyperx_3x3", "routing": "dimension_order", "virtual_channels": 0}
        | _dual_certify(hx, hx_tables)
    )
    valiant, vc_assign = hyperx_valiant_routes(hx, seed=7)
    rows.append(
        {"name": "hyperx_3x3", "routing": "valiant", "virtual_channels": 2}
        | _vc_certify(hx, valiant, vc_assign)
    )

    df, df_tables = MODERN_TOPOLOGIES["dragonfly_g5"]()
    df_routes = all_pairs_routes(df, df_tables)
    rows.append(
        {"name": "dragonfly_g5", "routing": "minimal_lgl", "virtual_channels": 0}
        | _dual_certify(df, df_tables, df_routes)
    )
    rows.append(
        {"name": "dragonfly_g5", "routing": "minimal_lgl", "virtual_channels": 2}
        | _vc_certify(df, df_routes, dragonfly_vc_assign(df))
    )

    fm, fm_tables = MODERN_TOPOLOGIES["fullmesh_6"]()
    rows.append(
        {"name": "fullmesh_6", "routing": "minimal", "virtual_channels": 0}
        | _dual_certify(fm, fm_tables)
    )
    rows.append(
        {"name": "fullmesh_6", "routing": "valley_spread", "virtual_channels": 0}
        | _dual_certify(fm, routes=fullmesh_spread_routes(fm, restricted=True, seed=3))
    )
    rows.append(
        {"name": "fullmesh_6", "routing": "naive_spread", "virtual_channels": 0}
        | _dual_certify(fm, routes=fullmesh_spread_routes(fm, restricted=False))
    )
    return rows


def _validation_rows() -> list[dict]:
    """The sampled-pairs routing validation leg (deterministic, seeded)."""
    rows = []
    for name, build in MODERN_TOPOLOGIES.items():
        net, tables = build()
        report = validate_routing(
            net, tables, sample=VALIDATE_SAMPLE, seed=derive_seed(1996, "validate", name)
        )
        rows.append(
            {
                "name": name,
                "pairs_checked": report.pairs_checked,
                "ok": report.ok,
                "max_router_hops": report.max_router_hops,
            }
        )
    return rows


def _parity_row(name: str, net: Network, tables: RoutingTable, cycles: int) -> dict:
    plan = UniformPlan(rate=0.05, packet_size=4, seed=derive_seed(1996, "modern", name))
    signatures = {}
    delivered = 0
    for engine in ("reference", "compiled", "vectorized"):
        result = api.execute(
            api.SimSpec(
                network=(net, tables),
                traffic=plan,
                config=SimConfig(engine=engine),
                cycles=cycles,
                drain=True,
            )
        )
        signatures[engine] = stats_signature(result)
        delivered = result.stats.packets_delivered
    reference = signatures["reference"]
    return {
        "name": name,
        "engines": sorted(signatures),
        "delivered": delivered,
        "parity": all(sig == reference for sig in signatures.values()),
    }


def run(cycles: int = 500, recovery_cycles: int = 600, jobs: int = 1) -> dict:
    certification = _certification_rows()
    validation = _validation_rows()

    saturation = []
    recovery = []
    parity = []
    with SweepRunner(jobs) as runner:
        for name, build in MODERN_TOPOLOGIES.items():
            net, tables = build()
            saturation.append(
                {
                    "name": name,
                    "saturation_rate": find_saturation(
                        net, tables, cycles=cycles, resolution=0.01, max_rate=0.4
                    ),
                }
            )
            for row in recovery_curve(
                net,
                tables,
                (2,),
                rate=0.03,
                cycles=recovery_cycles,
                fault_cycle=recovery_cycles // 4,
                repair_cycle=3 * recovery_cycles // 4,
                retry=RECOVERY_RETRY,
                reroute=RECOVERY_REROUTE,
                runner=runner,
            ):
                recovery.append({"name": name} | row)
            parity.append(_parity_row(name, net, tables, cycles))

    by_scheme = {(r["name"], r["routing"], r["virtual_channels"]): r for r in certification}
    return {
        "certification": certification,
        "validation": validation,
        "saturation": saturation,
        "recovery": recovery,
        "parity": parity,
        "vc_free_fullmesh_certified": by_scheme[("fullmesh_6", "valley_spread", 0)][
            "order_free"
        ],
        "naive_fullmesh_rejected": not by_scheme[("fullmesh_6", "naive_spread", 0)][
            "order_free"
        ],
        "all_agree": all(r["agree"] for r in certification),
    }


def report(cycles: int = 500) -> str:
    result = run(cycles=cycles)
    cert_table = [
        [
            r["name"],
            r["routing"],
            r["virtual_channels"],
            "yes" if r["cdg_free"] else "NO",
            "yes" if r["order_free"] else "NO",
            "yes" if r["agree"] else "DISAGREE",
            f"{r['channels']}/{r['dependencies']}",
        ]
        for r in result["certification"]
    ]
    lines = [
        format_table(
            ["topology", "routing", "VCs", "CDG free", "order free", "agree", "ch/deps"],
            cert_table,
            title="Deadlock certification: CDG cycle check vs channel-order certifier",
        )
    ]
    sat_by_name = {r["name"]: r["saturation_rate"] for r in result["saturation"]}
    parity_by_name = {r["name"]: r["parity"] for r in result["parity"]}
    end_table = [
        [
            v["name"],
            v["pairs_checked"],
            "ok" if v["ok"] else "FAIL",
            f"{sat_by_name[v['name']]:.3f}",
            "=" if parity_by_name[v["name"]] else "!",
        ]
        for v in result["validation"]
    ]
    lines.append(
        format_table(
            ["topology", "pairs sampled", "valid", "saturation", "parity"],
            end_table,
            title="End-to-end: sampled validation, saturation point, engine parity",
        )
    )
    for row in result["recovery"]:
        lines.append(
            f"{row['name']}: {row['failures']} failures -> delivery "
            f"{row['delivery_rate']:.2f}, post-recovery {row['post_recovery_rate']:.2f}, "
            f"{row['reroutes']} reroutes"
        )
    return "\n".join(lines)
