"""Deterministic, table-driven routing.

ServerNet guarantees in-order delivery by giving every (source, destination)
pair a single fixed path, implemented as a per-router table lookup on the
destination node identifier.  Every routing algorithm in this package
therefore compiles down to a :class:`~repro.routing.base.RoutingTable`
(``router -> dest -> output port``); routes are *derived* from the tables by
walking them, just as packets do.
"""

from repro.routing.base import (
    Route,
    RouteSet,
    RoutingError,
    RoutingTable,
    all_pairs_routes,
    compute_route,
    routes_for_pairs,
)
from repro.routing.shortest_path import shortest_path_tables
from repro.routing.dimension_order import dimension_order_tables, ecube_tables
from repro.routing.tree_routing import fat_tree_tables, tree_tables
from repro.routing.cache import (
    RoutingTableCache,
    algorithm_for,
    cached_tables,
    network_fingerprint,
)
from repro.routing.disables import DisableSet, apply_disables, disables_respected
from repro.routing.dragonfly import dragonfly_minimal_tables, dragonfly_vc_assign
from repro.routing.fullmesh import fullmesh_spread_routes
from repro.routing.hyperx import hyperx_dor_tables, hyperx_valiant_routes
from repro.routing.turns import TurnSet, break_cycles_with_turns, turn_restricted_tables
from repro.routing.vc import dateline_vc_select, vc_for_route
from repro.routing.validate import sample_pairs, validate_routing

__all__ = [
    "DisableSet",
    "TurnSet",
    "Route",
    "RouteSet",
    "RoutingError",
    "RoutingTable",
    "RoutingTableCache",
    "algorithm_for",
    "all_pairs_routes",
    "apply_disables",
    "cached_tables",
    "network_fingerprint",
    "break_cycles_with_turns",
    "dateline_vc_select",
    "compute_route",
    "dimension_order_tables",
    "disables_respected",
    "dragonfly_minimal_tables",
    "dragonfly_vc_assign",
    "ecube_tables",
    "fat_tree_tables",
    "fullmesh_spread_routes",
    "hyperx_dor_tables",
    "hyperx_valiant_routes",
    "routes_for_pairs",
    "sample_pairs",
    "shortest_path_tables",
    "tree_tables",
    "turn_restricted_tables",
    "vc_for_route",
    "validate_routing",
]
