"""JSON persistence for networks, routing tables and disable sets.

Real ServerNet systems are *configured*: routing tables and path-disable
registers are downloaded into the routers at fabric bring-up.  This module
is that configuration file format -- a versioned JSON document holding a
network's structure (nodes, ports, cables), its compiled routing tables,
and optional turn disables, so a fabric built and certified once can be
reloaded byte-identically (ids, ports, attrs and all).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.network.graph import Network, Node, NodeKind
from repro.routing.base import RoutingTable
from repro.routing.turns import TurnSet

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_fabric",
    "load_fabric",
]

FORMAT_VERSION = 1


def network_to_dict(net: Network) -> dict[str, Any]:
    """Serialize a network's full structure (lossless)."""
    nodes = []
    for node in net.nodes():
        nodes.append(
            {
                "id": node.node_id,
                "kind": node.kind.value,
                "ports": node.num_ports,
                "attrs": _plain(node.attrs),
            }
        )
    cables = []
    seen: set[str] = set()
    for link in net.links():
        if link.link_id in seen:
            continue
        seen.add(link.link_id)
        seen.add(link.reverse_id)
        cables.append(
            {
                "a": link.src,
                "a_port": link.src_port,
                "b": link.dst,
                "b_port": link.dst_port,
                "attrs": _plain(link.attrs),
            }
        )
    return {
        "version": FORMAT_VERSION,
        "name": net.name,
        "attrs": _plain(net.attrs),
        "nodes": nodes,
        "cables": cables,
    }


def network_from_dict(data: dict[str, Any]) -> Network:
    """Rebuild a network serialized by :func:`network_to_dict`."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported fabric format version {version!r}")
    net = Network(data["name"])
    net.attrs.update(_restore(data.get("attrs", {})))
    net.add_nodes(
        [
            Node(
                node["id"],
                NodeKind.ROUTER if node["kind"] == "router" else NodeKind.END_NODE,
                node["ports"],
                _restore(node.get("attrs", {})),
            )
            for node in data["nodes"]
        ]
    )
    cables = data["cables"]
    net.connect_many(
        [cable["a"] for cable in cables],
        [cable["b"] for cable in cables],
        ([cable["a_port"] for cable in cables], [cable["b_port"] for cable in cables]),
        attrs=[_restore(cable.get("attrs", {})) for cable in cables],
        attrs_of=range(len(cables)),
    )
    return net


def save_fabric(
    path: str | Path,
    net: Network,
    tables: RoutingTable | None = None,
    disables: TurnSet | None = None,
) -> None:
    """Write the fabric configuration document to ``path``."""
    doc = network_to_dict(net)
    if tables is not None:
        doc["tables"] = {
            router: tables.entries(router) for router in tables.routers()
        }
    if disables is not None:
        doc["disabled_turns"] = sorted(disables.turns())
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_fabric(
    path: str | Path,
) -> tuple[Network, RoutingTable | None, TurnSet | None]:
    """Read a fabric configuration document written by :func:`save_fabric`."""
    doc = json.loads(Path(path).read_text())
    net = network_from_dict(doc)
    tables = None
    if "tables" in doc:
        tables = RoutingTable(net, doc["tables"])
    disables = None
    if "disabled_turns" in doc:
        disables = TurnSet(tuple(t) for t in doc["disabled_turns"])
    return net, tables, disables


# ----------------------------------------------------------------------
# attribute encoding: tuples survive the JSON round trip
# ----------------------------------------------------------------------

def _plain(attrs: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, tuple):
            out[key] = {"__tuple__": [_plain_value(v) for v in value]}
        else:
            out[key] = _plain_value(value)
    return out


def _plain_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"__tuple__": [_plain_value(v) for v in value]}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"attribute value {value!r} is not serializable")


def _restore(attrs: dict[str, Any]) -> dict[str, Any]:
    return {key: _restore_value(value) for key, value in attrs.items()}


def _restore_value(value: Any) -> Any:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_restore_value(v) for v in value["__tuple__"])
    return value
