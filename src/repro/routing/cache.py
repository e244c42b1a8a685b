"""Content-keyed routing-table cache.

Compiling routing tables (BFS floods, partitioned up/down searches,
fractahedral address walks) is pure: the result depends only on the
network's structure, the algorithm, its parameters, and any turn-disable
set.  Every load sweep, saturation search and experiment grid rebuilds the
same handful of 64-node tables over and over, so this module memoizes the
compilation behind a content key:

    network_fingerprint(net) + algorithm name + params + disables

The fingerprint (:func:`network_fingerprint`) hashes everything
:func:`repro.network.serialize.network_to_dict` records -- names, kinds,
ports, cables and attrs, in insertion order -- so two structurally
identical networks, even built by different code paths or reloaded from
a fabric file, share a cache entry, while any mutation (a failed cable,
an extra node, a changed attr) produces a fresh key.

Cached tables are returned **by reference**: a hit hands back the very
:class:`~repro.routing.base.RoutingTable` object built on the miss, frozen
(``set`` raises) so that its memoized route lookup can never go stale;
code that needs to edit tables works on a ``.copy()``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RoutingTable, port_link_lut

__all__ = [
    "ALGORITHMS",
    "CacheStats",
    "DEFAULT_CACHE",
    "RoutingTableCache",
    "algorithm_for",
    "cached_tables",
    "network_fingerprint",
]


#: Canonical JSON: sorted keys, no whitespace.  ``encode`` runs in C,
#: nested attribute dicts included.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def _tagged(value: Any) -> Any:
    """``value`` with tuples and lists tagged apart for JSON, at any depth."""
    if isinstance(value, tuple):
        return {"__tuple__": [_tagged(v) for v in value]}
    if isinstance(value, list):
        return {"__list__": [_tagged(v) for v in value]}
    if isinstance(value, dict):
        return {k: _tagged(v) for k, v in value.items()}
    return value


def _attrs_json(dicts: list[dict[str, Any]]) -> str:
    """Canonical JSON of a list of attribute dicts.

    The whole list is encoded at C speed.  JSON writes tuples and lists
    alike, so when the text holds an array (or a string with a ``[``) the
    list is encoded again with both tagged; a text with no ``[`` inside
    has neither, so the two forms never collide.
    """
    blob = _CANONICAL.encode(dicts)
    if "[" in blob[1:-1]:
        blob = _CANONICAL.encode([_tagged(d) for d in dicts])
    return blob


def _shared_attrs_json(dicts: list[dict[str, Any]]) -> str:
    """:func:`_attrs_json` of a list that repeats a few dict objects.

    The link attrs of a bulk-cabled network are a few shared templates.
    Each distinct object is encoded once and its text spliced in wherever
    it occurs; the text equals :func:`_attrs_json`'s, because a dict's
    tagged text differs from its plain one only when the plain one holds
    a ``[``.  The dicts are read afresh on every call, so an attrs dict
    edited in place changes the text.

    One encode call per dict costs about six times a dict's share of the
    whole-list encode, so a list with more than one distinct object in
    ten (a reloaded network has one per cable: two links each) is
    encoded whole.
    """
    ids = list(map(id, dicts))
    distinct = dict(zip(ids, dicts))
    if 10 * len(distinct) > len(dicts):
        return _attrs_json(dicts)
    texts = {}
    for key, d in distinct.items():
        text = _CANONICAL.encode(d)
        texts[key] = _CANONICAL.encode(_tagged(d)) if "[" in text else text
    return "[" + ",".join(map(texts.__getitem__, ids)) + "]"


def network_fingerprint(net: Network) -> str:
    """Stable content hash of a network's full structure.

    Covers the name and attrs, every node's id, kind, port count and
    attrs in insertion order, and every link's id (insertion order), its
    endpoints and ports, and its attrs.  Attribute dicts hash by content:
    key order does not count, while ``1``, ``1.0`` and ``True``, and a
    tuple and a list, all differ.
    """
    arr = net.link_arrays()
    nodes = list(net.nodes())
    attrs = attrgetter("attrs")
    h = hashlib.sha256()
    for part in (
        _attrs_json([{"name": net.name, "attrs": net.attrs}]),
        _CANONICAL.encode([net.node_ids(), net.indices().router_ids]),
        _CANONICAL.encode(list(map(attrgetter("num_ports"), nodes))),
        _attrs_json(list(map(attrs, nodes))),
        _CANONICAL.encode(net.link_ids()),
        _shared_attrs_json(net.link_attrs()),
    ):
        h.update(part.encode())
        h.update(b"\0")
    for column in (arr.src, arr.src_port, arr.dst, arr.dst_port):
        h.update(column.tobytes())
    return h.hexdigest()


def _disables_fingerprint(disables: Any) -> str:
    """Content hash of a disable set (``None`` when unrestricted).

    Accepts a :class:`~repro.routing.disables.DisableSet` (link ids), a
    turn-model object exposing ``turns()``, or any plain iterable of link
    ids / turn tuples.
    """
    if disables is None:
        return "none"
    if hasattr(disables, "link_ids"):
        items: list = sorted(disables.link_ids())
    elif hasattr(disables, "turns"):
        items = sorted(tuple(t) for t in disables.turns())
    else:
        items = sorted(tuple(t) if isinstance(t, (tuple, list)) else t for t in disables)
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_algorithms() -> dict[str, Callable[..., RoutingTable]]:
    from repro.core.routing import fractahedral_tables
    from repro.routing.dimension_order import dimension_order_tables, ecube_tables
    from repro.routing.dragonfly import dragonfly_minimal_tables
    from repro.routing.hyperx import hyperx_dor_tables
    from repro.routing.shortest_path import shortest_path_tables
    from repro.routing.tree_routing import tree_tables, up_down_tables
    from repro.topology.butterfly import butterfly_tables
    from repro.topology.fattree import fat_tree_tables

    return {
        "butterfly": butterfly_tables,
        "dimension_order": dimension_order_tables,
        "dragonfly": dragonfly_minimal_tables,
        "ecube": ecube_tables,
        "fat_tree": fat_tree_tables,
        "fractahedral": fractahedral_tables,
        "hyperx": hyperx_dor_tables,
        "shortest_path": shortest_path_tables,
        "tree": tree_tables,
        "up_down": up_down_tables,
    }


def _accepts_allowed(builder: Callable[..., RoutingTable]) -> bool:
    """True when a table builder takes an ``allowed`` link predicate."""
    import inspect

    try:
        return "allowed" in inspect.signature(builder).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False


class _AlgorithmRegistry(dict):
    """Name -> table-builder map, populated lazily to avoid import cycles."""

    def __missing__(self, name: str) -> Callable[..., RoutingTable]:
        if not hasattr(self, "_loaded"):
            self.update(_load_algorithms())
            self._loaded = True
        if name in self:
            return self[name]
        raise KeyError(
            f"unknown routing algorithm {name!r}; available: {', '.join(sorted(self))}"
        )


ALGORITHMS: dict[str, Callable[..., RoutingTable]] = _AlgorithmRegistry()


def algorithm_for(net: Network) -> str:
    """Name of the matching routing algorithm for a built topology.

    Dispatches on the ``topology`` attribute the builders stamp, exactly as
    the CLI always has; unknown topologies fall back to shortest-path.
    """
    topology = net.attrs.get("topology", "")
    if topology == "butterfly":
        return "butterfly"
    if "fractahedron" in topology:
        return "fractahedral"
    if topology == "fat_tree":
        return "fat_tree"
    if topology in ("mesh", "torus", "ring"):
        return "dimension_order"
    if topology == "hypercube":
        return "ecube"
    if topology == "hyperx":
        return "hyperx"
    if topology == "dragonfly":
        return "dragonfly"
    return "shortest_path"


@dataclass
class CacheStats:
    """Hit/miss counters plus the compile time the hits skipped."""

    hits: int = 0
    misses: int = 0
    build_seconds: float = 0.0
    seconds_saved: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "build_seconds": round(self.build_seconds, 4),
            "seconds_saved": round(self.seconds_saved, 4),
        }


class RoutingTableCache:
    """Memoizes ``builder(net, **params)`` behind a content key.

    Safe to share across threads; each worker process of a parallel sweep
    owns its own instance (module-global state does not cross the process
    boundary), so every worker pays each compile at most once.
    """

    def __init__(self) -> None:
        self._entries: dict[str, RoutingTable] = {}
        self._build_cost: dict[str, float] = {}
        #: id(table) -> (table, content key) for tables we handed out, so a
        #: route-lookup request can be keyed by the same content hash without
        #: the caller re-supplying algorithm/params.  Tables in _entries are
        #: strongly held, so the recorded ids can never be recycled.
        self._key_by_id: dict[int, tuple[RoutingTable, str]] = {}
        #: (content key, vc_count) -> (ports, lut) pair (see get_or_lower)
        self._route_pairs: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        #: content key -> a result derived from this cache's tables (the
        #: recovery layer's certification verdicts); cleared with them
        self._memo: dict[str, Any] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def key(
        self,
        net: Network,
        algorithm: str,
        params: dict[str, Any] | None = None,
        disables: Any = None,
    ) -> str:
        param_blob = repr(sorted((params or {}).items()))
        return "|".join(
            (
                network_fingerprint(net),
                algorithm,
                param_blob,
                _disables_fingerprint(disables),
            )
        )

    def get_or_build(
        self,
        net: Network,
        algorithm: str | None = None,
        builder: Callable[..., RoutingTable] | None = None,
        disables: Any = None,
        **params: Any,
    ) -> RoutingTable:
        """Return the cached tables for ``net``, compiling on first use.

        ``algorithm`` defaults to :func:`algorithm_for`; ``builder``
        overrides the registry (the algorithm name is still part of the
        key, so name your custom builders distinctly).

        ``disables`` always contributes to the cache key; when it is a
        link-level :class:`~repro.routing.disables.DisableSet` (anything
        exposing ``allowed``) and the builder takes an ``allowed``
        predicate, it is also *applied*: the builder compiles tables that
        avoid the disabled links.  This is what lets online re-routing
        memoize one table per distinct failure set across a whole sweep.
        """
        algorithm = algorithm or algorithm_for(net)
        k = self.key(net, algorithm, params, disables)
        with self._lock:
            cached = self._entries.get(k)
            if cached is not None:
                self.stats.hits += 1
                self.stats.seconds_saved += self._build_cost.get(k, 0.0)
                return cached
        build = builder or ALGORITHMS[algorithm]
        call_params = dict(params)
        if (
            disables is not None
            and hasattr(disables, "allowed")
            and "allowed" not in call_params
            and _accepts_allowed(build)
        ):
            call_params["allowed"] = disables.allowed
        start = time.perf_counter()
        tables = build(net, **call_params).freeze()
        elapsed = time.perf_counter() - start
        with self._lock:
            # Another thread may have raced us; keep the first entry so the
            # "same object on every hit" guarantee holds.
            winner = self._entries.setdefault(k, tables)
            self._key_by_id[id(winner)] = (winner, k)
            if winner is tables:
                self.stats.misses += 1
                self.stats.build_seconds += elapsed
                self._build_cost[k] = elapsed
            else:
                self.stats.hits += 1
                # The winner records _build_cost[k] under this same lock
                # before publishing the entry, but never credit a silent
                # 0.0 if that invariant ever slips: this thread just built
                # the identical tables, so its own elapsed is an exact
                # stand-in for the cost the hit skipped.
                self.stats.seconds_saved += self._build_cost.setdefault(k, elapsed)
            return winner

    def content_key(self, tables: RoutingTable) -> str | None:
        """The content key ``tables`` was built under, if this cache built
        them; ``None`` for table objects it never handed out."""
        with self._lock:
            known = self._key_by_id.get(id(tables))
        return known[1] if known is not None and known[0] is tables else None

    def get_or_lower(
        self, net: Network, tables: RoutingTable, vc_count: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ``(ports, lut)`` pair the engines route from,
        memoized by content.

        ``ports`` is ``tables.ports_on(net)`` -- the table's own matrix
        (a read-only view when the table is not frozen) while the network
        keeps the table's ids -- and ``lut`` is
        :func:`~repro.routing.base.port_link_lut` for ``vc_count``; the
        next base channel is ``lut[r, ports[r, e]]``
        (:func:`~repro.routing.base.next_channel`).  No routers x ends
        channel matrix is built.

        When ``tables`` is an object this cache handed out, the pair is
        stored under the same content key (plus ``vc_count``) -- cached
        tables are frozen, and the key embeds the network fingerprint whose
        canonical JSON preserves node insertion order, so one pair is valid
        for every structurally identical network.  Unknown table objects
        get a fresh pair on every call.
        """
        key = self.content_key(tables)
        lk = (key, vc_count)
        if key is not None:
            with self._lock:
                got = self._route_pairs.get(lk)
            if got is not None:
                return got
        ports = tables.ports_on(net)
        if ports.flags.writeable:
            ports = ports.view()
            ports.flags.writeable = False
        lut = port_link_lut(net, ports, vc_count)
        lut.flags.writeable = False
        pair = (ports, lut)
        if key is not None:
            with self._lock:
                pair = self._route_pairs.setdefault(lk, pair)
        return pair

    # -- derived results (recovery certification) ------------------------
    def memo_get(self, key: str) -> Any | None:
        """A result memoized under ``key`` by :meth:`memo_put`, or None."""
        with self._lock:
            return self._memo.get(key)

    def memo_put(self, key: str, value: Any) -> Any:
        """Memoize ``value`` under ``key``; first writer wins (returned)."""
        with self._lock:
            return self._memo.setdefault(key, value)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._build_cost.clear()
            self._key_by_id.clear()
            self._route_pairs.clear()
            self._memo.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RoutingTableCache {len(self._entries)} entries, "
            f"{self.stats.hits} hits / {self.stats.misses} misses>"
        )


#: Process-wide cache used by :func:`cached_tables`, the CLI and the
#: parallel sweep runner.  Forked sweep workers inherit a copy and then
#: populate their own.
DEFAULT_CACHE = RoutingTableCache()


def cached_tables(
    net: Network,
    algorithm: str | None = None,
    disables: Any = None,
    cache: RoutingTableCache | None = None,
    **params: Any,
) -> RoutingTable:
    """Compile (or fetch) the routing tables matching ``net``.

    The one-stop replacement for the ``<topology>_tables(net)`` calls the
    experiment drivers used to repeat: identical inputs return the
    identical table object without re-running BFS/compilation.
    """
    return (DEFAULT_CACHE if cache is None else cache).get_or_build(
        net, algorithm=algorithm, disables=disables, **params
    )
