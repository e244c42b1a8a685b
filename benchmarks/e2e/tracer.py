"""The benchmark's span tracer: wrappers around the program's public calls.

A traced iteration installs a wrapper on every entry point in
:data:`TARGETS`.  Each wrapper records one :class:`Span` (name, start, end,
parent span, run id) per call and, for some targets, adds work counts taken
from the call's arguments or result.  Spans stay in memory; the iteration
returns them when it ends.  Untraced iterations install no wrappers, so
their timings carry no tracing cost.

A module-level function is patched in every loaded module that holds it
(``repro.sim.vec.compile_network`` as well as
``repro.sim.compile.compile_network``), because ``from x import f`` copies
the reference.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["LAYER_METRICS", "Span", "Tracer", "layer_metrics", "self_times"]


class Span:
    """One timed call: ``parent`` is the id of the enclosing span or None."""

    __slots__ = ("id", "name", "start", "end", "parent", "run")

    def __init__(self, id: int, name: str, start: float, parent: int | None, run: str):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run

    def as_dict(self) -> dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}


Count = Callable[[Counter, tuple, Any], None]


def _count_pairs(counts: Counter, args: tuple, report: Any) -> None:
    counts["deadlock.pairs_checked"] += report.pairs_checked


def _count_routes(counts: Counter, args: tuple, routes: Any) -> None:
    counts["routing.routes_walked"] += len(routes)


def _count_dependencies(counts: Counter, args: tuple, result: Any) -> None:
    counts["deadlock.dependencies"] += result.num_dependencies


def _count_compiled(counts: Counter, args: tuple, result: Any) -> None:
    counts["sim.runs_compiled"] += 1


def _count_vectorized(counts: Counter, args: tuple, result: Any) -> None:
    counts["sim.runs_vectorized"] += 1
    counts["sim.batch_replicas"] += args[0].B


def _count_stepping(counts: Counter, args: tuple, result: Any) -> None:
    # VecCore.run returns one SimStats per replica; the scalar engines one
    replicas = result if isinstance(result, list) else [result]
    counts["sim.cycles_stepped"] += max(s.cycles for s in replicas)
    counts["sim.flits_moved"] += sum(s.flits_moved for s in replicas)
    peak = max(s.peak_occupied_buffers for s in replicas)
    counts["sim.peak_occupied_buffers"] = max(counts["sim.peak_occupied_buffers"], peak)


def _count_points(counts: Counter, args: tuple, points: Any) -> None:
    counts["sweep.points"] += len(points)


def _count_probe(counts: Counter, args: tuple, point: Any) -> None:
    counts["sweep.probes"] += 1


def _count_worm_kill(counts: Counter, args: tuple, result: Any) -> None:
    counts["recovery.dropped"] += 1


def _count_episode(counts: Counter, args: tuple, row: dict) -> None:
    counts["recovery.table_swaps"] += row["reroutes"]
    counts["recovery.retried"] += row["retried"]
    counts["recovery.failed_over"] += row["failed_over"]


#: (module, attribute, span name, count hook).  ``Class.method`` attributes
#: are patched on the class; plain names in every module holding them.
TARGETS: tuple[tuple[str, str, str, Count | None], ...] = (
    ("repro.topology.registry", "build_topology", "topology.build", None),
    ("repro.topology.mesh", "mesh", "topology.build", None),
    ("repro.topology.fattree", "fat_tree", "topology.build", None),
    ("repro.core.fractahedron", "fat_fractahedron", "topology.build", None),
    ("repro.routing.cache", "RoutingTableCache.get_or_build", "routing.tables", None),
    ("repro.routing.validate", "validate_routing", "routing.validate", _count_pairs),
    ("repro.routing.base", "all_pairs_routes", "routing.route_walk", None),
    ("repro.routing.base", "routes_for_pairs", "routing.route_walk", _count_routes),
    ("repro.deadlock.certifier", "certify_channel_order", "deadlock.order", _count_dependencies),
    ("repro.deadlock.analysis", "certify_deadlock_free", "deadlock.cdg", _count_dependencies),
    ("repro.sim.compile", "compile_network", "sim.compile", None),
    ("repro.routing.cache", "RoutingTableCache.get_or_lower", "sim.lower", None),
    ("repro.sim.api", "make_sim", "sim.make_sim", None),
    ("repro.sim.network_sim", "ReferenceSim.__init__", "sim.engine_init", None),
    ("repro.sim.compile", "SimCore.__init__", "sim.engine_init", _count_compiled),
    ("repro.sim.vec", "VecCore.__init__", "sim.engine_init", _count_vectorized),
    ("repro.sim.network_sim", "ReferenceSim.run", "sim.run", _count_stepping),
    ("repro.sim.compile", "SimCore.run", "sim.run", _count_stepping),
    ("repro.sim.vec", "VecCore.run", "sim.run", _count_stepping),
    ("repro.sim.network_sim", "ReferenceSim.finalize", "sim.finalize", None),
    ("repro.sim.compile", "SimCore.finalize", "sim.finalize", None),
    ("repro.sim.vec", "VecCore.finalize", "sim.finalize", None),
    ("repro.sim.api", "execute", "sim.execute", None),
    ("repro.sim.api", "execute_batch", "sim.execute_batch", None),
    ("repro.sim.sweep", "curve_points", "sweep.curve", _count_points),
    ("repro.sim.sweep", "find_saturation", "sweep.saturation", None),
    ("repro.sim.sweep", "measure_point", "sweep.probe", _count_probe),
    ("repro.metrics.hops", "hop_stats_sampled", "sweep.zero_load", None),
    ("repro.sim.recovery", "simulate_with_recovery", "recovery.episode", _count_episode),
    ("repro.sim.recovery", "recompute_recovery_tables", "recovery.recompute", None),
    ("repro.sim.network_sim", "ReferenceSim.drop_packet", "recovery.drop_packet", _count_worm_kill),
    ("repro.sim.compile", "SimCore.drop_packet", "recovery.drop_packet", _count_worm_kill),
)

#: Per-layer metric -> unit.  ``*_s`` metrics are self times: a span's
#: duration minus the time its child spans cover, summed over the layer.
LAYER_METRICS: dict[str, str] = {
    "topology.build_s": "s",
    "routing.tables_s": "s",
    "routing.cache_hits": "count",
    "routing.cache_misses": "count",
    "routing.validate_s": "s",
    "routing.route_walk_s": "s",
    "routing.routes_walked": "count",
    "deadlock.order_s": "s",
    "deadlock.cdg_s": "s",
    "deadlock.dependencies": "count",
    "deadlock.pairs_checked": "count",
    "sim.compile_s": "s",
    "sim.lower_s": "s",
    "sim.engine_init_s": "s",
    "sim.run_s": "s",
    "sim.us_per_cycle": "us",
    "sim.ns_per_flit": "ns",
    "sim.peak_occupied_buffers": "count",
    "sim.finalize_s": "s",
    "sim.runs_vectorized": "count",
    "sim.runs_compiled": "count",
    "sim.batch_replicas": "count",
    "sim.execute_s": "s",
    "sim.execute_batch_s": "s",
    "sweep.curve_s": "s",
    "sweep.saturation_s": "s",
    "sweep.points": "count",
    "sweep.probes": "count",
    "sweep.zero_load_s": "s",
    "recovery.episode_s": "s",
    "recovery.recompute_s": "s",
    "recovery.certify_s": "s",
    "recovery.table_swaps": "count",
    "recovery.retried": "count",
    "recovery.dropped": "count",
    "recovery.failed_over": "count",
}


class Tracer:
    """Records spans around the wrapped calls of one iteration."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any, bool]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, count: Count | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(vars(cls)[method], name, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, count)
            for holder in list(sys.modules.values()):
                names = getattr(holder, "__dict__", {})
                for key in [k for k, v in names.items() if v is original]:
                    self._patch(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, own = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.end - span.start - covered[span.id]
    return out


def _certify_in_recovery(spans: list[Span]) -> float:
    """Time of deadlock certification called from the recovery layer."""
    total = 0.0
    for span in spans:
        if not span.name.startswith("deadlock."):
            continue
        parent = span.parent
        while parent is not None and not spans[parent].name.startswith("recovery."):
            parent = spans[parent].parent
        if parent is not None:
            total += span.end - span.start
    return total


def layer_metrics(spans: list[Span], counts: Counter, cache: Any) -> dict[str, float]:
    """The :data:`LAYER_METRICS` of one traced iteration.

    ``cache`` is the routing-table cache the iteration used; its hit and
    miss counters cover the whole (fresh) process.
    """
    own = self_times(spans)
    out = {m: own.get(m[: -len("_s")], 0.0) for m in LAYER_METRICS if m.endswith("_s")}
    # engine set-up is what make_sim and the engine constructors do besides
    # compiling the network and lowering the tables (their child spans)
    out["sim.engine_init_s"] += own.get("sim.make_sim", 0.0)
    out["recovery.certify_s"] = _certify_in_recovery(spans)
    out["routing.cache_hits"] = cache.stats.hits
    out["routing.cache_misses"] = cache.stats.misses
    run_s = out["sim.run_s"]
    cycles, flits = counts["sim.cycles_stepped"], counts["sim.flits_moved"]
    out["sim.us_per_cycle"] = run_s / cycles * 1e6 if cycles else 0.0
    out["sim.ns_per_flit"] = run_s / flits * 1e9 if flits else 0.0
    for name in LAYER_METRICS:
        out.setdefault(name, counts[name])
    return {name: out[name] for name in LAYER_METRICS}
