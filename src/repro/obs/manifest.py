"""Run manifests: the provenance record attached to every result.

A manifest answers "what exactly produced these numbers?" -- the
simulator configuration, seeds, engine, and a content fingerprint of the
topology (the same sha256 the routing-table cache keys on, so a manifest
cross-references cache entries directly).  It rides along with every
:class:`~repro.experiments.registry.ExperimentResult` and is the first
row of every ``--metrics-out`` file.

Wall time and engine/job identity are recorded for humans but stripped
by :func:`repro.obs.export.deterministic_view`, so two manifests from
the same simulated work still diff clean across engines and job counts.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.network.graph import Network
from repro.routing.cache import network_fingerprint
from repro.sim.engine import SimConfig

__all__ = ["experiment_manifest", "run_manifest", "sim_config_dict"]


def sim_config_dict(config: SimConfig) -> dict[str, Any]:
    """A SimConfig as one JSON-safe dict (nested policies flattened in)."""
    doc = dataclasses.asdict(config)
    # asdict already expanded retry/reroute dataclasses into dicts; None
    # stays None so "recovery disabled" is visible in the record.
    return doc


def run_manifest(
    net: Network,
    config: SimConfig,
    *,
    engine: str | None = None,
    jobs: int | None = None,
    sample_interval: int = 0,
    wall_seconds: float | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """Provenance row for one simulation run (or one sweep over ``net``).

    ``config`` is the config the engine ran.  ``engine`` defaults to the
    config's engine selector; pass the *resolved* engine name when you
    know it (``sim.engine``).
    ``extra`` keys (e.g. ``seed=1996``, ``rates=[...]``) are folded in
    verbatim so callers can record their traffic seed and what they swept.

    The engine selector is lifted out of the nested ``sim_config`` into
    the top-level ``engine`` key: :func:`repro.obs.export.deterministic_view`
    strips top-level identity keys only, and the whole point of the
    manifest's determinism contract is that runs differing *only* in
    engine (or job count) stay bit-identical.
    """
    cfg = sim_config_dict(config)
    cfg_engine = cfg.pop("engine")
    doc: dict[str, Any] = {
        "kind": "manifest",
        "topology": net.attrs.get("topology", "unknown"),
        "topology_fingerprint": network_fingerprint(net),
        "num_routers": net.num_routers,
        "num_end_nodes": net.num_end_nodes,
        "num_links": net.num_links,
        "sim_config": cfg,
        "engine": engine if engine is not None else cfg_engine,
        "jobs": jobs,
        "sample_interval": sample_interval,
        "wall_seconds": None if wall_seconds is None else round(wall_seconds, 6),
    }
    doc.update(extra)
    return doc


def experiment_manifest(
    name: str,
    config: Any,
    wall_seconds: float,
    **extra: Any,
) -> dict[str, Any]:
    """Provenance record for one registry experiment run.

    ``config`` is the :class:`~repro.experiments.registry.ExperimentConfig`
    (duck-typed: anything with the standard fields works, so the registry
    does not import us at type-check strictness).
    """
    doc: dict[str, Any] = {
        "kind": "manifest",
        "experiment": name,
        "seed": getattr(config, "seed", None),
        "sizes": list(getattr(config, "sizes", ()) or ()),
        "cycles": getattr(config, "cycles", None),
        "engine": getattr(config, "engine", None),
        "wall_seconds": round(wall_seconds, 6),
    }
    doc.update(extra)
    return doc
