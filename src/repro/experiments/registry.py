"""The Experiment protocol and registry: one typed front door for drivers.

Historically every experiment was a bare module exposing ``run()`` (a
plain dict) and ``report()`` (text), and each caller -- the CLI, the
reproduction artifact, the parallel runner -- re-implemented dispatch,
``jobs`` forwarding and result handling.  This module centralizes that:

* :class:`Experiment` is the protocol every driver satisfies:
  ``run(config) -> ExperimentResult`` and ``report(config) -> str``.
* :class:`ExperimentResult` is the typed result envelope with
  ``to_json()`` (machine-readable artifact) and ``rows()`` (canonical
  tabular view for summaries and golden fixtures).
* :class:`ModuleExperiment` adapts the existing driver modules to the
  protocol without rewriting them; ``jobs`` and extra parameters are
  forwarded only when the underlying ``run()`` accepts them.
* :func:`get_experiment` / :func:`experiment_names` are what the CLI and
  ``reproduce`` dispatch through.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Mapping, Protocol, runtime_checkable

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "ModuleExperiment",
    "experiment_names",
    "get_experiment",
    "register_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Execution knobs shared by every experiment.

    Attributes:
        jobs: worker processes for drivers that sweep (forwarded only to
            ``run()`` implementations that accept a ``jobs`` keyword).
        params: extra keyword overrides for the driver (trial counts,
            failure grids, ...); unknown keys raise the driver's natural
            ``TypeError`` rather than being silently dropped.
    """

    jobs: int = 1
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Typed envelope around one experiment's output.

    ``data`` is the driver's native result (a dict for every current
    driver); ``rows()`` gives the canonical tabular view that summaries,
    CSV writers and golden fixtures consume, regardless of how the driver
    shaped its dict.
    """

    name: str
    data: Any
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: provenance record (seeds, knobs, wall time) stamped by the runner;
    #: see :func:`repro.obs.manifest.experiment_manifest`
    manifest: dict[str, Any] | None = None

    def to_json(self, indent: int | None = 1) -> str:
        """Machine-readable artifact (sorted keys, so diffs are stable)."""
        doc: dict[str, Any] = {"experiment": self.name, "data": self.data}
        if self.manifest is not None:
            doc["manifest"] = self.manifest
        return json.dumps(doc, indent=indent, sort_keys=True, default=str)

    def rows(self) -> list[dict[str, Any]]:
        """The result as a list of flat records.

        Drivers that already produce a ``"rows"`` list (or are themselves
        a list of dicts) pass through; scalar-shaped results become a
        single row.
        """
        data = self.data
        if isinstance(data, dict) and isinstance(data.get("rows"), list):
            return [dict(r) for r in data["rows"]]
        if isinstance(data, list) and all(isinstance(r, dict) for r in data):
            return [dict(r) for r in data]
        if isinstance(data, dict):
            return [dict(data)]
        return [{"value": data}]


@runtime_checkable
class Experiment(Protocol):
    """What every registered experiment exposes."""

    name: str
    description: str

    def run(self, config: ExperimentConfig | None = None) -> ExperimentResult:
        """Execute and return the typed result."""
        ...  # pragma: no cover - protocol

    def report(self, config: ExperimentConfig | None = None) -> str:
        """Execute and return the printable table."""
        ...  # pragma: no cover - protocol


def _accepts(fn: Any, name: str) -> bool:
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False


@dataclass
class ModuleExperiment:
    """Adapter satisfying :class:`Experiment` over a legacy driver module."""

    name: str
    module: ModuleType

    @property
    def description(self) -> str:
        return (self.module.__doc__ or "").strip().splitlines()[0]

    def run(self, config: ExperimentConfig | None = None) -> ExperimentResult:
        import time

        from repro.obs.manifest import experiment_manifest

        config = config or ExperimentConfig()
        kwargs = dict(config.params)
        if config.jobs > 1 and _accepts(self.module.run, "jobs"):
            kwargs.setdefault("jobs", config.jobs)
        start = time.perf_counter()
        data = self.module.run(**kwargs)
        manifest = experiment_manifest(
            self.name,
            config,
            time.perf_counter() - start,
            jobs=config.jobs,
            params={k: repr(v) for k, v in sorted(config.params.items())},
        )
        return ExperimentResult(self.name, data, config, manifest=manifest)

    def report(self, config: ExperimentConfig | None = None) -> str:
        config = config or ExperimentConfig()
        if config.jobs > 1 and _accepts(self.module.report, "jobs"):
            return self.module.report(jobs=config.jobs)
        return self.module.report()


_REGISTRY: dict[str, Experiment] = {}
_defaults_loaded = False


def register_experiment(experiment: Experiment) -> None:
    """Register an experiment under its ``name`` (must be unique)."""
    if experiment.name in _REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} already registered")
    _REGISTRY[experiment.name] = experiment


def experiment_names() -> list[str]:
    """Registered experiment ids, in registration (paper) order."""
    _ensure_defaults()
    return list(_REGISTRY)


def get_experiment(name: str) -> Experiment:
    """Look up one experiment; raises ``ValueError`` with the listing."""
    _ensure_defaults()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def _ensure_defaults() -> None:
    # Explicit flag, not `if _REGISTRY:` -- registering a custom experiment
    # first must not hide the built-ins (same latent bug the topology
    # registry had).
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True
    from repro.experiments import (
        ablations,
        adaptive_order,
        fault_study,
        fig1_deadlock,
        fig2_hypercube,
        fig3_assemblies,
        future_simulation,
        modern_topologies,
        scale_study,
        sec24_deadlock,
        sec31_mesh,
        sec32_hypercube,
        sec33_fattree,
        table1_fractahedron,
        table2_comparison,
    )

    for name, module in {
        "fig1": fig1_deadlock,
        "fig2": fig2_hypercube,
        "fig3": fig3_assemblies,
        "table1": table1_fractahedron,
        "sec31": sec31_mesh,
        "sec32": sec32_hypercube,
        "sec33": sec33_fattree,
        "table2": table2_comparison,
        "sec24": sec24_deadlock,
        "adaptive": adaptive_order,
        "faults": fault_study,
        "scale": scale_study,
        "modern": modern_topologies,
        "futurework": future_simulation,
        "ablations": ablations,
    }.items():
        register_experiment(ModuleExperiment(name, module))
