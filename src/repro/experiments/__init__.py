"""Experiment drivers: one module per paper table/figure.

Each driver satisfies the :class:`repro.experiments.registry.Experiment`
protocol through the registry (``run(config) -> ExperimentResult`` plus a
printable ``report()``); the CLI, the parallel runner and the
reproduction artifact all dispatch through
:func:`repro.experiments.registry.get_experiment`.
"""

from repro.experiments import (  # noqa: F401 - re-exported module namespace
    ablations,
    adaptive_order,
    fault_study,
    fig1_deadlock,
    fig2_hypercube,
    fig3_assemblies,
    future_simulation,
    registry,
    sec24_deadlock,
    sec31_mesh,
    sec32_hypercube,
    sec33_fattree,
    table1_fractahedron,
    table2_comparison,
)
from repro.experiments.registry import (  # noqa: F401 - public API
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    experiment_names,
    get_experiment,
    register_experiment,
)

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "experiment_names",
    "get_experiment",
    "register_experiment",
]
