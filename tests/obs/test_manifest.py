"""Run manifests: provenance fields and the engine-identity contract."""

from repro.obs import deterministic_view, experiment_manifest, run_manifest
from repro.routing.cache import network_fingerprint
from repro.sim.engine import SimConfig
from repro.topology.mesh import mesh


def test_run_manifest_records_provenance():
    net = mesh((3, 3), nodes_per_router=1)
    man = run_manifest(
        net,
        SimConfig(),
        engine="compiled",
        seed=42,
        jobs=4,
        sample_interval=100,
        wall_seconds=1.23456789,
        rates=[0.01, 0.05],
    )
    assert man["kind"] == "manifest"
    assert man["topology_fingerprint"] == network_fingerprint(net)
    assert man["num_routers"] == 9 and man["num_end_nodes"] == 9
    assert man["seed"] == 42
    assert man["engine"] == "compiled" and man["jobs"] == 4
    assert man["wall_seconds"] == 1.234568
    assert man["rates"] == [0.01, 0.05]
    assert man["sim_config"]["buffer_depth"] == 4


def test_engine_never_leaks_into_nested_config():
    # deterministic_view strips top-level identity keys only, so the
    # manifest must lift the engine selector out of the nested sim_config
    net = mesh((2, 2), nodes_per_router=1)
    a = run_manifest(net, SimConfig(engine="compiled"), jobs=1)
    b = run_manifest(net, SimConfig(engine="reference"), jobs=8)
    assert "engine" not in a["sim_config"]
    assert a["engine"] == "compiled" and b["engine"] == "reference"
    assert deterministic_view([a]) == deterministic_view([b])


def test_engine_defaults_to_config_selector():
    net = mesh((2, 2), nodes_per_router=1)
    man = run_manifest(net, SimConfig(engine="reference"))
    assert man["engine"] == "reference"


def test_experiment_manifest_duck_types_config():
    from repro.experiments.registry import ExperimentConfig

    man = experiment_manifest(
        "table2", ExperimentConfig(jobs=2), 0.5, params={"trials": "3"}
    )
    assert man["kind"] == "manifest" and man["experiment"] == "table2"
    assert man["wall_seconds"] == 0.5
    assert man["params"] == {"trials": "3"}


def test_experiment_results_carry_manifests():
    from repro.experiments.registry import get_experiment

    result = get_experiment("fig1").run()
    assert result.manifest is not None
    assert result.manifest["experiment"] == "fig1"
    assert result.manifest["wall_seconds"] >= 0.0
    assert '"manifest"' in result.to_json()
