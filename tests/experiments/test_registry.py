"""Tests for the Experiment protocol, registry, and deprecation shim."""

import json

import pytest

from repro.experiments import registry
from repro.experiments.registry import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    ModuleExperiment,
    experiment_names,
    get_experiment,
    register_experiment,
)


class TestRegistry:
    def test_all_drivers_registered_in_paper_order(self):
        names = experiment_names()
        assert names[:4] == ["fig1", "fig2", "fig3", "table1"]
        assert "faults" in names and "scale" in names and "ablations" in names
        assert "modern" in names
        assert len(names) == 15

    def test_every_registered_experiment_satisfies_protocol(self):
        for name in experiment_names():
            exp = get_experiment(name)
            assert isinstance(exp, Experiment)
            assert exp.name == name
            assert exp.description  # first doc line, non-empty

    def test_unknown_experiment_lists_available(self):
        with pytest.raises(ValueError, match="unknown experiment 'fig9'"):
            get_experiment("fig9")

    def test_custom_registration_does_not_hide_builtins(self, monkeypatch):
        # regression: the guard must be a flag, not `if _REGISTRY:`
        monkeypatch.setattr(registry, "_REGISTRY", {})
        monkeypatch.setattr(registry, "_defaults_loaded", False)

        class Custom:
            name = "custom"
            description = "synthetic"

            def run(self, config=None):
                return ExperimentResult("custom", {"x": 1}, config)

            def report(self, config=None):
                return "custom"

        register_experiment(Custom())
        names = experiment_names()
        assert "custom" in names and "fig1" in names and "faults" in names
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(Custom())


class TestExperimentResult:
    def test_to_json_round_trips(self):
        result = ExperimentResult("demo", {"rows": [{"a": 1}], "pairs": 2})
        record = json.loads(result.to_json())
        assert record == {"experiment": "demo", "data": {"rows": [{"a": 1}], "pairs": 2}}

    def test_rows_passthrough_and_fallbacks(self):
        assert ExperimentResult("d", {"rows": [{"a": 1}, {"a": 2}]}).rows() == [
            {"a": 1},
            {"a": 2},
        ]
        assert ExperimentResult("d", [{"a": 1}]).rows() == [{"a": 1}]
        assert ExperimentResult("d", {"a": 1}).rows() == [{"a": 1}]
        assert ExperimentResult("d", 7).rows() == [{"value": 7}]

    def test_rows_are_copies(self):
        data = {"rows": [{"a": 1}]}
        result = ExperimentResult("d", data)
        result.rows()[0]["a"] = 99
        assert data["rows"][0]["a"] == 1


class TestModuleExperiment:
    def test_run_returns_typed_result_and_forwards_params(self):
        exp = get_experiment("faults")
        assert isinstance(exp, ModuleExperiment)
        config = ExperimentConfig(
            params={"failure_counts": (1,), "trials": 2, "recovery": False}
        )
        result = exp.run(config)
        assert isinstance(result, ExperimentResult)
        assert result.name == "faults" and result.config is config
        assert [row["failures"] for row in result.rows()] == [1]
        assert "recovery" not in result.data  # params reached the driver

    def test_description_is_first_doc_line(self):
        assert get_experiment("faults").description.startswith("§1.0:")

