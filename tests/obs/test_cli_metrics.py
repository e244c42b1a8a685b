"""End-to-end CLI: --metrics-out, --check-parity and `fractanet report`.

This is the same drill the CI smoke step runs: instrumented sweeps across
engines and job counts must produce metrics files whose deterministic
views are bit-identical.
"""

import pytest

from repro.cli import main
from repro.obs import read_metrics

SWEEP = ["sweep", "mesh", "--param", "shape=3,3", "--rates", "0.01,0.05",
         "--cycles", "400", "--sample-interval", "100"]


def _sweep(tmp_path, name: str, *extra: str) -> str:
    out = str(tmp_path / name)
    assert main(SWEEP + ["--metrics-out", out, *extra]) == 0
    return out


class TestSweepMetrics:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        return _sweep(
            tmp_path_factory.mktemp("metrics"), "a.jsonl",
            "--engine", "compiled", "--jobs", "1",
        )

    def test_emits_manifest_points_samples_counters(self, baseline):
        rows = read_metrics(baseline)
        kinds = {r["kind"] for r in rows}
        assert {"manifest", "point", "sample", "span", "counter"} <= kinds
        manifest = rows[0]
        assert manifest["kind"] == "manifest"
        assert manifest["topology_fingerprint"]
        assert manifest["sample_interval"] == 100
        samples = [r for r in rows if r["kind"] == "sample"]
        assert samples and all("link_utilization" in s for s in samples)

    def test_identical_across_engines(self, baseline, tmp_path, capsys):
        other = _sweep(tmp_path, "b.jsonl", "--engine", "reference", "--jobs", "1")
        assert main(["report", baseline, "--diff", other]) == 0
        assert "identical" in capsys.readouterr().out

    def test_identical_across_job_counts(self, baseline, tmp_path):
        other = _sweep(tmp_path, "c.jsonl", "--engine", "compiled", "--jobs", "4")
        assert main(["report", baseline, "--diff", other]) == 0

    def test_report_renders_sections(self, baseline, capsys):
        assert main(["report", baseline]) == 0
        out = capsys.readouterr().out
        assert "run manifest:" in out
        assert "sweep points" in out
        assert "hottest links" in out

    def test_diff_flags_divergence(self, baseline, tmp_path, capsys):
        rows = read_metrics(baseline)
        for row in rows:
            if row["kind"] == "point":
                row["avg_latency"] = -1.0
        from repro.obs import write_metrics

        tampered = tmp_path / "t.jsonl"
        write_metrics(tampered, rows)
        assert main(["report", baseline, "--diff", str(tampered)]) == 1
        assert "avg_latency" in capsys.readouterr().out


class TestSimulateMetrics:
    def test_check_parity_smoke(self, capsys):
        assert main([
            "simulate", "mesh", "--param", "shape=3,3",
            "--rate", "0.03", "--cycles", "300", "--check-parity",
        ]) == 0
        assert "counter parity OK" in capsys.readouterr().out

    def test_check_parity_recovery_path(self, capsys):
        assert main([
            "simulate", "mesh", "--param", "shape=3,3",
            "--rate", "0.03", "--cycles", "300",
            "--faults", "2", "--retry", "--check-parity",
        ]) == 0
        assert "counter parity OK" in capsys.readouterr().out

    def test_check_parity_recovery_path_without_deliveries(self, capsys):
        # no traffic: every engine reports a NaN average latency, which
        # is agreement, not a parity failure
        assert main([
            "simulate", "ring", "--param", "num_routers=4",
            "--rate", "0", "--cycles", "100",
            "--faults", "1", "--retry", "--check-parity",
        ]) == 0
        assert "identical on 3 engines" in capsys.readouterr().out

    def test_metrics_out_with_sampling(self, tmp_path):
        out = str(tmp_path / "sim.jsonl")
        assert main([
            "simulate", "mesh", "--param", "shape=3,3",
            "--rate", "0.03", "--cycles", "300",
            "--sample-interval", "50", "--metrics-out", out,
        ]) == 0
        rows = read_metrics(out)
        assert rows[0]["kind"] == "manifest"
        assert rows[0]["command"] == "simulate"
        assert any(r["kind"] == "sample" for r in rows)


class TestRunMetrics:
    def test_experiment_manifest_and_rows(self, tmp_path):
        out = str(tmp_path / "fig1.jsonl")
        assert main(["run", "fig1", "--metrics-out", out]) == 0
        rows = read_metrics(out)
        assert rows[0]["kind"] == "manifest"
        assert rows[0]["experiment"] == "fig1"
        assert any(r["kind"] == "row" for r in rows)


class TestManifestConfig:
    """The manifest's ``sim_config`` is the config the engine ran."""

    @pytest.fixture
    def ran(self, monkeypatch):
        # every engine constructor asks preferred_engine with its config
        from repro.sim import api

        configs = []
        decide = api.preferred_engine

        def spy(net, config, *args, **kwargs):
            configs.append(config)
            return decide(net, config, *args, **kwargs)

        monkeypatch.setattr(api, "preferred_engine", spy)
        return configs

    def _check(self, tmp_path, ran, argv):
        from repro.obs.manifest import sim_config_dict

        out = str(tmp_path / "m.jsonl")
        assert main(argv + ["--metrics-out", out]) in (0, 1)
        manifest = read_metrics(out)[0]
        assert ran
        for config in ran:
            want = sim_config_dict(config)
            want.pop("engine")
            assert manifest["sim_config"] == want
        assert manifest["seed"] == 5

    MESH = ["mesh", "--param", "shape=3,3", "--cycles", "300", "--seed", "5"]

    def test_simulate(self, tmp_path, ran):
        self._check(tmp_path, ran, ["simulate", *self.MESH, "--rate", "0.03"])

    def test_simulate_faulted(self, tmp_path, ran):
        self._check(
            tmp_path, ran,
            ["simulate", *self.MESH, "--faults", "2", "--retry", "--reroute"],
        )

    def test_sweep_curve(self, tmp_path, ran):
        self._check(tmp_path, ran, ["sweep", *self.MESH, "--rates", "0.01,0.05"])

    def test_sweep_faults(self, tmp_path, ran):
        self._check(
            tmp_path, ran, ["sweep", *self.MESH, "--faults", "1,2", "--retry"]
        )
