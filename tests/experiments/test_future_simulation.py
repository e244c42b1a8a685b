"""The section 4.0 load-point path: SimSpec batches and one steady window.

Grid cells, lone load points and ``repro simulate`` all run a
:func:`~repro.experiments.future_simulation.point_spec` through the
:mod:`repro.sim.api` entry points and summarize it with
:func:`~repro.experiments.future_simulation.point_row`.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import future_simulation as fs
from repro.obs import SimProbe, read_metrics, write_metrics
from repro.routing.cache import cached_tables
from repro.sim import api
from repro.sim.parallel import SweepRunner, derive_seed
from repro.sim.vec import UniformPlan
from repro.topology.mesh import mesh

RATES = (0.002, 0.005, 0.01, 0.02, 0.04)
CYCLES = 600


class _Recorder(SweepRunner):
    """A serial runner that keeps the engine of every batched result."""

    def __init__(self) -> None:
        super().__init__(1)
        self.engines: list[str] = []

    def execute_batch(self, specs):
        results = super().execute_batch(specs)
        self.engines.extend(result.engine for result in results)
        return results


@pytest.fixture(scope="module")
def grid():
    return fs.run(rates=RATES, cycles=CYCLES)


def test_grid_runs_as_three_vectorized_batches(monkeypatch):
    batches: list[int] = []

    class Spy(api.VecCore):
        def __init__(self, net, tables, plans, *args, **kwargs):
            batches.append(len(plans))
            super().__init__(net, tables, plans, *args, **kwargs)

    monkeypatch.setattr(api, "VecCore", Spy)
    runner = _Recorder()
    fs.run(rates=RATES, cycles=CYCLES, runner=runner)
    assert batches == [len(RATES)] * len(fs.CONTENDERS)
    assert runner.engines == ["vectorized"] * (len(RATES) * len(fs.CONTENDERS))


def test_grid_rows_equal_lone_compiled_points(grid):
    for name, build in fs.CONTENDERS.items():
        net, tables = build()
        for rate, row in zip(RATES, grid[name]["sweep"]):
            seed = derive_seed(1996, "contender", name, "rate", repr(rate))
            lone = fs.simulate_load_point(
                net, tables, rate, CYCLES, seed=seed, engine="compiled"
            )
            assert row == lone, (name, rate)


def test_point_row_reads_the_steady_window():
    net = mesh((3, 3), nodes_per_router=1)
    tables = cached_tables(net)
    spec = fs.point_spec(net, tables, 0.05, 400, seed=3)
    result = api.execute(spec)
    row = fs.point_row(spec, result)
    steady = [
        p.latency
        for p in result.packets.values()
        if p.delivered is not None and p.created >= 400 // 5
    ]
    assert row["steady_avg_latency"] == pytest.approx(sum(steady) / len(steady))
    assert row["delivered"] == result.stats.packets_delivered


def test_simulate_sample_interval_timeline_unchanged(tmp_path, capsys):
    # the probed `simulate` point equals a probe on the lone simulator
    # built the way the command built it before it ran through sample_point
    out = str(tmp_path / "sim.jsonl")
    argv = ["simulate", "mesh", "--param", "shape=3,3", "--rate", "0.03",
            "--cycles", "300", "--seed", "5", "--sample-interval", "50",
            "--metrics-out", out]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    rows = read_metrics(out)

    net = mesh((3, 3))
    tables = cached_tables(net)
    probe = SimProbe(50)
    sim = api.make_sim(
        net, tables, UniformPlan(0.03, 8, 5), fs.POINT_CONFIG, probe=probe
    )
    stats = sim.run(300, drain=False)
    sim.finalize()
    want = read_metrics(
        write_metrics(tmp_path / "want.jsonl", probe.timeline_rows(rate=0.03))
    )
    assert want and [r for r in rows if r["kind"] == "sample"] == want
    assert f"avg latency {stats.avg_latency:.1f}" in printed
