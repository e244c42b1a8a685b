"""Serial vs parallel sweeps must be bit-identical.

The parallel runner's whole contract is that ``jobs`` is a pure
performance knob: every task derives its seed from its identity, so the
same grid produces byte-for-byte the same numbers on one worker or many.
These tests pin that contract for latency curves (wormhole and
store-and-forward), saturation grids, and the rewired experiment drivers.
"""

from __future__ import annotations

import functools

import pytest

from repro.routing.dimension_order import dimension_order_tables
from repro.sim.api import NetworkSpec, resolve_target
from repro.sim.parallel import SweepRunner, derive_seed
from repro.sim.sweep import curve_points, find_saturation
from repro.topology.mesh import mesh

RATES = (0.01, 0.05, 0.12)


def fanned_curve(net, tables, rates, jobs=1, network=None, **kwargs):
    """A curve fanned over a ``jobs``-worker runner."""
    with SweepRunner(jobs) as runner:
        return curve_points(
            net, tables, rates, run_batch=runner.execute_batch, network=network,
            **kwargs,
        )


def saturation(target, **kwargs):
    """One saturation search per task (module level, so it pickles)."""
    net, tables = resolve_target(target)
    return find_saturation(net, tables, **kwargs)


@pytest.fixture(scope="module")
def small():
    net = mesh((3, 3), nodes_per_router=1)
    return net, dimension_order_tables(net)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1996, "rate", "0.01") == derive_seed(1996, "rate", "0.01")

    def test_distinct_identities_distinct_seeds(self):
        seeds = {
            derive_seed(1996, "rate", repr(r), "switching", sw)
            for r in (0.01, 0.02, 0.05)
            for sw in ("wormhole", "store_and_forward")
        }
        assert len(seeds) == 6

    def test_base_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_parts_are_not_concatenated_ambiguously(self):
        assert derive_seed(1996, "ab", "c") != derive_seed(1996, "a", "bc")

    def test_numpy_legal_range(self):
        s = derive_seed(1996, "rate", "0.01")
        assert 0 <= s < 2**63


@pytest.mark.parametrize("switching", ["wormhole", "store_and_forward"])
class TestCurveDeterminism:
    def test_serial_equals_parallel(self, small, switching):
        net, tables = small
        serial = fanned_curve(
            net, tables, RATES, cycles=600, switching=switching, jobs=1
        )
        parallel = fanned_curve(
            net, tables, RATES, cycles=600, switching=switching, jobs=3
        )
        # LoadPoint is a frozen dataclass of floats/bools: == is bit-equality
        assert serial == parallel

    def test_point_identity_not_position(self, small, switching):
        """A point's value depends on its rate, not its slot in the grid:
        sweeping a subset reproduces the same LoadPoints."""
        net, tables = small
        full = fanned_curve(
            net, tables, RATES, cycles=600, switching=switching, jobs=1
        )
        subset = fanned_curve(
            net, tables, RATES[1:], cycles=600, switching=switching, jobs=1
        )
        assert full[1:] == subset


class TestRunnerDeterminism:
    def test_spec_and_pair_targets_agree(self, small):
        """Shipping (net, tables) by value and rebuilding from a spec in
        the worker must measure identical points."""
        net, tables = small
        spec = NetworkSpec.make("mesh", shape=(3, 3), nodes_per_router=1)
        from_pair = fanned_curve(net, tables, RATES, jobs=2, cycles=600)
        from_spec = fanned_curve(
            *resolve_target(spec), RATES, jobs=2, network=spec, cycles=600
        )
        assert from_pair == from_spec

    def test_saturation_grid_serial_equals_parallel(self, small):
        net, tables = small
        targets = {
            "mesh": (net, tables),
            "mesh-spec": NetworkSpec.make("mesh", shape=(3, 3), nodes_per_router=1),
        }
        search = functools.partial(saturation, cycles=600, resolution=0.02)
        with SweepRunner(1) as runner:
            serial = dict(zip(targets, runner.map(search, targets.values())))
        with SweepRunner(2) as runner:
            parallel = dict(zip(targets, runner.map(search, targets.values())))
        assert serial == parallel
        # both targets are the same network, so they must agree too
        assert serial["mesh"] == serial["mesh-spec"]

    def test_map_preserves_submission_order(self):
        runner = SweepRunner(3)
        assert runner.map(abs, [-3, -1, -2]) == [3, 1, 2]

    def test_timing_stats_cover_every_task(self, small):
        net, tables = small
        runner = SweepRunner(2)
        curve_points(net, tables, RATES, cycles=300, run_batch=runner.execute_batch)
        runner.close()
        assert len(runner.stats.timings) == len(RATES)
        assert runner.stats.task_seconds > 0
        assert runner.stats.wall_seconds > 0
        summary = runner.stats.summary()
        assert summary["tasks"] == len(RATES)
        assert "speedup" in summary and summary["jobs"] == 2
        assert "runner:" in runner.stats.report()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(0)


class TestExperimentDeterminism:
    def test_future_simulation_grid(self):
        from repro.experiments import future_simulation

        serial = future_simulation.run(rates=(0.005,), cycles=300, jobs=1)
        parallel = future_simulation.run(rates=(0.005,), cycles=300, jobs=2)
        assert serial == parallel

    def test_fault_rows(self):
        from repro.experiments import fault_study

        serial = fault_study.run(failure_counts=(1, 2), trials=3, jobs=1)
        parallel = fault_study.run(failure_counts=(1, 2), trials=3, jobs=2)
        assert serial["rows"] == parallel["rows"]

    def test_table2_sides(self):
        from repro.experiments import table2_comparison

        assert table2_comparison.run(jobs=1) == table2_comparison.run(jobs=2)
