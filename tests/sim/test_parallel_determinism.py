"""Serial vs parallel sweeps must be bit-identical.

The parallel runner's whole contract is that ``jobs`` is a pure
performance knob: every task derives its seed from its identity, so the
same grid produces byte-for-byte the same numbers on one worker or many.
These tests pin that contract for latency curves (wormhole and
store-and-forward), saturation grids, and the rewired experiment drivers.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.routing.cache import cached_tables
from repro.routing.dimension_order import dimension_order_tables
from repro.sim import api
from repro.sim.engine import SimConfig
from repro.sim.parallel import SweepRunner, derive_seed
from repro.sim.sweep import curve_points, find_saturation
from repro.sim.vec import UniformPlan
from repro.topology.mesh import mesh
from repro.topology.registry import build_topology

RATES = (0.01, 0.05, 0.12)


def fanned_curve(net, tables, rates, jobs=1, **kwargs):
    """A curve fanned over a ``jobs``-worker runner."""
    with SweepRunner(jobs) as runner:
        return curve_points(net, tables, rates, run_batch=runner.execute_batch, **kwargs)


def saturation(target, **kwargs):
    """One saturation search per task (module level, so it pickles)."""
    return find_saturation(*target, **kwargs)


def rebuilt_mesh():
    """The ``small`` mesh built a second time, through the registry and
    the routing-table cache."""
    net = build_topology("mesh", shape=(3, 3), nodes_per_router=1)
    return net, cached_tables(net)


def grid_spec(target, rate, *identity, engine="auto"):
    """One 300-cycle grid point, seeded from its rate and ``identity``."""
    return api.SimSpec(
        target,
        UniformPlan(rate, 4, derive_seed(1996, *identity, repr(rate))),
        SimConfig(raise_on_deadlock=False, stall_threshold=400, engine=engine),
        cycles=300,
    )


def outcomes(results):
    """What two runs must agree on: stats and packet records."""
    return [(r.stats, tuple(map(tuple, r.records))) for r in results]


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
        """Two separately built (net, tables) pairs of one mesh, each
        shipped by value to the workers, must measure identical runs on
        the vectorized batch and on the compiled core alike."""
        grid = [
            grid_spec(target, rate, engine=engine)
            for target in (small, rebuilt_mesh())
            for engine in ("auto", "compiled")
            for rate in RATES
        ]
        with SweepRunner(2) as runner:
            got = runner.execute_batch(grid)
        # per network: one vectorized group plus one task per compiled rate
        assert len(runner.stats.timings) == 2 * (1 + len(RATES))
        assert runner.stats.workers_used == 2
        assert all(t.pid != os.getpid() for t in runner.stats.timings)
        engines = ["vectorized"] * len(RATES) + ["compiled"] * len(RATES)
        assert [r.engine for r in got] == engines * 2
        half = len(grid) // 2
        assert outcomes(got[:half]) == outcomes(got[half:])

    def test_saturation_grid_serial_equals_parallel(self, small):
        net, tables = small
        targets = {"mesh": (net, tables), "mesh-rebuilt": rebuilt_mesh()}
        search = functools.partial(saturation, cycles=600, resolution=0.02)
        with SweepRunner(1) as runner:
            serial = dict(zip(targets, runner.map(search, targets.values())))
        with SweepRunner(2) as runner:
            parallel = dict(zip(targets, runner.map(search, targets.values())))
        assert serial == parallel
        # both targets are the same network, so they must agree too
        assert serial["mesh"] == serial["mesh-rebuilt"]

    def test_map_preserves_submission_order(self):
        runner = SweepRunner(3)
        assert runner.map(abs, [-3, -1, -2]) == [3, 1, 2]

    def test_timing_stats_cover_every_task(self, small):
        net, tables = small
        runner = SweepRunner(2)
        curve_points(net, tables, RATES, cycles=300, run_batch=runner.execute_batch)
        curve_points(*rebuilt_mesh(), RATES, cycles=300, run_batch=runner.execute_batch)
        runner.close()
        # one task per batch group: each curve's rates share a network
        assert len(runner.stats.timings) == 2
        assert runner.stats.task_seconds > 0
        assert runner.stats.wall_seconds > 0
        summary = runner.stats.summary()
        assert summary["tasks"] == 2
        assert "speedup" in summary and summary["jobs"] == 2
        assert "runner:" in runner.stats.report()

    def test_batch_groups_survive_jobs(self, small):
        """Over a two-network grid, ``jobs=2`` runs one task per network
        group, keeps each group a vectorized batch, and returns the
        ``jobs=1`` results."""
        grid = [
            grid_spec(target, rate, name)
            for name, target in (("mesh", small), ("rebuilt", rebuilt_mesh()))
            for rate in RATES
        ]
        with SweepRunner(1) as serial:
            expected = serial.execute_batch(grid)
        with SweepRunner(2) as runner:
            got = runner.execute_batch(grid)
        assert len(runner.stats.timings) == 2
        assert [r.engine for r in got] == ["vectorized"] * len(grid)
        assert outcomes(got) == outcomes(expected)

    def test_scalar_curve_spreads_per_rate(self, small):
        """A curve the engine decision keeps off the vectorized core runs
        one task per rate, in the workers, with the ``jobs=1`` points."""
        net, tables = small
        serial = fanned_curve(net, tables, RATES, jobs=1, cycles=300, engine="compiled")
        with SweepRunner(2) as runner:
            parallel = curve_points(
                net, tables, RATES, cycles=300, engine="compiled",
                run_batch=runner.execute_batch,
            )
        assert parallel == serial
        assert len(runner.stats.timings) == len(RATES)
        assert all(t.pid != os.getpid() for t in runner.stats.timings)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(0)


class TestExperimentDeterminism:
    def test_future_simulation_grid(self):
        from repro.experiments import future_simulation

        rates = (0.005, 0.01)
        serial = future_simulation.run(rates=rates, cycles=300, jobs=1)
        with SweepRunner(2) as runner:
            parallel = future_simulation.run(rates=rates, cycles=300, runner=runner)
        assert serial == parallel
        # one task per contender's rate group, plus the database points
        assert len(runner.stats.timings) == 2 * len(future_simulation.CONTENDERS)

    def test_fault_rows(self):
        from repro.experiments import fault_study

        serial = fault_study.run(failure_counts=(1, 2), trials=3, jobs=1)
        parallel = fault_study.run(failure_counts=(1, 2), trials=3, jobs=2)
        assert serial["rows"] == parallel["rows"]

    def test_table2_sides(self):
        from repro.experiments import table2_comparison

        assert table2_comparison.run(jobs=1) == table2_comparison.run(jobs=2)
