"""Golden regression for the reworked fault study (availability + recovery).

``fault_recovery.json`` pins one small deterministic configuration of
``fault_study.run`` -- the dual-fabric availability row *and* the full
dynamic-recovery episode (timeout/retry, online re-routing with
certified table swaps, dual-fabric failover) for both Table 2
topologies.  Any drift in the recovery pipeline -- detection timing,
swap scheduling, retry accounting, the seed-derivation scheme, or the
recomputed tables themselves -- shows up as a diff here.

Run through ``SweepRunner`` with ``jobs=2`` like the other golden
fixtures, so it also re-proves serial/parallel bit-identity against a
serially-generated baseline.
"""

from __future__ import annotations

import pytest

from tests.golden.test_golden_regression import assert_matches, load


class TestFaultRecoveryGolden:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import fault_study

        return fault_study.run(failure_counts=(2,), trials=3, jobs=2)

    def test_availability_rows_match(self, result):
        assert_matches(result["rows"], load("fault_recovery.json")["rows"], "rows")

    def test_recovery_episode_matches(self, result):
        expected = load("fault_recovery.json")["recovery"]
        assert_matches(result["recovery"], expected, "recovery")

    def test_fixture_invariants(self):
        # independent of the live run: the checked-in fixture itself must
        # describe a fully-successful recovery on both topologies
        for point in load("fault_recovery.json")["recovery"]:
            assert point["recovered_acyclic"] is True
            assert point["reroutes"] == 2  # swap on failure, swap back on repair
            assert point["delivery_rate"] == 1.0
            assert point["post_recovery_rate"] == 1.0
            assert point["deadlocked"] is False
