"""Integration tests: every experiment reproduces its paper numbers.

These are the repository's ground truth -- each assertion corresponds to a
number printed in the paper (or to a documented, explained deviation).
"""

import pytest

from repro.experiments import (
    ablations,
    fig1_deadlock,
    fig2_hypercube,
    fig3_assemblies,
    sec24_deadlock,
    sec31_mesh,
    sec32_hypercube,
    sec33_fattree,
    table1_fractahedron,
    table2_comparison,
)


class TestFig1:
    def test_results(self):
        r = fig1_deadlock.run()
        assert r["clockwise_cdg_cycle"] is not None
        assert r["clockwise_deadlocked"]
        assert r["clockwise_delivered"] == 0
        assert r["dor_cdg_cycle"] is None
        assert not r["dor_deadlocked"]
        assert r["dor_delivered"] == 4

    def test_report_text(self):
        assert "Figure 1" in fig1_deadlock.report()


class TestFig2:
    def test_results(self):
        r = fig2_hypercube.run()
        assert r["free_cdg_cyclic"]
        assert not r["disables_cdg_cyclic"]
        # six double-ended arrows, as drawn in the figure
        assert r["num_prohibited_turns"] == 12
        # upper links carry only top-node traffic
        assert min(r["upper_link_top_fraction"].values()) == 1.0
        # disables make utilization uneven; e-cube is perfectly even on Q3
        assert r["disables_imbalance"] > r["ecube_imbalance"] == 1.0
        # e-cube is non-reflexive for many pairs
        assert r["ecube_reflexive"] < 1.0
        assert not r["ecube_cdg_cyclic"]
        # the single-ended-arrow alternative: more even, less reflexive
        assert not r["uni_cdg_cyclic"]
        assert r["uni_imbalance"] < r["disables_imbalance"]
        assert r["uni_reflexive"] < r["disables_reflexive"]


class TestFig3:
    def test_matches_paper_table(self):
        rows = fig3_assemblies.run()
        for m, (ports, contention) in fig3_assemblies.PAPER_TABLE.items():
            assert rows[m]["end_ports"] == ports
            assert rows[m]["contention"] == contention


class TestTable1:
    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("fat", [False, True])
    def test_measured_equals_formula(self, levels, fat):
        row = table1_fractahedron.measure_level(levels, fat, sample_pairs=800)
        assert row["nodes"] == row["nodes_formula"]
        assert row["routers"] == row["routers_formula"]
        assert row["worst_pair_hops"] == row["delay_formula"]
        assert row["sampled_max_hops"] == row["delay_formula"]
        assert row["bisection"] == row["bisection_formula"]

    @pytest.mark.slow
    def test_level_three_1024_cpus(self):
        for fat, delay in ((False, 12), (True, 10)):
            row = table1_fractahedron.measure_level(3, fat, sample_pairs=400)
            assert row["nodes"] == 1024
            assert row["sampled_max_hops"] == delay
            assert row["bisection"] == row["bisection_formula"]


class TestSec31:
    def test_results(self):
        r = sec31_mesh.run()
        assert [(s["side"], s["max_hops"]) for s in r["scaling"]] == [
            (6, 11),
            (8, 15),
            (23, 45),
        ]
        assert r["worst_contention"] == 10
        assert r["pattern_contention"] == 10
        assert r["deadlock_free"]


class TestSec32:
    def test_results(self):
        r = sec32_hypercube.run()
        assert not r["six_d_feasible"]
        assert r["five_d_nodes"] == 32
        assert r["disabled_imbalance"] > 1.0


class TestSec33:
    def test_results(self):
        r = sec33_fattree.run()
        assert r["ft42_routers"] == 28
        assert abs(r["ft42_avg_hops"] - 4.4) < 0.05
        assert r["ft42_worst_contention"] == 12
        assert r["ft42_pattern_contention"] == 12
        assert r["ft42_deadlock_free"]
        assert r["ft33_routers"] == 100
        assert abs(r["ft33_avg_hops"] - 5.9) < 0.1


class TestTable2:
    def test_results(self):
        r = table2_comparison.run()
        ft, fr = r["fat_tree"], r["fractahedron"]
        assert ft["routers"] == 28 and fr["routers"] == 48
        assert ft["worst_contention"] == 12
        assert fr["diagonal_pattern_contention"] == 4
        assert fr["worst_contention"] == 8  # our documented finding
        assert abs(ft["avg_hops"] - 4.4) < 0.05
        assert abs(fr["avg_hops"] - 4.3) < 0.01
        assert ft["deadlock_free"] and fr["deadlock_free"]


class TestSec24:
    def test_results(self):
        r = sec24_deadlock.run()
        assert all(r["certified"].values())
        assert r["funneled_delivers"]
        assert r["funneled_cdg_cyclic"]
        assert r["funneled_deadlocked"]
        assert r["corruption_blocked"]


class TestAblations:
    def test_buffer_depth_never_rescues_cycles(self):
        rows = ablations.buffer_depth_sweep(depths=(1, 4, 8))
        assert all(r["deadlocked"] for r in rows)

    def test_thin_vs_fat_tradeoff(self):
        rows = ablations.thin_vs_fat(levels=(2, 3))
        for row in rows:
            assert row["fat_routers"] > row["thin_routers"]
            assert row["fat_delay"] < row["thin_delay"]
            assert row["fat_bisection"] > row["thin_bisection"]

    def test_assembly_sweep_generalizes(self):
        rows = ablations.assembly_sweep(radices=(4, 8))
        # for every radix, contention falls as assembly size grows
        for radix in (4, 8):
            conts = [r["contention"] for r in rows if r["radix"] == radix]
            assert conts == sorted(conts, reverse=True)


class TestAdaptiveOrder:
    def test_adaptive_breaks_in_order_delivery(self):
        from repro.experiments import adaptive_order

        r = adaptive_order.run(cycles=2500)
        assert r["fixed"]["order_violations"] == 0
        assert r["adaptive"]["order_violations"] > 0


class TestFaultStudy:
    def test_dual_beats_single(self):
        from repro.experiments import fault_study

        r = fault_study.run(failure_counts=(2,), trials=5)
        row = r["rows"][0]
        assert row["dual_avg"] > row["single_avg"]
        assert 0.0 < row["single_avg"] < 1.0


class TestScaleStudy:
    def test_pipeline_rows_and_validation(self):
        from repro.experiments import scale_study

        r = scale_study.run(max_levels=2, sim_cycles=120)
        assert [row["levels"] for row in r["rows"]] == [1, 2]
        for row in r["rows"]:
            assert row["packets_delivered"] > 0
            assert row["sim_parity"]
        v = r["validation"]
        assert v["nodes_ok"] and v["delay_ok"] and v["bisection_ok"]
        assert v["nodes"] == 128 and v["bisection"] == 16

    def test_report_text(self):
        from repro.experiments import scale_study

        text = scale_study.report(max_levels=1)
        assert "Scale study" in text
        assert "top depth N=1" in text


class TestModernTopologies:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import modern_topologies

        return modern_topologies.run(cycles=150, recovery_cycles=240)

    def test_headline_booleans(self, result):
        assert result["all_agree"]
        assert result["vc_free_fullmesh_certified"]
        assert result["naive_fullmesh_rejected"]

    def test_certification_matrix_shape(self, result):
        rows = result["certification"]
        # the two physically-cyclic schemes are rejected by both certifiers
        rejected = {
            (r["name"], r["routing"])
            for r in rows
            if r["virtual_channels"] == 0 and not r["order_free"]
        }
        assert rejected == {
            ("dragonfly_g5", "minimal_lgl"),
            ("fullmesh_6", "naive_spread"),
        }
        # every VC-laddered scheme certifies
        assert all(r["cdg_free"] for r in rows if r["virtual_channels"] == 2)

    def test_end_to_end_legs(self, result):
        assert all(v["ok"] for v in result["validation"])
        assert all(p["parity"] for p in result["parity"])
        assert all(s["saturation_rate"] > 0 for s in result["saturation"])
        for row in result["recovery"]:
            assert row["failures"] == 2
            assert row["delivery_rate"] == 1.0
            assert row["post_recovery_rate"] == 1.0

    def test_registered_with_headline_checks(self, result):
        from repro.experiments.registry import experiment_names
        from repro.experiments.summary import HEADLINE_CHECKS

        assert "modern" in experiment_names()
        assert all(ok for _, ok in HEADLINE_CHECKS["modern"](result))

    def test_report_text(self):
        from repro.experiments import modern_topologies

        text = modern_topologies.report(cycles=120)
        assert "channel-order certifier" in text
        assert "naive_spread" in text
        assert "NO" in text  # the rejections are visible in the table
