"""Integration tests for the experiment drivers (small-scale runs)."""

from __future__ import annotations

import pytest

from repro.bench import experiments


SMALL = dict(num_queries=3, seed=1)


class TestTableAndFigureDrivers:
    def test_table1(self):
        report = experiments.table1_datasets(keys=["D1", "D2"])
        assert len(report.rows) == 2
        assert report.rows[0]["paper_name"] == "email-Eu-core"
        assert report.rows[0]["synth_E"] > 0
        assert report.render()

    def test_exp1_response_time(self):
        report = experiments.exp1_response_time(
            keys=["D1"], algorithms=["VUG", "EPtgTSG"], time_budget_seconds=30, **SMALL
        )
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["dataset"] == "D1"
        assert row["VUG"] >= 0.0
        assert "VUG" in report.series and "EPtgTSG" in report.series

    def test_exp2_vary_theta(self):
        report = experiments.exp2_vary_theta(
            "D1", thetas=[4, 6], algorithms=["VUG"], time_budget_seconds=30, **SMALL
        )
        assert [row["theta"] for row in report.rows] == [4, 6]
        assert set(report.series) == {"VUG"}

    def test_exp3_space(self):
        report = experiments.exp3_space(keys=["D1"], algorithms=["VUG", "EPdtTSG"], **SMALL)
        algorithms = {row["algorithm"] for row in report.rows}
        assert algorithms == {"VUG", "EPdtTSG"}
        for row in report.rows:
            assert row["max_space"] >= row["min_space"] >= 0

    def test_exp4_phases(self):
        report = experiments.exp4_phases(keys=["D1"], **SMALL)
        row = report.rows[0]
        assert row["total"] >= row["QuickUBG"]
        assert set(report.series) == {"QuickUBG", "TightUBG", "EEV"}

    def test_exp5_upper_bound_table(self):
        report = experiments.exp5_upper_bound(keys=["D1"], **SMALL)
        row = report.rows[0]
        assert row["TightUBG"] >= row["QuickUBG"]
        assert row["dtTSG"] <= row["esTSG"] + 1e-9

    def test_exp5_quick_vs_tgtsg(self):
        report = experiments.exp5_quick_vs_tgtsg(keys=["D1"], **SMALL)
        row = report.rows[0]
        assert row["tgTSG"] >= 0 and row["QuickUBG"] >= 0
        assert "speedup" in row

    def test_exp5_vary_theta(self):
        report = experiments.exp5_vary_theta("D1", thetas=[4, 6], **SMALL)
        assert [row["theta"] for row in report.rows] == [4, 6]
        for row in report.rows:
            if row["QuickUBG_ratio"] is not None and row["TightUBG_ratio"] is not None:
                assert row["TightUBG_ratio"] >= row["QuickUBG_ratio"] - 1e-9

    def test_exp6_eev_vs_enum(self):
        report = experiments.exp6_eev_vs_enum("D1", thetas=[4, 6], **SMALL)
        assert len(report.rows) == 2
        # Any correctness mismatch is reported as a note; there must be none.
        assert not any("MISMATCH" in note for note in report.notes)

    def test_exp7_edges_vs_paths(self):
        report = experiments.exp7_edges_vs_paths("D1", thetas=[4, 6], **SMALL)
        for row in report.rows:
            assert row["tspg_paths"] >= 0
            assert row["tspg_edges"] >= 0

    def test_exp8_case_study_bare(self):
        report = experiments.exp8_case_study(use_full_network=False)
        row = report.rows[0]
        assert row["tspg_stops"] == 8
        assert row["tspg_trips"] >= 15
        assert len(report.notes) == row["tspg_trips"]

    def test_exp8_case_study_full_network(self):
        report = experiments.exp8_case_study(use_full_network=True)
        row = report.rows[0]
        assert row["network_edges"] > row["tspg_trips"]
        assert row["tspg_stops"] >= 8

    def test_registry_contains_all_drivers(self):
        assert set(experiments.EXPERIMENTS) == {
            "table1", "exp1", "exp2", "exp3", "exp4",
            "exp5-table2", "exp5-fig9", "exp5-fig10",
            "exp6", "exp7", "exp8", "exp9", "exp13",
        }

    def test_exp13_serving_pool(self, tmp_path):
        report = experiments.exp13_serving_pool(
            "D1", num_queries=4, workers=2, num_batches=2,
            snapshot_path=str(tmp_path / "g.tspgsnap"),
        )
        by_mode = {row["mode"]: row for row in report.rows}
        assert {
            "serial", "per-batch-boot-1", "per-batch-boot-2",
            "pool-1", "pool-2", "deadline-cutoff",
        } == set(by_mode)
        assert by_mode["serial"]["executor"] == "serial"
        # Both pool regimes really ran on processes and stayed
        # bit-identical to the serial no-deadline baseline.
        for mode in ("per-batch-boot-2", "pool-2"):
            assert by_mode[mode]["executor"] == "processes"
            assert by_mode[mode]["identical"] is True
        # The cut-off row documents its budget and bounded overshoot.
        assert by_mode["deadline-cutoff"]["budget_s"] > 0
        assert by_mode["deadline-cutoff"]["overshoot_s"] is not None
        assert any("the per-batch-boot batch" in note for note in report.notes)
        assert any("the serial batch" in note for note in report.notes)
