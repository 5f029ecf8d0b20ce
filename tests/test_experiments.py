"""Tests for the programmatic experiment runners."""


from repro.experiments import (
    figure1_panels,
    mnb_sweep,
    properties_sweep,
    star_embedding_sweep,
    te_sweep,
    theorem4_sweep,
    theorem5_sweep,
    tn_embedding_sweep,
)


class TestTheoremSweeps:
    def test_theorem4_default_all_match(self):
        rows = list(theorem4_sweep(l_range=range(2, 5), n_range=range(1, 4)))
        assert rows
        assert all(row.matches for row in rows)

    def test_theorem4_custom_range(self):
        rows = list(
            theorem4_sweep(l_range=[6], n_range=[2], families=["MS"])
        )
        assert len(rows) == 1
        assert rows[0].network == "MS(6,2)"
        assert rows[0].predicted == max(4, 7)

    def test_theorem5_degenerate_flagged(self):
        rows = list(theorem5_sweep(l_range=[2], n_range=[2]))
        assert all(row.measured == row.predicted + 1 for row in rows)
        rows = list(theorem5_sweep(l_range=[3], n_range=[2]))
        assert all(row.matches for row in rows)


class TestEmbeddingSweeps:
    def test_star_sweep_matches_theorems(self):
        by_host = {row.host: row for row in star_embedding_sweep()}
        assert by_host["MS(2,2)"].dilation == 3
        assert by_host["IS(5)"].dilation == 2
        assert by_host["MIS(2,2)"].dilation == 4
        assert all(row.load == 1 for row in by_host.values())

    def test_tn_sweep(self):
        rows = {row.host: row for row in tn_embedding_sweep()}
        assert rows["MS(2,2)"].dilation == 5
        assert rows["MS(3,2)"].dilation == 7
        assert rows["IS(5)"].dilation == 6
        assert all(row.expansion == 1.0 for row in rows.values())


class TestTaskSweeps:
    def test_mnb_ratios_bounded(self):
        rows = list(mnb_sweep(star_ks=(3, 4), sc_instances=()))
        assert all(1.0 <= row.ratio <= 3.0 for row in rows)

    def test_te_ratios_bounded(self):
        rows = list(te_sweep(star_ks=(3, 4), sc_instances=()))
        assert all(1.0 <= row.ratio <= 3.0 for row in rows)


class TestFigure1:
    def test_both_panels(self):
        panels = list(figure1_panels())
        assert [p.star_k for p in panels] == [13, 16]
        assert all(p.makespan == 6 for p in panels)
        assert round(panels[1].utilization, 2) == 0.93
        assert "j=13" in panels[0].grid

    def test_custom_panel(self):
        (panel,) = figure1_panels(panels=[("complete-RS", 4, 3, 13)])
        assert panel.network == "complete-RS(4,3)"
        assert panel.makespan == 6


class TestQuickReport:
    def test_all_checks_pass(self):
        from repro.experiments import run_quick_report

        results = run_quick_report()
        assert len(results) >= 15
        failing = [r.claim for r in results if not r.passed]
        assert not failing, failing

    def test_render(self):
        from repro.experiments import CheckResult, render_report

        text = render_report(
            [CheckResult("demo claim", "1", "1", True),
             CheckResult("bad claim", "2", "3", False)]
        )
        assert "PASS" in text and "FAIL" in text
        assert "1/2 checks passed" in text


class TestPropertiesSweep:
    def test_rows_have_profiles(self):
        rows = list(properties_sweep(exact=False))
        assert {row["name"] for row in rows} >= {"MS(2,2)", "IS(4)"}
        assert all("degree" in row for row in rows)

    def test_exact_mode_adds_diameter(self):
        rows = list(
            properties_sweep(instances=[("MS", 2, 2)], exact=True)
        )
        assert rows[0]["diameter"] == 8
