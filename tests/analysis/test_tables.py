"""Tests for table/series rendering."""

from repro.analysis.tables import render_comparison, render_series, render_table


class TestRenderTable:
    def test_alignment_and_content(self):
        rows = [
            {"name": "rmb", "links": 512},
            {"name": "hypercube", "links": 384},
        ]
        text = render_table(rows, title="links")
        lines = text.splitlines()
        assert lines[0] == "links"
        assert "name" in lines[1] and "links" in lines[1]
        assert "rmb" in lines[3]
        assert "384" in lines[4]

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_column_selection_and_missing_values(self):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        text = render_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_float_formatting(self):
        text = render_table([{"x": 3.14159, "y": 2.0}])
        assert "3.14" in text
        assert " 2" in text  # integral floats print as integers


class TestRenderSeries:
    def test_bars_scale_to_peak(self):
        text = render_series("t", ["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[-1].count("#") == 10
        assert lines[-2].count("#") == 5

    def test_zero_series_safe(self):
        text = render_series("t", ["a"], [0.0])
        assert "0.00" in text


class TestRenderComparison:
    def test_normalised_column_added(self):
        rows = [
            {"network": "rmb", "makespan": 100.0},
            {"network": "mesh", "makespan": 50.0},
        ]
        text = render_comparison("race", rows, baseline_key="rmb",
                                 value_key="makespan")
        assert "makespan_vs_rmb" in text
        assert "0.50" in text

    def test_missing_baseline_omits_column(self):
        rows = [{"network": "mesh", "makespan": 50.0}]
        text = render_comparison("race", rows, baseline_key="rmb",
                                 value_key="makespan")
        assert "makespan_vs_rmb" not in text

