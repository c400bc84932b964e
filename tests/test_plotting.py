"""Tests for the ASCII plotting helpers."""


from repro.experiments.plotting import ascii_scatter


class TestAsciiScatter:
    def test_empty(self):
        assert ascii_scatter({}) == "(no data)"
        assert ascii_scatter({"a": []}) == "(no data)"

    def test_contains_markers_and_legend(self):
        chart = ascii_scatter({"AutoMC": [(40.0, 92.6)], "RL": [(77.0, 87.2)]})
        assert "o" in chart and "x" in chart
        assert "o=AutoMC" in chart and "x=RL" in chart

    def test_axis_labels_present(self):
        chart = ascii_scatter({"a": [(0, 0), (1, 1)]}, x_label="PR (%)", y_label="Acc")
        assert "PR (%)" in chart
        assert "[Acc]" in chart

    def test_extremes_on_borders(self):
        chart = ascii_scatter({"a": [(0, 0), (10, 5)]}, width=20, height=6)
        rows = chart.split("\n")
        # Top data row contains the max-y marker, bottom data row the min-y
        # (rows[-3] is the bottom border, rows[-4] the last data row).
        assert "o" in rows[1]
        assert "o" in rows[-4]

    def test_single_point_no_crash(self):
        chart = ascii_scatter({"only": [(3.0, 4.0)]})
        assert "o" in chart

    def test_dimensions_respected(self):
        chart = ascii_scatter({"a": [(0, 0), (1, 1)]}, width=30, height=5)
        rows = chart.split("\n")
        data_rows = [r for r in rows if r.strip().startswith("|")]
        assert len(data_rows) == 5
        assert all(len(r.strip()) == 32 for r in data_rows)  # |...30...|
