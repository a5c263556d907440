"""Tests for figure-shaped tables.

A figure is an ``ExperimentResult``: the x axis is the first column,
one column per curve, caption and parameter line in the title.
"""

from repro.bench import ExperimentResult
from tests.bench.cells import column, row


def make_figure():
    result = ExperimentResult("Figure X: Test\n  n=100", ["p_d", "a", "b"])
    result.add_row(p_d="0.1", a=0.5, b=0.4)
    result.add_row(p_d="0.2", a=0.6, b=0.3)
    return result


class TestSeries:
    """One curve: the axis column paired row by row with a curve column."""

    def test_coordinates(self):
        result = make_figure()
        assert column(result, "p_d") == ["0.1", "0.2"]
        assert column(result, "a") == [0.5, 0.6]


class TestFigureResult:
    """The whole figure: curves by label, rendered with caption,
    parameters and notes."""

    def test_get_series(self):
        result = make_figure()
        assert row(result, "p_d", "0.2")["a"] == 0.6
        assert column(result, "b") == [0.4, 0.3]

    def test_render_contains_rows_and_header(self):
        assert make_figure().render().splitlines() == [
            "Figure X: Test",
            "  n=100",
            "p_d |      a |      b",
            "----+--------+-------",
            "0.1 | 0.5000 | 0.4000",
            "0.2 | 0.6000 | 0.3000",
        ]

    def test_render_notes(self):
        result = make_figure()
        result.notes.append("shape holds")
        assert result.render().splitlines()[-1] == "note: shape holds"
