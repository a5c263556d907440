"""Result containers for the figure-regeneration harnesses.

A :class:`Series` is one curve of a paper figure (x/y pairs with a
label); a :class:`FigureResult` bundles the curves of one figure with
its identity and parameters and renders the same rows the paper plots,
as an aligned ASCII table suitable for EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["Series", "FigureResult", "render_table"]


def render_table(
    heading: Sequence[str],
    table: Sequence[Sequence[str]],
    notes: Sequence[str],
) -> str:
    """The ``heading`` lines, then ``table`` (first row = column names)
    right-aligned over a rule, then one ``note:`` line per note."""
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = list(heading)
    for row in table:
        lines.append(
            " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if row is table[0]:
            lines.append("-+-".join("-" * width for width in widths))
    lines.extend(f"note: {note}" for note in notes)
    return "\n".join(lines)


@dataclass(frozen=True)
class Series:
    """One curve: a label and its (x, y) points."""

    label: str
    points: Tuple[Tuple[float, float], ...]

    @classmethod
    def from_pairs(
        cls, label: str, pairs: Sequence[Tuple[float, float]]
    ) -> "Series":
        """Build from any sequence of (x, y) pairs."""
        return cls(label=label, points=tuple(pairs))

    @property
    def xs(self) -> Tuple[float, ...]:
        """The x coordinates."""
        return tuple(x for x, __ in self.points)

    @property
    def ys(self) -> Tuple[float, ...]:
        """The y coordinates."""
        return tuple(y for __, y in self.points)

    def y_at(self, x: float) -> float:
        """The y value at an exact x coordinate.

        Raises:
            ReproError: if the series has no point at ``x``.
        """
        for px, py in self.points:
            if px == x:
                return py
        raise ReproError(f"series {self.label!r} has no point at x={x}")


@dataclass
class FigureResult:
    """All series of one reproduced figure, with render support."""

    figure: str
    title: str
    x_label: str
    y_label: str
    parameters: Dict[str, object] = field(default_factory=dict)
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_series(self, series: Series) -> None:
        """Append one curve."""
        self.series.append(series)

    def get_series(self, label: str) -> Series:
        """The curve with the given label.

        Raises:
            ReproError: if no such curve exists.
        """
        for candidate in self.series:
            if candidate.label == label:
                return candidate
        raise ReproError(
            f"figure {self.figure} has no series labelled {label!r}"
        )

    def render(self, precision: int = 4) -> str:
        """An aligned ASCII table: one x column, one column per series."""
        if not self.series:
            raise ReproError(f"figure {self.figure} has no series to render")
        xs = self.series[0].xs
        for series in self.series[1:]:
            if series.xs != xs:
                raise ReproError(
                    f"series of figure {self.figure} have mismatched x grids"
                )
        table = [[self.x_label] + [series.label for series in self.series]]
        for index, x in enumerate(xs):
            table.append([f"{x:g}"] + [
                f"{series.points[index][1]:.{precision}f}"
                for series in self.series
            ])
        parameters = ", ".join(
            f"{key}={value}" for key, value in self.parameters.items()
        )
        return render_table(
            [f"{self.figure}: {self.title}", "  " + parameters],
            table,
            self.notes,
        )
