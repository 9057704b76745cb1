"""Result containers: tables and series with text/JSON emitters.

Every benchmark regenerates one paper table or figure; these containers give
them a uniform way to print the rows/series the paper reports and to persist
raw data for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Table", "Series", "Figure"]


@dataclass
class Table:
    """A titled table: ordered columns, list of row dicts."""

    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append one row; values are looked up by column name at render."""
        self.rows.append(values)

    def to_text(self) -> str:
        """Fixed-width text rendering."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        widths = {c: len(c) for c in self.columns}
        rendered = []
        for row in self.rows:
            cells = {c: fmt(row.get(c, "")) for c in self.columns}
            for c in self.columns:
                widths[c] = max(widths[c], len(cells[c]))
            rendered.append(cells)
        sep = "  "
        header = sep.join(c.ljust(widths[c]) for c in self.columns)
        rule = sep.join("-" * widths[c] for c in self.columns)
        lines = [self.title, header, rule]
        for cells in rendered:
            lines.append(sep.join(cells[c].ljust(widths[c]) for c in self.columns))
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON rendering (title, columns, rows)."""
        return json.dumps(
            {"title": self.title, "columns": self.columns, "rows": self.rows},
            default=str,
            indent=2,
        )


@dataclass
class Series:
    """One labelled data series (a single line on a figure)."""

    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.xs.append(float(x))
        self.ys.append(float(y))


@dataclass
class Figure:
    """A titled collection of series (a paper figure's raw data)."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def new_series(self, label: str) -> Series:
        """Create, register, and return a fresh series."""
        s = Series(label)
        self.series.append(s)
        return s

    def to_text(self) -> str:
        """Text dump of every series' points."""
        lines = [f"{self.title}  [{self.x_label} -> {self.y_label}]"]
        for s in self.series:
            lines.append(f"  {s.label}:")
            for x, y in zip(s.xs, s.ys):
                lines.append(f"    {x:>12.6g}  {y:.6g}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON rendering of all series."""
        return json.dumps(
            {
                "title": self.title,
                "x_label": self.x_label,
                "y_label": self.y_label,
                "series": [
                    {"label": s.label, "xs": s.xs, "ys": s.ys} for s in self.series
                ],
            },
            indent=2,
        )
