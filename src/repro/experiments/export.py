"""CSV twin of the report: every table as ``(figure, series, x, y)`` rows.

The text tables in :mod:`repro.experiments.report` are for terminals; this
module flattens every figure type into rows and writes standard CSV, so
gnuplot/pandas/spreadsheets can regenerate the paper's bar charts and time
series without depending on this package -- and reads the rows back into
``{figure: {series: {x: y}}}``, the shape the campaign's claims are checked
on (:func:`repro.experiments.campaign.check_claims`).  Floats are written
with ``repr``, so a value survives the round trip bit for bit.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Tuple, Union

from repro.experiments.figures import (
    BreakdownFigure,
    GridFigure,
    RealtimeLoadFigure,
    SweepFigure,
    WorkloadFigure,
)

__all__ = ["figure_rows", "figures_to_csv", "read_tables"]

Row = Tuple[str, str, str, float]

AnyFigure = Union[
    WorkloadFigure, GridFigure, BreakdownFigure, RealtimeLoadFigure, SweepFigure
]


def figure_rows(fig: AnyFigure) -> List[Row]:
    """Flatten any figure into (figure, series, x, y) rows."""
    if isinstance(fig, WorkloadFigure):
        return [
            (fig.figure, "count", label, float(count))
            for label, count in zip(fig.labels, fig.counts)
        ] + [(fig.figure, fig.series, x, float(y)) for x, y in fig.measured.items()]
    if isinstance(fig, GridFigure):
        return [
            (fig.figure, algorithm, topology, float(value))
            for algorithm, row in fig.values.items()
            for topology, value in row.items()
        ]
    if isinstance(fig, BreakdownFigure):
        return [
            (fig.figure, "fraction", category, float(frac))
            for category, frac in fig.fractions.items()
        ]
    if isinstance(fig, RealtimeLoadFigure):
        return [
            (fig.figure, name, str(fig.window_start + i), float(v))
            for name, series in fig.series.items()
            for i, v in enumerate(series)
        ]
    if isinstance(fig, SweepFigure):
        label, *measured = (key for key, _header, _width, _kind in fig.columns)
        return [
            (fig.figure, key, str(row[label]), float(row[key]))
            for key in measured
            for row in fig.rows
        ]
    raise TypeError(f"unknown figure type {type(fig).__name__}")


def figures_to_csv(figs: Iterable[AnyFigure]) -> str:
    """Render figures as one CSV text with a header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["figure", "series", "x", "y"])
    for fig in figs:
        writer.writerows(figure_rows(fig))
    return buf.getvalue()


def read_tables(csv_text: str) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{figure: {series: {x: y}}}`` from :func:`figures_to_csv` text, in row order."""
    tables: Dict[str, Dict[str, Dict[str, float]]] = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        series = tables.setdefault(row["figure"], {}).setdefault(row["series"], {})
        series[row["x"]] = float(row["y"])
    return tables
