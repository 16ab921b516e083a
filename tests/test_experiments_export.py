"""Tests for the CSV twin of the report: rows out, tables back in."""

import csv
import io

import numpy as np
import pytest

from repro.experiments.export import figure_rows, figures_to_csv, read_tables
from repro.experiments.figures import (
    BreakdownFigure,
    GridFigure,
    RealtimeLoadFigure,
    SweepFigure,
    WorkloadFigure,
)


@pytest.fixture
def workload_fig():
    return WorkloadFigure(
        figure="Figure 2",
        title="classes",
        labels=("movie", "audio"),
        counts=np.array([10, 4]),
        series="workload",
        measured={"mean copies": 1.25},
    )


@pytest.fixture
def grid_fig():
    return GridFigure(
        figure="Figure 4",
        title="success",
        unit="fraction",
        values={"flooding": {"random": 0.9, "crawled": 0.8}},
    )


@pytest.fixture
def breakdown_fig():
    return BreakdownFigure(
        figure="Figure 7", title="breakdown", fractions={"patch_ad": 0.9, "full_ad": 0.1}
    )


@pytest.fixture
def realtime_fig():
    return RealtimeLoadFigure(
        figure="Figure 10",
        title="load",
        window_start=60,
        series={"flooding": np.array([1.0, 2.0]), "ASAP(RW)": np.array([0.5])},
    )


@pytest.fixture
def sweep_fig():
    return SweepFigure(
        figure="Ablation cache",
        title="Ablation: cache",
        columns=(("capacity", "capacity", 9, ""), ("success", "success", 9, ".3f")),
        rows=[{"capacity": 8, "success": 0.25}, {"capacity": "inf", "success": 0.75}],
    )


class TestFigureRows:
    def test_workload_rows(self, workload_fig):
        rows = figure_rows(workload_fig)
        assert ("Figure 2", "count", "movie", 10.0) in rows
        assert rows[-1] == ("Figure 2", "workload", "mean copies", 1.25)
        assert len(rows) == 3

    def test_grid_rows(self, grid_fig):
        rows = figure_rows(grid_fig)
        assert ("Figure 4", "flooding", "random", 0.9) in rows
        assert ("Figure 4", "flooding", "crawled", 0.8) in rows

    def test_breakdown_rows(self, breakdown_fig):
        rows = dict((r[2], r[3]) for r in figure_rows(breakdown_fig))
        assert rows == {"patch_ad": 0.9, "full_ad": 0.1}

    def test_realtime_rows_carry_absolute_seconds(self, realtime_fig):
        rows = figure_rows(realtime_fig)
        assert ("Figure 10", "flooding", "60", 1.0) in rows
        assert ("Figure 10", "flooding", "61", 2.0) in rows
        assert ("Figure 10", "ASAP(RW)", "60", 0.5) in rows

    def test_sweep_rows_are_labelled_by_the_first_column(self, sweep_fig):
        assert figure_rows(sweep_fig) == [
            ("Ablation cache", "success", "8", 0.25),
            ("Ablation cache", "success", "inf", 0.75),
        ]
        assert sweep_fig.format_table().splitlines()[1:] == [
            " capacity   success",
            "        8     0.250",
            "      inf     0.750",
        ]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            figure_rows("not a figure")  # type: ignore[arg-type]


class TestCsvRendering:
    def test_header_and_parseability(self, grid_fig):
        text = figures_to_csv([grid_fig])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["figure", "series", "x", "y"]
        assert len(rows) == 3

    def test_write_to_file(self, tmp_path, workload_fig, grid_fig, realtime_fig):
        """Several figures share one CSV; reading the file back gives every
        value bit for bit, in row order."""
        realtime_fig.series["flooding"][0] = 0.1 + 0.2  # not a short decimal
        path = tmp_path / "report.csv"
        path.write_text(figures_to_csv([workload_fig, grid_fig, realtime_fig]))
        content = path.read_text()
        assert content.startswith("figure,series,x,y\n") and "\r" not in content
        tables = read_tables(content)
        assert list(tables) == ["Figure 2", "Figure 4", "Figure 10"]
        assert tables["Figure 2"] == {
            "count": {"movie": 10.0, "audio": 4.0},
            "workload": {"mean copies": 1.25},
        }
        assert tables["Figure 4"]["flooding"] == {"random": 0.9, "crawled": 0.8}
        assert tables["Figure 10"]["flooding"] == {"60": 0.1 + 0.2, "61": 2.0}
