"""Tests for the figure reducers and report rendering."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentGrid,
    ExperimentScale,
    fig2_semantic_classes,
    fig3_node_interests,
    fig7_load_breakdown,
    fig10_realtime_load,
    format_bar_chart,
    format_grid_table,
    grid_figure,
)
from repro.experiments.figures import GRID_FIGURES
from repro.experiments.report import format_breakdown
from repro.workload.interests import N_CLASSES

TINY = ExperimentScale(
    n_peers=120,
    n_queries=120,
    seed=0,
    use_physical_network=False,
    algorithms=("flooding", "random_walk", "asap_rw"),
    topologies=("random", "crawled"),
)


@pytest.fixture(scope="module")
def grid():
    return ExperimentGrid(TINY)


def test_the_papers_size_keeps_the_scales_network_choice():
    flat = ExperimentScale(
        n_peers=10_000, n_queries=30_000, use_physical_network=False
    )
    assert flat.config("flooding", "crawled").use_physical_network is False


class TestReportFormatting:
    def test_grid_table_alignment(self):
        table = format_grid_table(
            "T", {"a": {"x": 1.0, "y": 2.0}}, ["a"], ["x", "y"], unit="u"
        )
        assert "T  [u]" in table
        assert "1.00" in table and "2.00" in table

    def test_grid_table_missing_cell(self):
        table = format_grid_table("T", {"a": {}}, ["a"], ["x"])
        assert "--" in table

    def test_bar_chart(self):
        chart = format_bar_chart("C", {"one": 10.0, "two": 5.0})
        assert chart.count("#") > 0
        assert "one" in chart and "two" in chart

    def test_bar_chart_empty(self):
        assert "(no data)" in format_bar_chart("C", {})

    def test_breakdown(self):
        text = format_breakdown("B", {"patch_ad": 0.91, "full_ad": 0.09})
        assert "91.0%" in text and "9.0%" in text


class TestWorkloadFigures:
    def test_fig2_counts(self):
        fig = fig2_semantic_classes(ExperimentScale(n_peers=200))
        assert len(fig.counts) == N_CLASSES
        assert fig.counts.sum() > 0
        # Skewed: the most popular class dominates the least popular.
        assert fig.counts.max() > 4 * max(fig.counts.min(), 1)

    def test_fig3_counts_cover_all_nodes(self):
        fig = fig3_node_interests(ExperimentScale(n_peers=200))
        assert fig.counts.sum() >= 200  # every node has >= 1 interest

    def test_fig3_geq_fig2(self):
        """Interests include sharing classes plus free-riders' assignments."""
        scale = ExperimentScale(n_peers=200)
        f2 = fig2_semantic_classes(scale)
        f3 = fig3_node_interests(scale)
        assert np.all(f3.counts >= f2.counts)

    def test_describes_the_content_the_cells_replay(self, monkeypatch):
        """Figures 2-3 read the shared workload of the scale's own cells:
        ``paper_config`` shares 25 documents per peer, a scaled config 10
        (an earlier version hard-coded 10 at every scale)."""
        import repro.experiments.figures as figures_mod

        seen = []

        def capture(edonkey, trace, seed):
            seen.append((edonkey, trace, seed))
            raise LookupError("captured")  # skip the 10,000-peer synthesis

        monkeypatch.setattr(figures_mod, "get_workload", capture)
        for scale in (ExperimentScale.paper(), ExperimentScale(n_peers=200)):
            with pytest.raises(LookupError, match="captured"):
                fig3_node_interests(scale)
            for cell in scale.cells():
                assert seen[-1] == (cell.edonkey, cell.trace, cell.seed)
        assert [edonkey.avg_docs_per_peer for edonkey, _, _ in seen] == [25.0, 10.0]

    def test_format(self):
        fig = fig2_semantic_classes(ExperimentScale(n_peers=150))
        out = fig.format_table()
        assert "Figure 2" in out
        assert "movie" in out
        assert out.splitlines()[-1].startswith("  workload: mean copies ")


class TestGridFigures:
    def test_fig4_values_in_range(self, grid):
        fig = grid_figure("Figure 4", grid)
        for row in fig.values.values():
            for v in row.values():
                assert 0.0 <= v <= 1.0

    def test_fig4_names_resolved(self, grid):
        fig = grid_figure("Figure 4", grid)
        assert "ASAP(RW)" in fig.values
        assert "flooding" in fig.values

    def test_fig5_positive_times(self, grid):
        fig = grid_figure("Figure 5", grid)
        for row in fig.values.values():
            for v in row.values():
                assert v > 0

    def test_fig5_asap_beats_flooding(self, grid):
        fig = grid_figure("Figure 5", grid)
        for topo in TINY.topologies:
            assert fig.values["ASAP(RW)"][topo] < fig.values["flooding"][topo]

    def test_fig6_asap_cost_orders_below(self, grid):
        fig = grid_figure("Figure 6", grid)
        for topo in TINY.topologies:
            assert fig.values["ASAP(RW)"][topo] < fig.values["flooding"][topo] / 20

    def test_fig8_load_positive(self, grid):
        fig = grid_figure("Figure 8", grid)
        for row in fig.values.values():
            for v in row.values():
                assert v > 0

    def test_fig9_variation_nonnegative(self, grid):
        fig = grid_figure("Figure 9", grid)
        for row in fig.values.values():
            for v in row.values():
                assert v >= 0

    def test_tables_render(self, grid):
        for figure in GRID_FIGURES:
            out = grid_figure(figure, grid).format_table()
            assert out.startswith(figure + ": ")
            assert "crawled" in out

    def test_grid_memoises(self, grid):
        a = grid.result("flooding", "random")
        b = grid.result("flooding", "random")
        assert a is b


class TestBreakdownFigure:
    def test_fig7(self, grid):
        fig = fig7_load_breakdown(grid)
        assert fig.fractions
        assert sum(fig.fractions.values()) == pytest.approx(1.0, abs=1e-6)
        # The paper's qualitative claim: patch + refresh ads dominate the
        # warmed-up ASAP(RW) load; full ads are a minor share.
        f = fig.fractions
        assert f.get("patch_ad", 0.0) + f.get("refresh_ad", 0.0) > f.get("full_ad", 0.0)
        # Largest share first, whatever order the run's category set had.
        assert list(f.values()) == sorted(f.values(), reverse=True)
        assert "Figure 7" in fig.format_table()


class TestRealtimeFigure:
    def test_fig10(self, grid):
        fig = fig10_realtime_load(
            grid, window_s=10, algorithms=("flooding", "asap_rw")
        )
        assert set(fig.series) == {"flooding", "ASAP(RW)"}
        for series in fig.series.values():
            assert len(series) <= 10
            assert np.all(series >= 0)
        table = fig.format_table()
        assert "Figure 10" in table and "per-second series" in table

    def test_fig10_flooding_louder_than_asap(self, grid):
        fig = fig10_realtime_load(
            grid, window_s=20, algorithms=("flooding", "asap_rw")
        )
        assert fig.series["flooding"].mean() > fig.series["ASAP(RW)"].mean()
