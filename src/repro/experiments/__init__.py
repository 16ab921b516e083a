"""The paper's evaluation (Section V) as one campaign.

Figures 4, 5, 6, 8 and 9 all derive from the same 6-algorithm x 3-topology
grid of trace replays, so :class:`~repro.experiments.figures.ExperimentGrid`
runs each cell once (through :func:`~repro.experiments.parallel.run_cells`)
and memoises the result by ``RunConfig``.  Figures 2 and 3 are workload
properties (no simulation), Figure 7 is the ASAP(RW) load breakdown and
Figure 10 the real-time load snapshot; six ablations sweep the design
knobs.  :data:`~repro.experiments.campaign.ENTRIES` is the one table of all
fifteen -- cells, reducer and the paper's claims per entry -- and
``python -m repro.experiments.runall`` walks it.
"""

from repro.experiments.campaign import ENTRIES, check_claims, run_campaign
from repro.experiments.figures import (
    ExperimentGrid,
    ExperimentScale,
    GridFigure,
    fig2_semantic_classes,
    fig3_node_interests,
    fig7_load_breakdown,
    fig10_realtime_load,
    grid_figure,
)
from repro.experiments.parallel import CellFailure, resolve_jobs, run_cells
from repro.experiments.report import format_bar_chart, format_grid_table

__all__ = [
    "CellFailure",
    "ENTRIES",
    "ExperimentGrid",
    "ExperimentScale",
    "GridFigure",
    "check_claims",
    "fig2_semantic_classes",
    "fig3_node_interests",
    "fig7_load_breakdown",
    "fig10_realtime_load",
    "format_bar_chart",
    "format_grid_table",
    "grid_figure",
    "resolve_jobs",
    "run_campaign",
    "run_cells",
]
