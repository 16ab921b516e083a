"""How finished cells reduce to the paper's figures.

Every reducer returns a small result object carrying the raw data and a
``format_table()`` renderer, so tests can assert on numbers and the report
can print paper-style output.  Which cells a figure needs and which of the
paper's claims its table must satisfy is the campaign table's business
(:mod:`repro.experiments.campaign`).

Scaling: the paper runs 10,000 peers x 30,000 queries.  The default
:class:`ExperimentScale` is laptop-sized; pass ``ExperimentScale.paper()``
for the full configuration.  Budgets and trace shape scale together (see
:func:`repro.simulation.config.scaled_config`), preserving the qualitative
comparisons the reproduction validates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.experiments.parallel import CellFailure, run_cells
from repro.experiments.report import format_bar_chart, format_breakdown, format_grid_table
from repro.network.substrate import get_workload
from repro.sim.random import RandomStreams
from repro.simulation.config import ALGORITHMS, TOPOLOGIES, RunConfig, paper_config, scaled_config
from repro.simulation.results import RunResult
from repro.workload.interests import (
    N_CLASSES,
    SEMANTIC_CLASSES,
    class_node_counts,
    interest_node_counts,
    interest_similarity,
)

__all__ = [
    "ExperimentGrid",
    "ExperimentScale",
    "GridFigure",
    "WorkloadFigure",
    "BreakdownFigure",
    "RealtimeLoadFigure",
    "SweepFigure",
    "GRID_FIGURES",
    "FIG10_ALGORITHMS",
    "fig2_semantic_classes",
    "fig3_node_interests",
    "grid_figure",
    "fig7_load_breakdown",
    "fig10_realtime_load",
]


@dataclass(frozen=True)
class ExperimentScale:
    """How large to run the grid.  Defaults are laptop-sized."""

    n_peers: int = 400
    n_queries: int = 800
    seed: int = 0
    use_physical_network: bool = True
    algorithms: Tuple[str, ...] = ALGORITHMS
    topologies: Tuple[str, ...] = TOPOLOGIES
    # Attach a RunProfile to every grid cell's RunResult (repro.obs).
    profile: bool = False
    # Run the invariant auditor in every cell (repro.obs.audit): each
    # RunResult then carries an AuditReport and a run fingerprint.
    audit: bool = False
    # Collect streaming telemetry in every cell (repro.obs.telemetry):
    # each RunResult then carries its own summary document -- the
    # trace-free path to the Fig. 9 per-window load view and hotspots.
    telemetry: bool = False
    # Record protocol-state snapshots in every cell (repro.obs.probes):
    # each RunResult then carries its own summary document -- per-tick ad
    # coverage, staleness and cache-health series.
    probes: bool = False
    # Worker processes for grid population (1 = serial, 0 = all cores).
    jobs: int = 1

    @staticmethod
    def paper() -> "ExperimentScale":
        """The paper's full configuration: minutes per cell, a peak of
        938-943 MB for an ASAP cell (BENCH_SCALEUP.json, entry
        ``ads_exchange``)."""
        return ExperimentScale(n_peers=10_000, n_queries=30_000)

    def config(self, algorithm: str, topology: str) -> RunConfig:
        if self.n_peers == 10_000 and self.n_queries == 30_000:
            return replace(
                paper_config(algorithm, topology, seed=self.seed),
                use_physical_network=self.use_physical_network,
            )
        return scaled_config(
            algorithm,
            topology,
            n_peers=self.n_peers,
            n_queries=self.n_queries,
            seed=self.seed,
            use_physical_network=self.use_physical_network,
        )

    def cells(self) -> List[RunConfig]:
        """The full (algorithm x topology) product."""
        return [self.config(a, t) for a in self.algorithms for t in self.topologies]


class ExperimentGrid:
    """Memoised trace replays, keyed by :class:`RunConfig`.

    A cell -- a figure's (algorithm, topology) cell at the scale, or one
    fixed-size cell of an ablation sweep -- simulates once, and only ever
    through :func:`~repro.experiments.parallel.run_cells` (an in-process
    loop at ``scale.jobs == 1``), with the scale's observability flags.
    """

    def __init__(self, scale: ExperimentScale | None = None) -> None:
        self.scale = scale or ExperimentScale()
        self._results: Dict[RunConfig, RunResult] = {}

    def prefetch(
        self,
        configs: Optional[Iterable[RunConfig]] = None,
        progress=None,
    ) -> "ExperimentGrid":
        """Populate the missing ones of ``configs`` in one fan-out.

        ``configs`` defaults to the scale's full (algorithm x topology)
        product.  A failed cell raises with the worker's config and
        traceback; sibling cells are kept.
        """
        if configs is None:
            configs = self.scale.cells()
        missing = [c for c in dict.fromkeys(configs) if c not in self._results]
        if not missing:
            return self
        outcomes = run_cells(
            missing,
            jobs=self.scale.jobs,
            profile=self.scale.profile,
            audit=self.scale.audit,
            telemetry=self.scale.telemetry,
            probes=self.scale.probes,
            progress=progress,
        )
        failures = []
        for config, outcome in zip(missing, outcomes):
            if isinstance(outcome, CellFailure):
                failures.append(outcome)
            else:
                self._results[config] = outcome
        if failures:
            report = "\n\n".join(
                f"{f.describe()}\n{f.traceback}" for f in failures
            )
            raise RuntimeError(
                f"{len(failures)} grid cell(s) failed:\n{report}"
            )
        return self

    def cell(self, config: RunConfig) -> RunResult:
        """The finished cell for ``config``, simulated now if it is missing."""
        return self.prefetch([config])._results[config]

    def result(self, algorithm: str, topology: str) -> RunResult:
        return self.cell(self.scale.config(algorithm, topology))

    def results(self) -> Dict[RunConfig, RunResult]:
        """Every populated cell, in the order it was first asked for."""
        return dict(self._results)

    def metric(self, extract) -> Dict[str, Dict[str, float]]:
        """``{algorithm_name: {topology: extract(result)}}`` over the scale's grid."""
        self.prefetch()
        out: Dict[str, Dict[str, float]] = {}
        for algo in self.scale.algorithms:
            row = {t: self.result(algo, t) for t in self.scale.topologies}
            name = next(iter(row.values())).algorithm
            out[name] = {t: float(extract(result)) for t, result in row.items()}
        return out


# --------------------------------------------------------------- containers
@dataclass
class WorkloadFigure:
    """Figures 2 and 3: per-class node counts, plus one ``series`` of the
    workload statistics the figure's claims read beside them."""

    figure: str
    title: str
    labels: Tuple[str, ...]
    counts: np.ndarray
    series: str
    measured: Dict[str, float]

    def format_table(self) -> str:
        chart = format_bar_chart(
            f"{self.figure}: {self.title}",
            {label: float(c) for label, c in zip(self.labels, self.counts)},
            unit="nodes",
            precision=0,
        )
        measured = ", ".join(f"{x} {y:.4g}" for x, y in self.measured.items())
        return f"{chart}\n  {self.series}: {measured}"


@dataclass
class GridFigure:
    """Figures 4, 5, 6, 8, 9: one scalar per (algorithm, topology)."""

    figure: str
    title: str
    unit: str
    values: Dict[str, Dict[str, float]]
    precision: int = 2

    def format_table(self) -> str:
        rows = list(self.values.keys())
        cols = list(next(iter(self.values.values())).keys()) if self.values else []
        return format_grid_table(
            f"{self.figure}: {self.title}",
            self.values,
            row_order=rows,
            col_order=cols,
            unit=self.unit,
            precision=self.precision,
        )


@dataclass
class BreakdownFigure:
    """Figure 7: ASAP(RW) system-load breakdown by traffic category."""

    figure: str
    title: str
    fractions: Dict[str, float]

    def format_table(self) -> str:
        return format_breakdown(f"{self.figure}: {self.title}", self.fractions)


@dataclass
class RealtimeLoadFigure:
    """Figure 10: per-second load over a window, one series per algorithm."""

    figure: str
    title: str
    window_start: int
    series: Dict[str, np.ndarray]  # algorithm name -> bytes/node/s per second

    def format_table(self) -> str:
        lines = [f"{self.figure}: {self.title} (window of {self.window_length}s)"]
        stats = {
            name: float(np.mean(s)) for name, s in self.series.items()
        }
        lines.append(
            format_bar_chart("  mean over window", stats, unit="B/node/s", precision=1)
        )
        peaks = {name: float(np.max(s)) if len(s) else 0.0 for name, s in self.series.items()}
        lines.append(
            format_bar_chart("  peak over window", peaks, unit="B/node/s", precision=1)
        )
        lines += ["", "per-second series (B/node/s):"]
        for name, s in self.series.items():
            preview = " ".join(f"{x:.0f}" for x in s[:25])
            lines.append(f"  {name:<12} {preview} ...")
        return "\n".join(lines)

    @property
    def window_length(self) -> int:
        return max((len(s) for s in self.series.values()), default=0)


@dataclass
class SweepFigure:
    """An ablation: one row per swept value, one column per quantity.

    ``columns`` are ``(key, header, width, kind)``: a cell renders as
    ``f"{row[key]:>{width}{kind}}"`` under its right-aligned header.  The
    first column labels the row (the swept value).
    """

    figure: str
    title: str
    columns: Tuple[Tuple[str, str, int, str], ...]
    rows: List[Dict[str, object]]

    def format_table(self) -> str:
        lines = [
            self.title,
            " ".join(f"{header:>{width}}" for _, header, width, _ in self.columns),
        ]
        for row in self.rows:
            lines.append(
                " ".join(
                    f"{row[key]:>{width}{kind}}" for key, _, width, kind in self.columns
                )
            )
        return "\n".join(lines)


# ------------------------------------------------------------- fig 2 and 3
def _workload_for_scale(scale: ExperimentScale):
    """The content every cell of the scale replays: the shared workload
    itself.  The documents its trace registers have no holder, so no
    statistic below sees them."""
    config = scale.config(ALGORITHMS[0], TOPOLOGIES[0])
    content, _trace = get_workload(config.edonkey, config.trace, config.seed)
    return content


def fig2_semantic_classes(scale: ExperimentScale) -> WorkloadFigure:
    """Figure 2: nodes whose shared contents fall in each semantic class,
    and the eDonkey statistics of Section IV-B the evaluation rests on."""
    dist = _workload_for_scale(scale)
    index = dist.index
    node_classes = [dist.sharing_classes(n) for n in range(dist.n_peers)]
    return WorkloadFigure(
        figure="Figure 2",
        title="distribution of 14 semantic classes among peers",
        labels=SEMANTIC_CLASSES,
        counts=class_node_counts(node_classes, N_CLASSES),
        series="workload",
        measured={
            "mean copies": index.mean_replica_count(),
            "single-copy fraction": index.single_copy_fraction(),
            # |K_p| of the largest sharer (the fixed filter is sized for 1,000)
            "largest keyword set": float(
                max(len(index.node_keywords(n)) for n in range(dist.n_peers))
            ),
        },
    )


def fig3_node_interests(scale: ExperimentScale) -> WorkloadFigure:
    """Figure 3: number of nodes holding each of the 14 interests, and how
    much more alike the interests of peers sharing one class are."""
    dist = _workload_for_scale(scale)
    node_classes = [dist.sharing_classes(n) for n in range(dist.n_peers)]
    rng = RandomStreams(seed=scale.seed).get("interest-similarity")
    return WorkloadFigure(
        figure="Figure 3",
        title="distribution of 14 node interests among peers",
        labels=SEMANTIC_CLASSES,
        counts=interest_node_counts(dist.interests, N_CLASSES),
        series="clustering",
        measured=interest_similarity(dist.interests, node_classes, rng),
    )


# ------------------------------------------------------------- fig 4 to 9
#: Figures 4, 5, 6, 8 and 9 read the same grid and differ only in
#: ``(title, unit, what to extract from a cell, printed precision)``.
GRID_FIGURES = {
    "Figure 4": ("search success rate", "fraction", lambda r: r.success_rate(), 3),
    "Figure 5": (
        "average search response time", "ms", lambda r: r.avg_response_time_ms(), 1,
    ),
    "Figure 6": (
        "search cost (bandwidth per search)", "bytes", lambda r: r.avg_cost_bytes(), 0,
    ),
    "Figure 8": ("average system load", "B/node/s", lambda r: r.load_summary().mean, 1),
    "Figure 9": (
        "system load variation (standard deviation)",
        "B/node/s",
        lambda r: r.load_summary().std,
        1,
    ),
}


def grid_figure(figure: str, grid: ExperimentGrid) -> GridFigure:
    """One of :data:`GRID_FIGURES` over the scale's (algorithm x topology) grid."""
    title, unit, extract, precision = GRID_FIGURES[figure]
    return GridFigure(figure, title, unit, grid.metric(extract), precision)


def fig7_load_breakdown(grid: ExperimentGrid) -> BreakdownFigure:
    """Figure 7: breakdown of ASAP(RW) system load on the crawled overlay."""
    result = grid.result("asap_rw", "crawled")
    # Largest share first, as the table prints it: the run's own category
    # order is a set's, which differs from one process to the next.
    fractions = {
        cat.value: frac
        for cat, frac in sorted(
            result.ad_breakdown().items(), key=lambda kv: (-kv[1], kv[0].value)
        )
        if frac > 0
    }
    return BreakdownFigure(
        figure="Figure 7",
        title="breakdown of ASAP(RW) system load (bytes)",
        fractions=fractions,
    )


# ------------------------------------------------------------------ fig 10
#: The four lines of the paper's Figure 10.
FIG10_ALGORITHMS: Tuple[str, ...] = ("flooding", "random_walk", "gsa", "asap_rw")


def fig10_realtime_load(
    grid: ExperimentGrid,
    window_s: int = 100,
    topology: str = "crawled",
    algorithms: Tuple[str, ...] = FIG10_ALGORITHMS,
) -> RealtimeLoadFigure:
    """Figure 10: real-time per-node load over a 100-second snapshot."""
    series: Dict[str, np.ndarray] = {}
    start = None
    for algo in algorithms:
        result = grid.result(algo, topology)
        per_node = result.load_per_node()
        length = min(window_s, len(per_node))
        # Snapshot from the middle of the trace, where the system is warm.
        offset = max(0, (len(per_node) - length) // 2)
        if start is None:
            start = result.t_start + offset
        series[result.algorithm] = per_node[offset : offset + length]
    return RealtimeLoadFigure(
        figure="Figure 10",
        title=f"real-time system load on the {topology} overlay",
        window_start=int(start or 0),
        series=series,
    )
