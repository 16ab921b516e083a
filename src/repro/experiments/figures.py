"""One driver per paper figure.

Every figure function returns a small result object carrying the raw data
and a ``format_table()`` renderer, so tests can assert on numbers and the
benchmark harness can print paper-style output.

Scaling: the paper runs 10,000 peers x 30,000 queries.  The default
:class:`ExperimentScale` is laptop-sized; pass ``ExperimentScale.paper()``
for the full configuration.  Budgets and trace shape scale together (see
:func:`repro.simulation.config.scaled_config`), preserving the qualitative
comparisons the reproduction validates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.experiments.report import format_bar_chart, format_breakdown, format_grid_table
from repro.sim.metrics import TrafficCategory
from repro.sim.random import RandomStreams
from repro.simulation.config import ALGORITHMS, TOPOLOGIES, RunConfig, paper_config, scaled_config
from repro.simulation.results import RunResult
from repro.simulation.runner import run_experiment
from repro.workload.edonkey import EdonkeyParams, synthesize_content
from repro.workload.interests import (
    N_CLASSES,
    SEMANTIC_CLASSES,
    class_node_counts,
    interest_node_counts,
)

__all__ = [
    "ExperimentGrid",
    "ExperimentScale",
    "GridFigure",
    "WorkloadFigure",
    "BreakdownFigure",
    "RealtimeLoadFigure",
    "fig2_semantic_classes",
    "fig3_node_interests",
    "fig4_success_rate",
    "fig5_response_time",
    "fig6_search_cost",
    "fig7_load_breakdown",
    "fig8_avg_system_load",
    "fig9_load_variation",
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
    # each RunResult then carries a mergeable TelemetrySummary -- the
    # trace-free path to the Fig. 9 per-window load view and hotspots.
    telemetry: bool = False
    # Record protocol-state snapshots in every cell (repro.obs.probes):
    # each RunResult then carries a mergeable ProbeSummary -- per-tick ad
    # coverage, staleness and cache-health series.
    probes: bool = False
    # Worker processes for grid population (1 = serial, 0 = all cores).
    jobs: int = 1

    @staticmethod
    def paper() -> "ExperimentScale":
        """The paper's full configuration (hours of runtime in Python)."""
        return ExperimentScale(n_peers=10_000, n_queries=30_000)

    def config(self, algorithm: str, topology: str) -> RunConfig:
        if self.n_peers == 10_000 and self.n_queries == 30_000:
            return paper_config(algorithm, topology, seed=self.seed)
        return scaled_config(
            algorithm,
            topology,
            n_peers=self.n_peers,
            n_queries=self.n_queries,
            seed=self.seed,
            use_physical_network=self.use_physical_network,
        )


class ExperimentGrid:
    """Memoised (algorithm x topology) grid of trace replays.

    Figures 4-9 all read from this grid; each cell simulates once.
    """

    _shared: Dict[ExperimentScale, "ExperimentGrid"] = {}

    def __init__(self, scale: ExperimentScale | None = None) -> None:
        self.scale = scale or ExperimentScale()
        self._results: Dict[Tuple[str, str], RunResult] = {}

    @classmethod
    def shared(cls, scale: ExperimentScale | None = None) -> "ExperimentGrid":
        """A process-wide grid per scale, so benches share simulations."""
        scale = scale or ExperimentScale()
        grid = cls._shared.get(scale)
        if grid is None:
            grid = cls(scale)
            cls._shared[scale] = grid
        return grid

    def result(self, algorithm: str, topology: str) -> RunResult:
        key = (algorithm, topology)
        cached = self._results.get(key)
        if cached is None:
            cached = run_experiment(
                self.scale.config(algorithm, topology),
                profile=self.scale.profile,
                audit=self.scale.audit,
                telemetry=self.scale.telemetry,
                probes=self.scale.probes,
            )
            self._results[key] = cached
        return cached

    def prefetch(
        self,
        cells: Optional[List[Tuple[str, str]]] = None,
        progress=None,
        live=None,
    ) -> "ExperimentGrid":
        """Populate missing cells, in parallel when ``scale.jobs != 1``.

        ``cells`` defaults to the scale's full (algorithm x topology)
        product.  Results are identical to on-demand serial population --
        each cell runs the same config through the same runner -- so
        figures read from a prefetched grid exactly as before, just
        without the wall-clock serialisation.  A failed cell raises with
        the worker's config and traceback; sibling cells are kept.
        """
        from repro.experiments.parallel import CellFailure, run_cells

        if cells is None:
            cells = [
                (algo, topo)
                for algo in self.scale.algorithms
                for topo in self.scale.topologies
            ]
        missing = [key for key in dict.fromkeys(cells) if key not in self._results]
        if not missing:
            return self
        outcomes = run_cells(
            [self.scale.config(algo, topo) for algo, topo in missing],
            jobs=self.scale.jobs,
            profile=self.scale.profile,
            audit=self.scale.audit,
            telemetry=self.scale.telemetry,
            probes=self.scale.probes,
            live=live,
            progress=progress,
        )
        failures = []
        for key, outcome in zip(missing, outcomes):
            if isinstance(outcome, CellFailure):
                failures.append(outcome)
            else:
                self._results[key] = outcome
        if failures:
            report = "\n\n".join(
                f"{f.describe()}\n{f.traceback}" for f in failures
            )
            raise RuntimeError(
                f"{len(failures)} grid cell(s) failed:\n{report}"
            )
        return self

    def metric(
        self, extract, algorithms=None, topologies=None
    ) -> Dict[str, Dict[str, float]]:
        """``{algorithm_name: {topology: extract(result)}}`` over the grid."""
        algorithms = algorithms or self.scale.algorithms
        topologies = topologies or self.scale.topologies
        if self.scale.jobs != 1:
            self.prefetch([(a, t) for a in algorithms for t in topologies])
        out: Dict[str, Dict[str, float]] = {}
        for algo in algorithms:
            row: Dict[str, float] = {}
            name = None
            for topo in topologies:
                result = self.result(algo, topo)
                name = result.algorithm
                row[topo] = float(extract(result))
            out[name or algo] = row
        return out


# --------------------------------------------------------------- containers
@dataclass
class WorkloadFigure:
    """Figures 2 and 3: per-class node counts."""

    figure: str
    title: str
    labels: Tuple[str, ...]
    counts: np.ndarray

    def format_table(self) -> str:
        return format_bar_chart(
            f"{self.figure}: {self.title}",
            {label: float(c) for label, c in zip(self.labels, self.counts)},
            unit="nodes",
            precision=0,
        )


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

    @property
    def ad_delivery_fraction(self) -> float:
        return sum(
            v
            for k, v in self.fractions.items()
            if k in ("full_ad", "patch_ad", "refresh_ad")
        )

    @property
    def patch_refresh_fraction(self) -> float:
        return self.fractions.get("patch_ad", 0.0) + self.fractions.get(
            "refresh_ad", 0.0
        )

    @property
    def full_ad_fraction(self) -> float:
        return self.fractions.get("full_ad", 0.0)

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
        return "\n".join(lines)

    @property
    def window_length(self) -> int:
        return max((len(s) for s in self.series.values()), default=0)


# ------------------------------------------------------------- fig 2 and 3
def _workload_for_scale(scale: ExperimentScale):
    from dataclasses import replace as dc_replace

    params = dc_replace(EdonkeyParams(), n_peers=scale.n_peers, avg_docs_per_peer=10.0)
    rng = RandomStreams(seed=scale.seed).get("content")
    return synthesize_content(params, rng)


def fig2_semantic_classes(scale: ExperimentScale | None = None) -> WorkloadFigure:
    """Figure 2: nodes whose shared contents fall in each semantic class."""
    scale = scale or ExperimentScale()
    dist = _workload_for_scale(scale)
    node_classes = [dist.sharing_classes(n) for n in range(dist.n_peers)]
    counts = class_node_counts(node_classes, N_CLASSES)
    return WorkloadFigure(
        figure="Figure 2",
        title="distribution of 14 semantic classes among peers",
        labels=SEMANTIC_CLASSES,
        counts=counts,
    )


def fig3_node_interests(scale: ExperimentScale | None = None) -> WorkloadFigure:
    """Figure 3: number of nodes holding each of the 14 interests."""
    scale = scale or ExperimentScale()
    dist = _workload_for_scale(scale)
    counts = interest_node_counts(dist.interests, N_CLASSES)
    return WorkloadFigure(
        figure="Figure 3",
        title="distribution of 14 node interests among peers",
        labels=SEMANTIC_CLASSES,
        counts=counts,
    )


# ------------------------------------------------------------- fig 4 to 9
def fig4_success_rate(grid: ExperimentGrid | None = None) -> GridFigure:
    """Figure 4: search success rate per algorithm and topology."""
    grid = grid or ExperimentGrid.shared()
    return GridFigure(
        figure="Figure 4",
        title="search success rate",
        unit="fraction",
        values=grid.metric(lambda r: r.success_rate()),
        precision=3,
    )


def fig5_response_time(grid: ExperimentGrid | None = None) -> GridFigure:
    """Figure 5: average response time of successful searches."""
    grid = grid or ExperimentGrid.shared()
    return GridFigure(
        figure="Figure 5",
        title="average search response time",
        unit="ms",
        values=grid.metric(lambda r: r.avg_response_time_ms()),
        precision=1,
    )


def fig6_search_cost(grid: ExperimentGrid | None = None) -> GridFigure:
    """Figure 6: average bandwidth consumed per search."""
    grid = grid or ExperimentGrid.shared()
    return GridFigure(
        figure="Figure 6",
        title="search cost (bandwidth per search)",
        unit="bytes",
        values=grid.metric(lambda r: r.avg_cost_bytes()),
        precision=0,
    )


def fig7_load_breakdown(grid: ExperimentGrid | None = None) -> BreakdownFigure:
    """Figure 7: breakdown of ASAP(RW) system load on the crawled overlay."""
    grid = grid or ExperimentGrid.shared()
    result = grid.result("asap_rw", "crawled")
    fractions = {
        cat.value: frac for cat, frac in result.ad_breakdown().items() if frac > 0
    }
    return BreakdownFigure(
        figure="Figure 7",
        title="breakdown of ASAP(RW) system load (bytes)",
        fractions=fractions,
    )


def fig8_avg_system_load(grid: ExperimentGrid | None = None) -> GridFigure:
    """Figure 8: average system load (bytes per node per second)."""
    grid = grid or ExperimentGrid.shared()
    return GridFigure(
        figure="Figure 8",
        title="average system load",
        unit="B/node/s",
        values=grid.metric(lambda r: r.load_summary().mean),
        precision=1,
    )


def fig9_load_variation(grid: ExperimentGrid | None = None) -> GridFigure:
    """Figure 9: system-load standard deviation."""
    grid = grid or ExperimentGrid.shared()
    return GridFigure(
        figure="Figure 9",
        title="system load variation (standard deviation)",
        unit="B/node/s",
        values=grid.metric(lambda r: r.load_summary().std),
        precision=1,
    )


# ------------------------------------------------------------------ fig 10
def fig10_realtime_load(
    grid: ExperimentGrid | None = None,
    window_s: int = 100,
    topology: str = "crawled",
    algorithms: Tuple[str, ...] = ("flooding", "random_walk", "gsa", "asap_rw"),
) -> RealtimeLoadFigure:
    """Figure 10: real-time per-node load over a 100-second snapshot."""
    grid = grid or ExperimentGrid.shared()
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
