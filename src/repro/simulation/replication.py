"""Multi-seed replication: mean and spread of every reported metric.

Single-seed numbers from a stochastic simulator are anecdotes; the paper
reports single runs (common in 2007), but a reproduction should expose the
seed-to-seed spread.  :func:`run_replications` executes the same
configuration under independent seeds and aggregates each
:class:`~repro.simulation.results.RunSummary` field into mean, standard
deviation and extremes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.simulation.config import RunConfig
from repro.simulation.results import RunSummary

__all__ = ["MetricSpread", "ReplicatedSummary", "run_replications", "summary_spreads"]

#: RunSummary fields that are aggregated numerically.
_NUMERIC_FIELDS = (
    "success_rate",
    "avg_response_time_ms",
    "avg_cost_bytes",
    "avg_messages",
    "load_mean_bpns",
    "load_std_bpns",
    "load_peak_bpns",
)


@dataclass(frozen=True)
class MetricSpread:
    """Mean and spread of one metric across replications."""

    mean: float
    std: float
    min: float
    max: float
    n: int

    @staticmethod
    def of(values: Sequence[float]) -> "MetricSpread":
        arr = np.asarray([v for v in values if np.isfinite(v)], dtype=np.float64)
        if len(arr) == 0:
            return MetricSpread(
                mean=float("nan"), std=float("nan"),
                min=float("nan"), max=float("nan"), n=0,
            )
        return MetricSpread(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            min=float(arr.min()),
            max=float(arr.max()),
            n=len(arr),
        )

    def __str__(self) -> str:
        return f"{self.mean:.3g} ± {self.std:.2g} (n={self.n})"


def summary_spreads(summaries: Sequence[RunSummary]) -> Dict[str, MetricSpread]:
    """The across-run spread of every numeric :class:`RunSummary` field."""
    return {
        name: MetricSpread.of([getattr(s, name) for s in summaries])
        for name in _NUMERIC_FIELDS
    }


@dataclass
class ReplicatedSummary:
    """Aggregated summaries of one configuration across seeds."""

    algorithm: str
    topology: str
    seeds: List[int]
    metrics: Dict[str, MetricSpread]
    summaries: List[RunSummary]
    # Per-seed audit reports + fingerprints when run with audit=True
    # (repro.obs.audit.AuditReport entries, in seed order).
    audits: List[object] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    # Per-seed telemetry summaries (telemetry=True), in seed order, plus
    # their deterministic input-order merge across all seeds.
    telemetries: List[object] = field(default_factory=list)
    telemetry: object = None

    def __getitem__(self, metric: str) -> MetricSpread:
        return self.metrics[metric]

    def format_table(self) -> str:
        lines = [
            f"{self.algorithm} on {self.topology} "
            f"({len(self.seeds)} replications, seeds {self.seeds})"
        ]
        width = max(len(m) for m in self.metrics) + 2
        for name, spread in self.metrics.items():
            lines.append(f"  {name:<{width}} {spread}")
        return "\n".join(lines)


def run_replications(
    config: RunConfig,
    n_seeds: int = 5,
    jobs: int = 1,
    audit: bool = False,
    telemetry: bool = False,
) -> ReplicatedSummary:
    """Run ``config`` under ``n_seeds`` independent seeds and aggregate.

    Seeds are ``config.seed, config.seed + 1, ...`` -- deterministic, so a
    replicated result is itself reproducible.  ``jobs > 1`` fans the seeds
    out across worker processes (``0`` means all cores); every seed derives
    its own randomness, so the aggregate is bit-identical to ``jobs=1``.
    A failed replication raises, carrying the worker's traceback.

    ``telemetry=True`` collects a streaming telemetry summary per seed and
    merges them in seed order into ``ReplicatedSummary.telemetry``.
    """
    # Imported here to break the package cycle (parallel builds on runner).
    from repro.experiments.parallel import CellFailure, run_cells

    if n_seeds < 1:
        raise ValueError("need at least one replication")
    seeds = [config.seed + i for i in range(n_seeds)]
    configs = [replace(config, seed=seed) for seed in seeds]
    outcomes = run_cells(configs, jobs=jobs, audit=audit, telemetry=telemetry)
    summaries: List[RunSummary] = []
    audits: List[object] = []
    fingerprints: List[str] = []
    telemetries: List[object] = []
    for outcome in outcomes:
        if isinstance(outcome, CellFailure):
            raise RuntimeError(
                f"replication {outcome.describe()}\n{outcome.traceback}"
            )
        summaries.append(outcome.summarize())
        if audit:
            audits.append(outcome.audit)
            fingerprints.append(outcome.fingerprint)
        if telemetry:
            telemetries.append(outcome.telemetry)
    merged_telemetry = None
    if telemetry:
        from repro.obs import merge_summaries

        merged_telemetry = merge_summaries(telemetries)
    return ReplicatedSummary(
        algorithm=summaries[0].algorithm,
        topology=config.topology,
        seeds=seeds,
        metrics=summary_spreads(summaries),
        summaries=summaries,
        audits=audits,
        fingerprints=fingerprints,
        telemetries=telemetries,
        telemetry=merged_telemetry,
    )
