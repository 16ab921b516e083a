"""Multi-seed replication: mean and spread of every reported metric.

Single-seed numbers from a stochastic simulator are anecdotes; the paper
reports single runs (common in 2007), but a reproduction should expose the
seed-to-seed spread.  :func:`summary_spreads` aggregates each
:class:`~repro.simulation.results.RunSummary` field of the same
configuration under independent seeds (``run_cells`` over
``replace(config, seed=s)``) into mean, standard deviation and extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.simulation.results import RunSummary

__all__ = ["MetricSpread", "format_spreads", "summary_spreads"]

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


def format_spreads(title: str, spreads: Dict[str, MetricSpread]) -> str:
    """``title`` over one ``metric  mean ± std (n=N)`` line per metric."""
    width = max(len(name) for name in spreads) + 2
    return "\n".join(
        [title] + [f"  {name:<{width}} {spread}" for name, spread in spreads.items()]
    )
