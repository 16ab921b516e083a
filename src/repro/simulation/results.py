"""Per-run results and the summary statistics the figures aggregate.

:class:`RunResult` holds everything a run produced (per-query outcomes,
the bandwidth ledger, the live-count series); :class:`RunSummary` reduces
it to the scalars the paper's figures plot.  The accounting rules follow
Section V exactly:

* success rate = fraction of queries with >= 1 result;
* response time averaged over *successful* queries only;
* search cost = average bytes per search (queries/responses for baselines,
  confirmations + ads requests for ASAP -- Figure 6's caption);
* system load = bytes per live node per second over the measurement window
  (ad-delivery traffic included for ASAP, query traffic for baselines);
  its mean feeds Figure 8 and its standard deviation Figure 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.obs.profile import RunProfile
from repro.search.base import SearchOutcome
from repro.sim.metrics import BandwidthLedger, LoadSeries, TrafficCategory

__all__ = ["RunResult", "RunSummary"]


@dataclass(frozen=True)
class RunSummary:
    """The scalar metrics one run contributes to the paper's figures."""

    algorithm: str
    topology: str
    n_queries: int
    success_rate: float
    avg_response_time_ms: float
    avg_cost_bytes: float
    avg_messages: float
    load_mean_bpns: float  # bytes per node per second (Figure 8)
    load_std_bpns: float  # (Figure 9)
    load_peak_bpns: float

    def row(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "success_rate": self.success_rate,
            "avg_response_time_ms": self.avg_response_time_ms,
            "avg_cost_bytes": self.avg_cost_bytes,
            "avg_messages": self.avg_messages,
            "load_mean_bpns": self.load_mean_bpns,
            "load_std_bpns": self.load_std_bpns,
            "load_peak_bpns": self.load_peak_bpns,
        }


@dataclass
class RunResult:
    """Everything one trace replay produced."""

    algorithm: str
    topology: str
    n_peers: int
    outcomes: List[SearchOutcome]
    ledger: BandwidthLedger
    load_categories: frozenset
    live_counts: np.ndarray  # live peers at each second of the window
    t_start: int  # measurement window start (trace start, post warm-up)
    t_end: int  # exclusive
    # Observability extras, populated when the runner is asked for them.
    profile: Optional[RunProfile] = None  # per-subsystem/phase accounting
    # Invariant audit + deterministic run fingerprint (run_experiment
    # with audit=True); the report is an repro.obs.audit.AuditReport.
    audit: Optional[object] = None
    fingerprint: Optional[str] = None
    # The observed run's repro.obs.actions.ActionLog (audit or trace_path);
    # run_cells keeps it in the worker.
    actions: Optional[object] = None
    # Load telemetry (run_experiment with telemetry=True); a
    # repro.obs.telemetry summary document of this cell -- windowed load
    # series, exact hot peers and links, and quantile digests.
    telemetry: Optional[dict] = None
    # Protocol-state snapshot series (run_experiment with probes=True);
    # a repro.obs.probes summary document of this cell -- per-tick ad
    # coverage, staleness, Bloom FP and cache-health series.
    probes: Optional[dict] = None

    # ------------------------------------------------------------- metrics
    @property
    def n_queries(self) -> int:
        return len(self.outcomes)

    def success_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.success) / len(self.outcomes)

    def avg_response_time_ms(self) -> float:
        """Mean response time over successful searches (paper Section V-A)."""
        times = [o.response_time_ms for o in self.outcomes if o.success]
        return float(np.mean(times)) if times else math.nan

    def avg_cost_bytes(self) -> float:
        """Mean per-search bandwidth over all searches."""
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.cost_bytes for o in self.outcomes]))

    def avg_messages(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.messages for o in self.outcomes]))

    def load_series(self) -> LoadSeries:
        """Per-second load (bytes) over the measurement window."""
        return self.ledger.series(
            self.load_categories, t_start=self.t_start, t_end=self.t_end
        )

    def load_per_node(self) -> np.ndarray:
        return self.load_series().per_node(self.live_counts)

    def load_summary(self):
        return self.load_series().summarize(self.live_counts)

    def category_bytes_in_window(self) -> Dict[TrafficCategory, float]:
        """Bytes per load category inside the measurement window."""
        out: Dict[TrafficCategory, float] = {}
        for cat in self.load_categories:
            series = self.ledger.series([cat], t_start=self.t_start, t_end=self.t_end)
            out[cat] = float(series.bytes_per_second.sum())
        return out

    def ad_breakdown(self) -> Dict[TrafficCategory, float]:
        """Fraction of system-load bytes per category in the measurement
        window (Figure 7: the paper reports ~91% patch+refresh, ~8.5% full
        ads for the warmed-up ASAP(RW) system)."""
        by_cat = self.category_bytes_in_window()
        total = sum(by_cat.values())
        if total == 0:
            return {cat: 0.0 for cat in by_cat}
        return {cat: v / total for cat, v in by_cat.items()}

    def summarize(self) -> RunSummary:
        load = self.load_summary()
        return RunSummary(
            algorithm=self.algorithm,
            topology=self.topology,
            n_queries=self.n_queries,
            success_rate=self.success_rate(),
            avg_response_time_ms=self.avg_response_time_ms(),
            avg_cost_bytes=self.avg_cost_bytes(),
            avg_messages=self.avg_messages(),
            load_mean_bpns=load.mean,
            load_std_bpns=load.std,
            load_peak_bpns=load.peak,
        )
