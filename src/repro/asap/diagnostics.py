"""Diagnostics over a running ASAP instance: cache occupancy, staleness,
coverage.

These read-only views answer the operational questions Section III-A's
design discussion raises -- how much state does selective caching actually
hold, how stale does it get under churn, and how well do deliveries cover
the interested audience -- without touching protocol state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.asap.protocol import AsapSearch

__all__ = ["CacheDiagnostics", "diagnose"]


@dataclass(frozen=True)
class CacheDiagnostics:
    """Snapshot statistics of all ads repositories."""

    n_nodes: int
    total_entries: int
    mean_entries: float
    median_entries: float
    max_entries: int
    behind_entries: int  # entries lagging their source's filter version
    stale_source_entries: int  # entries whose source is currently offline
    mean_source_coverage: float  # per sharer: fraction of interested nodes caching it

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form (symmetric with :meth:`format_table`).

        Consumed by the metrics exporter and tests; keys are stable and
        match the dataclass field names.
        """
        return {
            "n_nodes": self.n_nodes,
            "total_entries": self.total_entries,
            "mean_entries": self.mean_entries,
            "median_entries": self.median_entries,
            "max_entries": self.max_entries,
            "behind_entries": self.behind_entries,
            "stale_source_entries": self.stale_source_entries,
            "mean_source_coverage": self.mean_source_coverage,
        }

    def format_table(self) -> str:
        lines = ["ASAP cache diagnostics"]
        lines.append(f"  nodes                    {self.n_nodes}")
        lines.append(f"  total cached ads         {self.total_entries}")
        lines.append(
            f"  entries per node         mean {self.mean_entries:.1f}, "
            f"median {self.median_entries:.0f}, max {self.max_entries}"
        )
        lines.append(f"  behind (missed patches)  {self.behind_entries}")
        lines.append(f"  pointing at offline src  {self.stale_source_entries}")
        lines.append(
            f"  mean audience coverage   {self.mean_source_coverage:.1%}"
        )
        return "\n".join(lines)


def diagnose(algo: AsapSearch) -> CacheDiagnostics:
    """Compute cache statistics for every node of an ASAP instance."""
    n = algo.overlay.n
    state = algo.state
    live = algo.overlay.live_mask
    held = state.held_mask()
    sizes = state.occupancy

    # Audience coverage: for each sharer, what fraction of the live nodes
    # interested in its topics cache its ad?
    coverages: List[float] = []
    for source in range(n):
        topics = algo.store.topics(source)
        if not topics or not algo.store.is_sharer(source):
            continue
        audience = algo.interests.mask_for(topics) & live
        audience[source] = False
        if audience.any():
            coverages.append(
                np.count_nonzero(held[audience, source])
                / np.count_nonzero(audience)
            )

    return CacheDiagnostics(
        n_nodes=n,
        total_entries=int(sizes.sum()),
        mean_entries=float(sizes.mean()) if n else 0.0,
        median_entries=float(np.median(sizes)) if n else 0.0,
        max_entries=int(sizes.max()) if n else 0,
        behind_entries=int(np.count_nonzero(state.behind_mask())),
        stale_source_entries=int(np.count_nonzero(held[:, ~live])),
        mean_source_coverage=float(np.mean(coverages)) if coverages else 0.0,
    )
