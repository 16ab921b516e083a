"""Bandwidth accounting and system-load time series.

The paper's central metric is *system load*: "bandwidth consumption per node
per second" (Section V-B), where the node count is the number of **live**
peers at that second.  :class:`BandwidthLedger` accumulates every message
transmission into one-second buckets, tagged with a :class:`TrafficCategory`
so Figure 7's load breakdown (full ads vs patch ads vs refresh ads vs
search traffic) falls out directly.

Implementation note: buckets are a dict keyed by integer second rather than a
preallocated array because trace length is not known up front and the series
is sparse during warm-up; conversion to dense NumPy arrays happens once at
summary time (vectorise the read path, keep the write path O(1) -- the write
path is called millions of times).
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "BandwidthLedger",
    "LoadSeries",
    "LoadSummary",
    "TrafficCategory",
]


class TrafficCategory(str, enum.Enum):
    """Why bytes crossed the wire.  Matches the paper's accounting rules.

    * Baselines: only ``QUERY`` traffic counts as system load.
    * ASAP: ad-delivery traffic (``FULL_AD``/``PATCH_AD``/``REFRESH_AD``)
      plus search traffic (``CONFIRMATION``/``ADS_REQUEST``) counts.
    * Download and keep-alive traffic, which footnote 1 of the paper
      excludes from load, is not modelled at all.
    """

    QUERY = "query"
    QUERY_RESPONSE = "query_response"
    FULL_AD = "full_ad"
    PATCH_AD = "patch_ad"
    REFRESH_AD = "refresh_ad"
    CONFIRMATION = "confirmation"
    ADS_REQUEST = "ads_request"
    ADS_REPLY = "ads_reply"


#: Categories counted as "system load" for ASAP schemes (paper Section V-B).
ASAP_LOAD_CATEGORIES: frozenset = frozenset(
    {
        TrafficCategory.FULL_AD,
        TrafficCategory.PATCH_AD,
        TrafficCategory.REFRESH_AD,
        TrafficCategory.CONFIRMATION,
        TrafficCategory.ADS_REQUEST,
        TrafficCategory.ADS_REPLY,
    }
)

#: Categories counted as "system load" for query-based baselines.
BASELINE_LOAD_CATEGORIES: frozenset = frozenset(
    {TrafficCategory.QUERY, TrafficCategory.QUERY_RESPONSE}
)

#: Categories counted as per-search cost for ASAP (Figure 6 caption:
#: "search cost includes both content confirmation and ads request messages").
ASAP_SEARCH_COST_CATEGORIES: frozenset = frozenset(
    {
        TrafficCategory.CONFIRMATION,
        TrafficCategory.ADS_REQUEST,
        TrafficCategory.ADS_REPLY,
    }
)


class BandwidthLedger:
    """Accumulates transmitted bytes into per-second, per-category buckets."""

    def __init__(self) -> None:
        # second -> category -> bytes
        self._buckets: Dict[int, Dict[TrafficCategory, float]] = defaultdict(dict)
        self._totals: Dict[TrafficCategory, float] = defaultdict(float)
        self._message_counts: Dict[TrafficCategory, int] = defaultdict(int)

    # ------------------------------------------------------------- recording
    def record(
        self,
        time: float,
        category: TrafficCategory,
        nbytes: float,
        messages: int = 1,
    ) -> None:
        """Record ``nbytes`` sent at simulation ``time`` under ``category``.

        ``messages`` lets vectorised callers record a whole batch (e.g. an
        entire flood) as one call; counts feed message statistics while bytes
        feed the load series.
        """
        if nbytes < 0:
            raise ValueError(f"negative bytes: {nbytes}")
        if time < 0:
            raise ValueError(f"negative time: {time}")
        second = int(time)
        bucket = self._buckets[second]
        bucket[category] = bucket.get(category, 0.0) + nbytes
        self._totals[category] += nbytes
        self._message_counts[category] += messages

    def record_each(
        self, times: np.ndarray, category: TrafficCategory, nbytes: np.ndarray
    ) -> None:
        """One message of ``nbytes[i]`` at ``times[i]`` for every ``i``: the
        ledger :meth:`record` called in that order leaves.

        Wire sizes are whole numbers of bytes, which add up to the same
        floats in any order, so the messages are booked a second at a time.
        """
        times, second = np.unique(times.astype(np.int64), return_inverse=True)
        nbytes, counts = np.bincount(second, weights=nbytes), np.bincount(second)
        for time, total, count in zip(times.tolist(), nbytes.tolist(), counts.tolist()):
            self.record(time, category, total, messages=count)

    # --------------------------------------------------------------- queries
    def total_bytes(self, categories: Optional[Iterable[TrafficCategory]] = None) -> float:
        """Total bytes recorded, optionally restricted to ``categories``."""
        if categories is None:
            return float(sum(self._totals.values()))
        return float(sum(self._totals.get(c, 0.0) for c in categories))

    def total_messages(
        self, categories: Optional[Iterable[TrafficCategory]] = None
    ) -> int:
        if categories is None:
            return int(sum(self._message_counts.values()))
        return int(sum(self._message_counts.get(c, 0) for c in categories))

    def category_totals(self) -> Dict[TrafficCategory, float]:
        """Bytes per category over the whole run (Figure 7 input)."""
        return dict(self._totals)

    def series(
        self,
        categories: Iterable[TrafficCategory],
        t_start: int = 0,
        t_end: Optional[int] = None,
    ) -> "LoadSeries":
        """Dense per-second byte series for the given categories.

        ``t_end`` is exclusive; defaults to one past the last recorded second.
        """
        cats = frozenset(categories)
        if t_end is None:
            t_end = (max(self._buckets) + 1) if self._buckets else t_start
        if t_end < t_start:
            raise ValueError(f"t_end={t_end} < t_start={t_start}")
        n = t_end - t_start
        values = np.zeros(n, dtype=np.float64)
        for second, by_cat in self._buckets.items():
            if t_start <= second < t_end:
                values[second - t_start] = sum(
                    v for c, v in by_cat.items() if c in cats
                )
        return LoadSeries(t_start=t_start, bytes_per_second=values)


@dataclass(frozen=True)
class LoadSummary:
    """Aggregate statistics of a per-node-per-second load series."""

    mean: float
    std: float
    peak: float
    total_bytes: float
    duration: int

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.1f} B/node/s  std={self.std:.1f}  "
            f"peak={self.peak:.1f}  total={self.total_bytes:.0f} B over {self.duration}s"
        )


@dataclass
class LoadSeries:
    """A dense per-second byte series starting at ``t_start``."""

    t_start: int
    bytes_per_second: np.ndarray

    def __len__(self) -> int:
        return len(self.bytes_per_second)

    def per_node(self, live_counts: np.ndarray) -> np.ndarray:
        """Divide by the live-node count at each second (paper's metric).

        Seconds with zero live nodes yield zero load (no peers to carry it).
        """
        if len(live_counts) != len(self.bytes_per_second):
            raise ValueError(
                f"live_counts length {len(live_counts)} != series length "
                f"{len(self.bytes_per_second)}"
            )
        live = np.asarray(live_counts, dtype=np.float64)
        out = np.zeros_like(self.bytes_per_second)
        mask = live > 0
        out[mask] = self.bytes_per_second[mask] / live[mask]
        return out

    def summarize(self, live_counts: np.ndarray) -> LoadSummary:
        """Mean/std/peak of bytes-per-node-per-second (Figures 8 and 9)."""
        per_node = self.per_node(live_counts)
        if len(per_node) == 0:
            return LoadSummary(mean=0.0, std=0.0, peak=0.0, total_bytes=0.0, duration=0)
        return LoadSummary(
            mean=float(np.mean(per_node)),
            std=float(np.std(per_node)),
            peak=float(np.max(per_node)),
            total_bytes=float(np.sum(self.bytes_per_second)),
            duration=len(per_node),
        )


@dataclass
class LiveCountTracker:
    """Records the number of live peers at each second for load normalisation."""

    initial: int
    _changes: List[Tuple[float, int]] = field(default_factory=list)

    def record_change(self, time: float, delta: int) -> None:
        """A peer joined (+1) or departed (-1) at ``time``."""
        if time < 0:
            raise ValueError("negative time")
        self._changes.append((time, delta))

    def counts(self, t_start: int, t_end: int) -> np.ndarray:
        """Live-node count sampled at the start of each second in range."""
        if t_end < t_start:
            raise ValueError("t_end < t_start")
        events = sorted(self._changes)
        out = np.empty(t_end - t_start, dtype=np.int64)
        count = self.initial
        idx = 0
        for second in range(t_start, t_end):
            while idx < len(events) and events[idx][0] <= second:
                count += events[idx][1]
                idx += 1
            out[second - t_start] = count
        return out
