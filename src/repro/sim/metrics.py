"""Bandwidth accounting and system-load time series.

The paper's central metric is *system load*: "bandwidth consumption per node
per second" (Section V-B), where the node count is the number of **live**
peers at that second.  :class:`BandwidthLedger` accumulates every message
transmission into one-second buckets, tagged with a :class:`TrafficCategory`
so Figure 7's load breakdown (full ads vs patch ads vs refresh ads vs
search traffic) falls out directly.

Implementation note: the ledger is one ``float64`` array of bytes per
(category, second) that doubles its width as seconds grow -- the trace's
length is not known up front, and a paper-scale run's few thousand seconds
times eight categories are a few hundred kilobytes.  A scalar message is
one cell write (:meth:`BandwidthLedger.record`); a walk, flood or batch of
pulls hands its per-second bytes to :meth:`BandwidthLedger.add` as one
slice write.  :meth:`BandwidthLedger.series` and the telemetry windows are
sums over slices of the same array; each write also adds its bytes to a
running total per category, which is exact because every wire size is a
whole number of bytes, so :meth:`BandwidthLedger.category_totals` sums
nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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


#: Each category's row in :class:`BandwidthLedger`'s byte array.
_ROW: Dict[TrafficCategory, int] = {c: row for row, c in enumerate(TrafficCategory)}


class BandwidthLedger:
    """Bytes per (category, second) in one array, messages per category.

    Two write paths: :meth:`record` books one scalar, and :meth:`add` books
    a whole per-second byte array -- a walk's, a flood's, a batch of
    pulls' -- in one slice write.  Wire sizes are whole numbers of bytes
    (the ``*_BYTES`` constants of :mod:`repro.search.base`; a test pins
    them), so every cell, total and window sum is exact in any order.
    """

    def __init__(self) -> None:
        # bytes[_ROW[category], second]; the width doubles as seconds grow.
        self._bytes = np.zeros((len(_ROW), 64))
        self._end = 0  # one past the last second booked
        self._totals = [0.0] * len(_ROW)  # bytes per category row
        # Messages per category, in the order categories were first booked.
        self._messages: Dict[TrafficCategory, int] = {}

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
        if second >= self._end:
            self._extend(second + 1)
        row = _ROW[category]
        self._bytes[row, second] += nbytes
        self._totals[row] += nbytes
        self._messages[category] = self._messages.get(category, 0) + messages

    def add(
        self,
        category: TrafficCategory,
        first_second: int,
        nbytes: np.ndarray,
        messages: int,
    ) -> None:
        """Book ``nbytes[i]`` bytes in second ``first_second + i`` and
        ``messages`` messages under ``category``: the per-second write."""
        if first_second < 0:
            raise ValueError(f"negative second: {first_second}")
        end = first_second + len(nbytes)
        if end > self._end:
            self._extend(end)
        row = _ROW[category]
        self._bytes[row, first_second:end] += nbytes
        self._totals[row] += float(nbytes.sum())
        self._messages[category] = self._messages.get(category, 0) + messages

    def record_each(
        self, times: np.ndarray, category: TrafficCategory, nbytes: np.ndarray
    ) -> None:
        """One message of ``nbytes[i]`` at ``times[i]`` for every ``i``: the
        ledger :meth:`record` called in that order leaves."""
        if not len(times):
            return
        seconds = times.astype(np.int64)
        first = int(seconds.min())
        self.add(
            category, first, np.bincount(seconds - first, weights=nbytes), len(times)
        )

    def _extend(self, end: int) -> None:
        width = self._bytes.shape[1]
        if end > width:
            grown = np.zeros((len(_ROW), max(end, 2 * width)))
            grown[:, :width] = self._bytes
            self._bytes = grown
        self._end = end

    # --------------------------------------------------------------- queries
    def total_bytes(self, categories: Optional[Iterable[TrafficCategory]] = None) -> float:
        """Total bytes recorded, optionally restricted to ``categories``."""
        totals = self.category_totals()
        if categories is None:
            return float(sum(totals.values()))
        return float(sum(totals.get(c, 0.0) for c in categories))

    def total_messages(
        self, categories: Optional[Iterable[TrafficCategory]] = None
    ) -> int:
        if categories is None:
            return int(sum(self._messages.values()))
        return int(sum(self._messages.get(c, 0) for c in categories))

    def byte_totals(self) -> List[float]:
        """Bytes per category over the whole run, one entry per
        :class:`TrafficCategory` in declaration order (a copy)."""
        return list(self._totals)

    def category_totals(self) -> Dict[TrafficCategory, float]:
        """Bytes per category over the whole run (Figure 7 input), in the
        order the categories were first booked."""
        totals = self._totals
        return {c: float(totals[_ROW[c]]) for c in self._messages}

    def per_second(self) -> Dict[TrafficCategory, np.ndarray]:
        """Bytes per second, from second 0 to the last one booked, of every
        category booked, in the order first booked (copies)."""
        return {c: self._bytes[_ROW[c], : self._end].copy() for c in self._messages}

    def series(
        self,
        categories: Iterable[TrafficCategory],
        t_start: int = 0,
        t_end: Optional[int] = None,
    ) -> "LoadSeries":
        """Dense per-second byte series for the given categories.

        ``t_end`` is exclusive; defaults to one past the last recorded second.
        """
        if t_end is None:
            t_end = self._end or t_start
        if t_end < t_start:
            raise ValueError(f"t_end={t_end} < t_start={t_start}")
        values = np.zeros(t_end - t_start, dtype=np.float64)
        rows = sorted({_ROW[c] for c in categories})
        lo, hi = max(t_start, 0), min(t_end, self._end)
        if rows and hi > lo:
            values[lo - t_start : hi - t_start] = self._bytes[rows, lo:hi].sum(axis=0)
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
