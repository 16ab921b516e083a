"""Ledger oracle: bytes in a dict of seconds, each second a dict of categories.

The :class:`~repro.sim.metrics.BandwidthLedger` the simulator kept before
its array: one ``record`` per (second, category) cell, running totals and
message counts in dicts, and the per-second write of a walk or flood done
the way the forwarders did it -- one ``record`` per second with bytes, at
``second + 0.5``, then the message count at the first of them -- and a
batch of messages as the ``record`` calls it stands for.
"""

from collections import defaultdict
from typing import Dict, Iterable, Optional

import numpy as np

from repro.sim.metrics import LoadSeries, TrafficCategory

__all__ = ["DictLedger"]


class DictLedger:
    """``second -> category -> bytes`` plus totals and message counts."""

    def __init__(self) -> None:
        self._buckets: Dict[int, Dict[TrafficCategory, float]] = defaultdict(dict)
        self._totals: Dict[TrafficCategory, float] = defaultdict(float)
        self._message_counts: Dict[TrafficCategory, int] = defaultdict(int)

    def record(
        self, time: float, category: TrafficCategory, nbytes: float, messages: int = 1
    ) -> None:
        if nbytes < 0:
            raise ValueError(f"negative bytes: {nbytes}")
        if time < 0:
            raise ValueError(f"negative time: {time}")
        bucket = self._buckets[int(time)]
        bucket[category] = bucket.get(category, 0.0) + nbytes
        self._totals[category] += nbytes
        self._message_counts[category] += messages

    def add(
        self,
        category: TrafficCategory,
        first_second: int,
        nbytes: np.ndarray,
        messages: int,
    ) -> None:
        """A second at a time, then the message count on its own."""
        seconds = [first_second + i for i, b in enumerate(nbytes.tolist()) if b]
        for second in seconds:
            self.record(second + 0.5, category, float(nbytes[second - first_second]), 0)
        first = seconds[0] if seconds else first_second
        self.record(first + 0.5, category, 0.0, messages=messages)

    def record_each(
        self, times: np.ndarray, category: TrafficCategory, nbytes: np.ndarray
    ) -> None:
        for time, size in zip(times.tolist(), nbytes.tolist()):
            self.record(time, category, size)

    def total_bytes(self, categories: Optional[Iterable[TrafficCategory]] = None) -> float:
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
        return dict(self._totals)

    def per_second(self) -> Dict[TrafficCategory, np.ndarray]:
        """Dense bytes per second of every category, second 0 onwards."""
        end = max(self._buckets) + 1 if self._buckets else 0
        out = {c: np.zeros(end) for c in self._totals}
        for second, by_cat in self._buckets.items():
            for category, nbytes in by_cat.items():
                out[category][second] = nbytes
        return out

    def series(
        self,
        categories: Iterable[TrafficCategory],
        t_start: int = 0,
        t_end: Optional[int] = None,
    ) -> LoadSeries:
        cats = frozenset(categories)
        if t_end is None:
            t_end = (max(self._buckets) + 1) if self._buckets else t_start
        if t_end < t_start:
            raise ValueError(f"t_end={t_end} < t_start={t_start}")
        values = np.zeros(t_end - t_start, dtype=np.float64)
        for second, by_cat in self._buckets.items():
            if t_start <= second < t_end:
                values[second - t_start] = sum(
                    v for c, v in by_cat.items() if c in cats
                )
        return LoadSeries(t_start=t_start, bytes_per_second=values)
