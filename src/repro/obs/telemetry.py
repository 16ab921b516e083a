"""Streaming load telemetry: windowed series, sketches and heavy hitters.

Tracing (:mod:`repro.obs.trace`) records *every* event and reconstructs the
paper's load figures by replay -- exact, but O(events) in memory and output
size, which cannot survive the ROADMAP's 100k-1M-peer scale-up or a live
service mode.  This module is the complementary **aggregated** path: a
constant-memory, opt-in :class:`Telemetry` accumulator that the run's
:class:`~repro.obs.instrument.Instrumentation` updates inline, action by
action (engine dispatch, query, ad delivery, confirmation, ads exchange,
repair, churn), and that summarises into a small, mergeable, deterministic
JSON document (:meth:`Telemetry.summary`):

* **time-windowed load series** -- messages / bytes / queries per window,
  globally and per traffic category (the Fig. 9 "load variation over time"
  view, without a JSONL trace);
* **streaming quantile sketches** -- fixed-gamma log-bucket histograms
  (DDSketch-style; pure Python, no numpy) for response time and per-peer
  load, with a relative-error guarantee of ``gamma - 1`` per quantile;
* **top-K heavy hitters** -- Space-Saving-style trackers naming the
  hottest peers and links, globally and per window.

Design rules:

1. **Absent when off.**  A run without telemetry holds no accumulator; the
   hosts' one ``obs is not None`` branch per action site is all it pays.
2. **Cheap when on.**  Inline updates are O(1) dict increments.  The
   per-category byte series is *not* double-counted inline: every byte
   already lands in :class:`~repro.sim.metrics.BandwidthLedger`'s
   per-second array, so :meth:`Telemetry.summary` sums its seconds into
   windows exactly, at zero inline cost.
3. **Deterministic, associative merge.**  A summary document holds only
   integer counts, ordered floats and sorted structures; :func:`merge`
   sums them key-wise.  Merging per-cell summaries in input order
   (:func:`merge_summaries`) is therefore bit-identical whether the cells
   ran serially or under ``run_cells --jobs N``, and :func:`fingerprint`
   is blake2b over the canonical JSON form.  The same merge and
   fingerprint serve the probe summaries of :mod:`repro.obs.probes`.

The heavy-hitter tracker is Space-Saving with amortised batch eviction:
admissions go into a plain dict; when the dict exceeds twice the capacity
it is compacted to the ``capacity`` largest entries (count desc, key asc --
deterministic) and the largest evicted count becomes the error floor
inherited by subsequent admissions, exactly Space-Saving's count
inheritance.  While the number of distinct keys stays within capacity the
tracker is exact and its merge is associative; beyond that it degrades to
the usual Space-Saving overestimate, bounded by ``error(key)``.
"""

from __future__ import annotations

import json
import math
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LogBucketSketch",
    "SpaceSaving",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "fingerprint",
    "format_hotspots",
    "format_sketches",
    "format_window_table",
    "load_std_bpns",
    "merge",
    "merge_summaries",
    "quantile_nearest_rank",
]

#: Version of the :meth:`Telemetry.summary` document schema.
TELEMETRY_SCHEMA_VERSION = 1

#: Window width in simulation seconds.
WINDOW_S = 10.0
#: Relative-error base of every quantile sketch.
GAMMA = 1.05
#: Hot peers / links listed by the report.
TOP_K = 8
#: Heavy-hitter capacities: whole run, and per window.
HH_CAPACITY = 64
WINDOW_HH_CAPACITY = 16


def quantile_nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sequence.

    The single quantile definition shared by the trace analyzer and the
    telemetry sketches: rank ``ceil(q * n)`` (1-based), clamped to the
    first element for tiny ``q``.  ``sorted_values`` must be non-empty and
    sorted ascending; ``q`` in [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of empty sequence")
    idx = max(0, math.ceil(q * n) - 1)
    return float(sorted_values[idx])


class LogBucketSketch:
    """A mergeable streaming quantile sketch over non-negative values.

    DDSketch-style: value ``v > 0`` lands in bucket ``ceil(log(v, gamma))``,
    so any quantile is answered with relative error at most ``gamma - 1``
    (default 5%).  Zero values get a dedicated bucket.  Buckets are integer
    counts in a dict -- merging two sketches adds counts key-wise, which is
    exact, associative and commutative.  Min/max/sum/count are tracked
    exactly alongside.
    """

    __slots__ = ("gamma", "_log_gamma", "buckets", "zero_count", "count",
                 "total", "min", "max")

    def __init__(self, gamma: float = 1.05) -> None:
        if gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {gamma}")
        self.gamma = gamma
        self._log_gamma = math.log(gamma)
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float, count: int = 1) -> None:
        if value < 0:
            raise ValueError(f"negative value: {value}")
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0:
            self.zero_count += count
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        b = self.buckets
        b[key] = b.get(key, 0) + count

    # ---------------------------------------------------------------- queries
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Approximate nearest-rank quantile (relative error <= gamma-1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))  # 1-based nearest rank
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen >= rank:
                # Representative value: geometric bucket midpoint, clamped
                # to the exact observed extremes.
                rep = 2.0 * self.gamma ** key / (self.gamma + 1.0)
                return min(max(rep, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always lands

    def merge(self, other: "LogBucketSketch") -> None:
        """Fold ``other`` into this sketch (exact on bucket counts)."""
        if other.gamma != self.gamma:
            raise ValueError(
                f"cannot merge sketches with gamma {self.gamma} != {other.gamma}"
            )
        for key, count in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gamma": self.gamma,
            "count": self.count,
            "zero_count": self.zero_count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            # JSON object keys must be strings; sorted for determinism.
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "LogBucketSketch":
        sketch = LogBucketSketch(gamma=d["gamma"])
        sketch.count = int(d["count"])
        sketch.zero_count = int(d["zero_count"])
        sketch.total = float(d["total"])
        sketch.min = math.inf if d["min"] is None else float(d["min"])
        sketch.max = -math.inf if d["max"] is None else float(d["max"])
        sketch.buckets = {int(k): int(v) for k, v in d["buckets"].items()}
        return sketch

    def summary_dict(self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)) -> Dict[str, Any]:
        """Small human-facing digest (count/mean/extremes/quantiles)."""
        out: Dict[str, Any] = {
            "count": self.count,
            "mean": None if self.count == 0 else self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }
        for q in quantiles:
            v = self.quantile(q)
            out[f"p{int(q * 100)}"] = None if math.isnan(v) else v
        return out


class SpaceSaving:
    """Top-K heavy-hitter tracker (Space-Saving, amortised batch eviction).

    ``add(key, count)`` is an O(1) dict increment; when more than
    ``2 * capacity`` distinct keys are retained, the tracker compacts to
    the ``capacity`` largest (count desc, key asc) and the largest evicted
    count becomes the floor inherited by later admissions (Space-Saving's
    count-inheritance rule, applied in batch).  ``error(key)`` bounds the
    overestimate.  Exact -- and merge-associative -- while the distinct
    key count stays within capacity.
    """

    __slots__ = ("capacity", "counts", "errors", "floor")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.counts: Dict[Any, int] = {}
        self.errors: Dict[Any, int] = {}
        self.floor = 0  # largest count ever evicted

    def add(self, key: Any, count: int = 1) -> None:
        counts = self.counts
        if key in counts:
            counts[key] += count
        else:
            # New key inherits the eviction floor (overestimate, never under).
            counts[key] = self.floor + count
            if self.floor:
                self.errors[key] = self.floor
            if len(counts) > 2 * self.capacity:
                self._compact()

    def _compact(self) -> None:
        order = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        evicted_max = order[self.capacity][1] if len(order) > self.capacity else 0
        if evicted_max > self.floor:
            self.floor = evicted_max
        kept = order[: self.capacity]
        self.counts = dict(kept)
        self.errors = {k: e for k, e in self.errors.items() if k in self.counts}

    def top(self, n: Optional[int] = None) -> List[Tuple[Any, int, int]]:
        """The ``n`` heaviest keys as ``(key, count, error)`` tuples.

        Deterministic order: count desc, then key asc.
        """
        order = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if n is not None:
            order = order[:n]
        return [(k, c, self.errors.get(k, 0)) for k, c in order]

    def merge(self, other: "SpaceSaving") -> None:
        """Fold ``other`` in: key-wise count sums, error floors add.

        Associative and exact while the union of distinct keys fits within
        capacity; beyond that, deterministic compaction applies.
        """
        counts = self.counts
        for key, count in other.counts.items():
            if key in counts:
                counts[key] += count
                err = self.errors.get(key, 0) + other.errors.get(key, 0)
                if err:
                    self.errors[key] = err
            else:
                counts[key] = count
                err = other.errors.get(key, 0)
                if err:
                    self.errors[key] = err
        self.floor += other.floor
        if len(counts) > 2 * self.capacity:
            self._compact()

    def to_dict(self) -> Dict[str, Any]:
        """Every retained key as ``[key, count, error]``, heaviest first
        (count desc, then canonical key string asc)."""
        top = sorted(
            ([_key_str(k), c, self.errors.get(k, 0)] for k, c in self.counts.items()),
            key=lambda row: (-row[1], row[0]),
        )
        return {"capacity": self.capacity, "floor": self.floor, "top": top}

    def state_dict(self) -> Dict[str, Any]:
        """Full retained state under canonical key strings."""
        return {
            "capacity": self.capacity,
            "floor": self.floor,
            "counts": {_key_str(k): c for k, c in sorted(
                self.counts.items(), key=lambda kv: _key_str(kv[0])
            )},
            "errors": {_key_str(k): e for k, e in sorted(
                self.errors.items(), key=lambda kv: _key_str(kv[0])
            )},
        }

    @staticmethod
    def from_state_dict(d: Dict[str, Any]) -> "SpaceSaving":
        """Rebuild from :meth:`state_dict` or :meth:`to_dict` form."""
        ss = SpaceSaving(capacity=int(d["capacity"]))
        ss.floor = int(d["floor"])
        if "top" in d:
            ss.counts = {k: int(c) for k, c, _ in d["top"]}
            ss.errors = {k: int(e) for k, _, e in d["top"] if e}
        else:
            ss.counts = {k: int(v) for k, v in d["counts"].items()}
            ss.errors = {k: int(v) for k, v in d["errors"].items()}
        return ss


def _key_str(key: Any) -> str:
    """Canonical string form for heavy-hitter keys (peers and links)."""
    if isinstance(key, tuple):
        return "->".join(str(int(k)) for k in key)
    return str(key)


class _WindowStats:
    """Inline per-window counters (everything the ledger does not know)."""

    __slots__ = ("queries", "hits", "local_hits", "deliveries", "joins",
                 "leaves", "repairs", "ads_requests", "confirmations",
                 "engine_events", "peers", "links")

    def __init__(self) -> None:
        self.queries = 0
        self.hits = 0
        self.local_hits = 0
        self.deliveries = 0
        self.joins = 0
        self.leaves = 0
        self.repairs = 0
        self.ads_requests = 0
        self.confirmations = 0
        self.engine_events = 0
        self.peers = SpaceSaving(WINDOW_HH_CAPACITY)
        self.links = SpaceSaving(WINDOW_HH_CAPACITY)


class Telemetry:
    """The live, mutable telemetry accumulator attached to one run.

    Attach via ``run_cells(configs, telemetry=True)`` or by hand inside an
    ``Instrumentation(telemetry=t)`` given to ``algorithm.attach`` and
    ``engine.set_observer``.  Call :meth:`summary` once the run completes to
    freeze it into a mergeable summary document.
    """

    def __init__(self) -> None:
        self._windows: Dict[int, _WindowStats] = {}
        self.response_time_ms = LogBucketSketch(GAMMA)
        self.query_cost_bytes = LogBucketSketch(GAMMA)
        self.delivery_bytes = LogBucketSketch(GAMMA)
        self.hot_peers = SpaceSaving(HH_CAPACITY)
        self.hot_links = SpaceSaving(HH_CAPACITY)
        self._peer_bytes: Dict[int, float] = {}  # node -> attributed bytes
        self.engine_events = 0

    # ------------------------------------------------------------- internals
    def _window(self, t: float) -> _WindowStats:
        w = int(t // WINDOW_S)
        win = self._windows.get(w)
        if win is None:
            win = self._windows[w] = _WindowStats()
        return win

    # ---------------------------------------------- fed by Instrumentation
    def record_engine_event(self, t: float) -> None:
        """One engine dispatch at simulation time ``t`` (hot path)."""
        self.engine_events += 1
        self._window(t).engine_events += 1

    def record_query(self, t: float, requester: int, outcome: Any) -> None:
        """One completed search request (called from the ``search`` template)."""
        win = self._window(t)
        win.queries += 1
        if outcome.success:
            win.hits += 1
            if outcome.local_hit:
                win.local_hits += 1
            else:
                self.response_time_ms.add(outcome.response_time_ms)
        self.query_cost_bytes.add(outcome.cost_bytes)

    def record_peer_bytes(self, t: float, node: int, nbytes: float) -> None:
        """Attribute ``nbytes`` of load to ``node`` at time ``t``."""
        node = int(node)
        self._peer_bytes[node] = self._peer_bytes.get(node, 0.0) + nbytes
        n = int(nbytes)
        if n:
            self.hot_peers.add(node, n)
            self._window(t).peers.add(node, n)

    def record_link(self, t: float, src: int, dst: int, nbytes: float) -> None:
        """Attribute ``nbytes`` to the directed link ``src -> dst``."""
        n = int(nbytes)
        if n:
            key = (int(src), int(dst))
            self.hot_links.add(key, n)
            self._window(t).links.add(key, n)

    def record_confirmation(
        self, t: float, requester: int, target: int, nbytes: float
    ) -> None:
        """One content-confirmation exchange ``requester -> target``."""
        self._window(t).confirmations += 1
        self.record_peer_bytes(t, target, nbytes)
        self.record_link(t, requester, target, nbytes)

    def record_delivery(
        self, t: float, source: int, nbytes: float, messages: int
    ) -> None:
        """One ad delivery originating at ``source`` (flood or walk batch)."""
        self._window(t).deliveries += 1
        self.delivery_bytes.add(nbytes)
        self.record_peer_bytes(t, source, nbytes)

    def record_ads_request(self, t: float, node: int, nbytes: float) -> None:
        """One ads-request/reply exchange served by ``node``."""
        self._window(t).ads_requests += 1
        self.record_peer_bytes(t, node, nbytes)

    def record_repair(self, t: float, source: int, nbytes: float) -> None:
        """One cache-repair exchange served by ``source``."""
        self._window(t).repairs += 1
        self.record_peer_bytes(t, source, nbytes)

    def record_churn(self, t: float, joined: bool) -> None:
        win = self._window(t)
        if joined:
            win.joins += 1
        else:
            win.leaves += 1

    # --------------------------------------------------------------- summary
    def summary(
        self,
        ledger: Optional[Any] = None,
        live_counts: Optional[Sequence[int]] = None,
        t_start: int = 0,
        t_end: Optional[int] = None,
        load_categories: Optional[Iterable[Any]] = None,
    ) -> Dict[str, Any]:
        """Freeze into a mergeable summary document (plain JSON data).

        ``ledger`` supplies the exact per-category byte/message series: its
        per-second bytes (:meth:`BandwidthLedger.per_second`) are summed
        into windows here, so the inline hook sites never double-account
        bytes.  ``live_counts`` (live peers per second, indexed from
        ``t_start``) enables the per-node-per-second normalisation of the
        paper's Figures 8/9.
        """
        windows: Dict[int, Dict[str, Any]] = {}
        for w in sorted(self._windows):
            s = self._windows[w]
            windows[w] = {
                "queries": s.queries,
                "hits": s.hits,
                "local_hits": s.local_hits,
                "deliveries": s.deliveries,
                "joins": s.joins,
                "leaves": s.leaves,
                "repairs": s.repairs,
                "ads_requests": s.ads_requests,
                "confirmations": s.confirmations,
                "engine_events": s.engine_events,
                "bytes": {},
                "messages": 0,
                "load_bytes": 0.0,
                "live_node_seconds": 0,
                "top_peers": s.peers.state_dict(),
                "top_links": s.links.state_dict(),
            }
        if ledger is not None:
            load_cats = frozenset(load_categories) if load_categories else frozenset()
            for cat, per_second in ledger.per_second().items():
                sums: Dict[int, float] = {}
                for second, nbytes in enumerate(per_second.tolist()):
                    if nbytes:
                        w = int(second // WINDOW_S)
                        sums[w] = sums.get(w, 0.0) + nbytes
                for w, nbytes in sums.items():
                    win = windows.get(w)
                    if win is None:
                        win = windows[w] = _empty_window()
                    win["bytes"][cat.value] = nbytes
                    if cat in load_cats:
                        win["load_bytes"] += nbytes
        if live_counts is not None and t_end is not None:
            for second in range(t_start, t_end):
                w = int(second // WINDOW_S)
                win = windows.get(w)
                if win is not None:
                    win["live_node_seconds"] += int(live_counts[second - t_start])
        per_peer = LogBucketSketch(GAMMA)
        for node in sorted(self._peer_bytes):
            per_peer.add(self._peer_bytes[node])
        totals: Dict[str, Any] = {
            "engine_events": self.engine_events,
            "queries": sum(w["queries"] for w in windows.values()),
            "hits": sum(w["hits"] for w in windows.values()),
            "deliveries": sum(w["deliveries"] for w in windows.values()),
            "joins": sum(w["joins"] for w in windows.values()),
            "leaves": sum(w["leaves"] for w in windows.values()),
            "attributed_peers": len(self._peer_bytes),
        }
        if ledger is not None:
            totals["bytes"] = {
                cat.value: float(v) for cat, v in sorted(
                    ledger.category_totals().items(), key=lambda kv: kv[0].value
                )
            }
            totals["messages"] = int(ledger.total_messages())
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "window_s": WINDOW_S,
            "cells": 1,
            "labels": [],
            "totals": totals,
            "windows": {str(w): windows[w] for w in sorted(windows)},
            "response_time_ms": self.response_time_ms.to_dict(),
            "query_cost_bytes": self.query_cost_bytes.to_dict(),
            "delivery_bytes": self.delivery_bytes.to_dict(),
            "per_peer_bytes": per_peer.to_dict(),
            "hot_peers": self.hot_peers.to_dict(),
            "hot_links": self.hot_links.to_dict(),
        }


def _empty_window() -> Dict[str, Any]:
    empty_hh = {"capacity": WINDOW_HH_CAPACITY, "floor": 0, "counts": {}, "errors": {}}
    return {
        "queries": 0, "hits": 0, "local_hits": 0, "deliveries": 0,
        "joins": 0, "leaves": 0, "repairs": 0, "ads_requests": 0,
        "confirmations": 0, "engine_events": 0, "bytes": {}, "messages": 0,
        "load_bytes": 0.0, "live_node_seconds": 0,
        "top_peers": dict(empty_hh, counts={}, errors={}),
        "top_links": dict(empty_hh, counts={}, errors={}),
    }


# ------------------------------------------------- summary documents
def fingerprint(doc: Dict[str, Any]) -> str:
    """blake2b over the canonical JSON form of a summary document."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return blake2b(payload.encode(), digest_size=16).hexdigest()


def merge(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Fold summary document ``b`` into ``a``: a new document, which may
    share values only one side holds with that side; neither input is
    modified.

    One rule set serves telemetry and probe summaries: ``schema``,
    ``window_s`` and ``interval_s`` must match; labels concatenate; probe
    ticks align by ``t``; sketches merge as sketches and heavy-hitter
    states as Space-Saving; flags AND; ``t`` and ``*_ceiling`` keep the
    left value, ``max`` / ``min`` fields take the extreme; every other
    number adds.  Associative under an input-order fold.
    """
    return _fold("", a, b)


_MUST_MATCH = ("schema", "window_s", "interval_s")


def _fold(key: str, a: Any, b: Any) -> Any:
    if key in _MUST_MATCH:
        if a != b:
            raise ValueError(f"cannot merge summaries: {key} {a!r} != {b!r}")
        return a
    if key == "labels":
        return a + b
    if key == "ticks":
        by_t = {tick["t"]: tick for tick in a}
        for tick in b:
            t = tick["t"]
            by_t[t] = _fold("", by_t[t], tick) if t in by_t else tick
        return [by_t[t] for t in sorted(by_t)]
    if isinstance(a, dict):
        if "buckets" in a:  # LogBucketSketch.to_dict()
            sketch = LogBucketSketch.from_dict(a)
            sketch.merge(LogBucketSketch.from_dict(b))
            return sketch.to_dict()
        if "floor" in a:  # SpaceSaving.to_dict() or .state_dict()
            hh = SpaceSaving.from_state_dict(a)
            hh.merge(SpaceSaving.from_state_dict(b))
            return hh.to_dict() if "top" in a else hh.state_dict()
        return {
            k: _fold(k, a[k], b[k]) if k in a and k in b else a.get(k, b.get(k))
            for k in {**a, **b}
        }
    if isinstance(a, bool):
        return a and b
    if key == "t" or key.endswith("_ceiling"):
        return a
    if key == "max" or key.endswith("_max"):
        return max(a, b)
    if key == "min" or key.endswith("_min"):
        return min(a, b)
    return a + b


def merge_summaries(
    docs: Iterable[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Fold summary documents left-to-right (input order -- the
    determinism contract), skipping ``None``; an empty input yields
    ``None`` (the merge identity)."""
    merged: Optional[Dict[str, Any]] = None
    for doc in docs:
        if doc is not None:
            merged = doc if merged is None else merge(merged, doc)
    return merged


# ------------------------------------------- telemetry renderers
def _window_rows(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-window rows (ascending), with per-node-per-second load."""
    rows = []
    for w in sorted(doc["windows"], key=int):
        win = doc["windows"][w]
        nodesec = win["live_node_seconds"]
        peers = SpaceSaving.from_state_dict(win["top_peers"])
        rows.append(
            {
                "t_start": int(w) * doc["window_s"],
                "load_bytes": win["load_bytes"],
                "load_bpns": win["load_bytes"] / nodesec if nodesec else None,
                "queries": win["queries"],
                "hits": win["hits"],
                "deliveries": win["deliveries"],
                "churn": win["joins"] + win["leaves"],
                "top_peers": [k for k, _, _ in peers.top(3)],
            }
        )
    return rows


def format_window_table(doc: Dict[str, Any], max_rows: Optional[int] = None) -> str:
    """A Fig-9-style per-window load table (text)."""
    rows = [r for r in _window_rows(doc) if r["load_bytes"] > 0 or r["queries"] > 0]
    if max_rows is not None and len(rows) > max_rows:
        rows = rows[:: math.ceil(len(rows) / max_rows)]
    lines = [
        f"{'t[s]':>8}  {'load[B]':>12}  {'B/node/s':>9}  {'queries':>7}  "
        f"{'hits':>5}  {'ads':>5}  {'churn':>5}  hottest peers"
    ]
    for r in rows:
        bpns = f"{r['load_bpns']:.1f}" if r["load_bpns"] is not None else "-"
        lines.append(
            f"{r['t_start']:>8.0f}  {r['load_bytes']:>12.0f}  {bpns:>9}  "
            f"{r['queries']:>7}  {r['hits']:>5}  {r['deliveries']:>5}  "
            f"{r['churn']:>5}  {','.join(r['top_peers']) or '-'}"
        )
    return "\n".join(lines)


def format_hotspots(doc: Dict[str, Any], n: Optional[int] = None) -> str:
    """Top-K hottest peers and links over the whole run (text)."""
    n = n or TOP_K
    lines = []
    for kind in ("peer", "link"):
        lines.append(f"hottest {kind}s (bytes attributed):")
        for key, count, err in doc[f"hot_{kind}s"]["top"][:n]:
            suffix = f" (±{err})" if err else ""
            lines.append(f"  {kind} {key:>12}  {count:>12}{suffix}")
    return "\n".join(lines)


def format_sketches(doc: Dict[str, Any]) -> str:
    """Count, mean and p50 / p90 / p99 of the four quantile sketches
    (text); the full sketches are in the document."""
    lines = [
        f"{'sketch':<18}  {'count':>8}  {'mean':>12}  {'p50':>12}  "
        f"{'p90':>12}  {'p99':>12}"
    ]
    for name in (
        "response_time_ms", "query_cost_bytes", "delivery_bytes", "per_peer_bytes"
    ):
        digest = LogBucketSketch.from_dict(doc[name]).summary_dict()
        cells = [
            "-" if digest[key] is None else f"{digest[key]:.1f}"
            for key in ("mean", "p50", "p90", "p99")
        ]
        lines.append(
            f"{name:<18}  {digest['count']:>8}  "
            + "  ".join(f"{cell:>12}" for cell in cells)
        )
    return "\n".join(lines)


def load_std_bpns(doc: Dict[str, Any]) -> float:
    """Std dev of per-window load per live node-second (Fig. 9 metric)."""
    vals = [r["load_bpns"] for r in _window_rows(doc) if r["load_bpns"] is not None]
    if not vals:
        return math.nan
    mean = sum(vals) / len(vals)
    return math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
