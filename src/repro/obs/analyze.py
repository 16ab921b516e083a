"""Causal trace analysis: reconstruct lifecycles from a JSONL trace.

The tracer (:mod:`repro.obs.trace`) writes flat records; this module turns
them back into the causal stories a run is made of:

* **query lifecycles** -- one per ``query`` span: requester, resolution
  (hit / local hit / miss), hop (message) count, per-category ledger
  movement, and the confirmation accounting ASAP nests inside the span;
* **ad lifecycles** -- deliveries (full / patch / refresh, with the
  effective walk budget), unicast repairs, and ads-request exchanges;
* **churn epochs** -- join/leave events with the live-count series the
  runner annotated them with.

Everything here is derived *purely from the trace* -- no simulator state,
no numpy -- so ``python -m repro.obs.report analyze`` works on a trace
file alone.  The per-category byte attribution
(:func:`trace_category_bytes`) is shared with :mod:`repro.obs.audit`,
whose conservation invariant compares it against the
:class:`~repro.sim.metrics.BandwidthLedger` totals.

Attribution rules (matching the instrumentation sites):

* a ``query`` span carries ``ledger_delta`` -- the exact per-category
  byte movement of that search, covering nested ads requests, repairs and
  confirmations, so nested ``ad`` events are *not* counted again;
* a top-level ``deliver.*`` event's bytes belong to its ad type's
  category (full -> ``full_ad``, patch -> ``patch_ad``,
  refresh -> ``refresh_ad``);
* a top-level ``repair`` event splits into ``ads_request`` bytes plus a
  reply in ``reply_category``;
* a top-level ``ads_request`` event splits into ``ads_request`` and
  ``ads_reply`` bytes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.telemetry import quantile_nearest_rank
from repro.obs.trace import TraceRecord

__all__ = [
    "AdDelivery",
    "AdsExchange",
    "ChurnEvent",
    "QueryLifecycle",
    "TraceAnalysis",
    "analyze_trace",
    "trace_category_bytes",
]

#: Ad type (``Ad.ad_type.value``) -> ledger category (``TrafficCategory.value``).
AD_TYPE_CATEGORY = {
    "full": "full_ad",
    "patch": "patch_ad",
    "refresh": "refresh_ad",
}


@dataclass(frozen=True)
class QueryLifecycle:
    """One search request reconstructed from its ``query`` span."""

    span_id: int
    algorithm: str  # span name: the algorithm's display name
    t: float
    requester: int
    success: bool
    local_hit: bool
    messages: int
    cost_bytes: float
    results: int
    response_time_ms: Optional[float]
    ledger_delta: Dict[str, float] = field(default_factory=dict)
    confirm_stats: Optional[Dict[str, int]] = None

    @property
    def resolution(self) -> str:
        """``local`` | ``hit`` | ``miss``."""
        if self.local_hit:
            return "local"
        return "hit" if self.success else "miss"


@dataclass(frozen=True)
class AdDelivery:
    """One ad dissemination (a ``deliver.*`` event)."""

    t: float
    scheme: str  # fld | rw | gsa | base
    source: int
    ad_type: str  # full | patch | refresh
    topics: int
    visited: int
    messages: int
    bytes: float
    budget: Optional[int]  # effective message cap (walk schemes only)
    top_level: bool


@dataclass(frozen=True)
class AdsExchange:
    """A ``repair`` or ``ads_request`` event (cache anti-entropy traffic)."""

    t: float
    kind: str  # "repair" | "ads_request"
    node: int
    request_bytes: float
    reply_bytes: float
    reply_category: Optional[str]  # repairs only
    top_level: bool


@dataclass(frozen=True)
class ChurnEvent:
    """A ``join`` / ``leave`` / ``content_add`` / ``content_remove`` event."""

    t: float
    kind: str
    node: int
    live: Optional[int]  # live count after the event (join/leave only)


def _stats(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "max": 0.0}
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": quantile_nearest_rank(ordered, 0.50),
        "p90": quantile_nearest_rank(ordered, 0.90),
        "max": float(ordered[-1]),
    }


@dataclass
class TraceAnalysis:
    """The reconstructed lifecycles of one run, with summary reducers."""

    queries: List[QueryLifecycle] = field(default_factory=list)
    deliveries: List[AdDelivery] = field(default_factory=list)
    exchanges: List[AdsExchange] = field(default_factory=list)
    churn: List[ChurnEvent] = field(default_factory=list)
    schema_versions: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------- reducers
    def hop_distribution(self) -> Dict[str, float]:
        """Message-count (hop) statistics over all queries."""
        return _stats([float(q.messages) for q in self.queries])

    def resolution_counts(self) -> Dict[str, int]:
        out = {"hit": 0, "local": 0, "miss": 0}
        for q in self.queries:
            out[q.resolution] += 1
        return out

    def response_time_stats(self) -> Dict[str, float]:
        return _stats(
            [q.response_time_ms for q in self.queries
             if q.success and q.response_time_ms is not None]
        )

    def category_bytes(self) -> Dict[str, float]:
        """Per-category byte totals derived purely from the trace."""
        return trace_category_bytes(
            self.queries, (d for d in self.deliveries if d.top_level),
            (e for e in self.exchanges if e.top_level),
        )

    def ad_staleness_windows(self) -> Dict[str, float]:
        """Gaps between successive deliveries of the same source's ad.

        The gap bounds how stale a cached copy can be before the next
        full/patch/refresh reaches (or repairs toward) its consumers --
        the trace-level view of ASAP's freshness/overhead trade-off.
        """
        by_source: Dict[int, List[float]] = defaultdict(list)
        for d in self.deliveries:
            by_source[d.source].append(d.t)
        gaps: List[float] = []
        for times in by_source.values():
            times.sort()
            gaps.extend(b - a for a, b in zip(times, times[1:]))
        return _stats(gaps)

    def confirm_totals(self) -> Dict[str, int]:
        """Summed confirmation accounting across all queries (ASAP runs)."""
        totals: Dict[str, int] = defaultdict(int)
        for q in self.queries:
            for key, value in (q.confirm_stats or {}).items():
                totals[key] += value
        return dict(totals)

    def churn_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for ev in self.churn:
            out[ev.kind] += 1
        return dict(out)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready summary ``report analyze`` emits."""
        return {
            "queries": len(self.queries),
            "resolution": self.resolution_counts(),
            "hops": self.hop_distribution(),
            "response_time_ms": self.response_time_stats(),
            "category_bytes": self.category_bytes(),
            "deliveries": {
                "count": len(self.deliveries),
                "by_type": {
                    ad_type: sum(
                        1 for d in self.deliveries if d.ad_type == ad_type
                    )
                    for ad_type in ("full", "patch", "refresh")
                },
                "staleness_window_s": self.ad_staleness_windows(),
            },
            "exchanges": {
                "repairs": sum(1 for e in self.exchanges if e.kind == "repair"),
                "ads_requests": sum(
                    1 for e in self.exchanges if e.kind == "ads_request"
                ),
            },
            "confirmations": self.confirm_totals(),
            "churn": self.churn_counts(),
            "schema_versions": {
                str(k): v for k, v in sorted(self.schema_versions.items())
            },
        }


def trace_category_bytes(
    queries: Iterable[QueryLifecycle],
    top_level_deliveries: Iterable[AdDelivery],
    top_level_exchanges: Iterable[AdsExchange],
) -> Dict[str, float]:
    """Per-category byte totals from query deltas + top-level ad events.

    Nested ad events are excluded by construction (their bytes already
    live in the enclosing query span's ``ledger_delta``).
    """
    totals: Dict[str, float] = defaultdict(float)
    for q in queries:
        for cat, delta in q.ledger_delta.items():
            totals[cat] += delta
    for d in top_level_deliveries:
        totals[AD_TYPE_CATEGORY[d.ad_type]] += d.bytes
    for e in top_level_exchanges:
        totals["ads_request"] += e.request_bytes
        if e.kind == "ads_request":
            totals["ads_reply"] += e.reply_bytes
        elif e.reply_category is not None:
            totals[e.reply_category] += e.reply_bytes
    return dict(totals)


def analyze_trace(records: Iterable[TraceRecord]) -> TraceAnalysis:
    """Reconstruct lifecycles from trace records (any order-preserved source)."""
    analysis = TraceAnalysis()
    # confirm_stats events arrive *before* their enclosing query span's
    # record (spans emit on close), so collect them by parent id first.
    confirm_by_parent: Dict[int, Dict[str, int]] = {}
    pending: List[TraceRecord] = []
    for r in records:
        analysis.schema_versions[r.schema] = (
            analysis.schema_versions.get(r.schema, 0) + 1
        )
        if r.category == "query" and r.kind == "event" and r.name == "confirm_stats":
            if r.parent is not None:
                confirm_by_parent[r.parent] = dict(r.attrs)
            continue
        pending.append(r)

    for r in pending:
        if r.category == "query" and r.kind == "span":
            a = r.attrs
            analysis.queries.append(
                QueryLifecycle(
                    span_id=r.id,
                    algorithm=r.name,
                    t=r.t,
                    requester=int(a.get("requester", -1)),
                    success=bool(a.get("success", False)),
                    local_hit=bool(a.get("local_hit", False)),
                    messages=int(a.get("messages", 0)),
                    cost_bytes=float(a.get("cost_bytes", 0.0)),
                    results=int(a.get("results", 0)),
                    response_time_ms=a.get("response_time_ms"),
                    ledger_delta=dict(a.get("ledger_delta") or {}),
                    confirm_stats=confirm_by_parent.get(r.id),
                )
            )
        elif r.category == "ad" and r.name.startswith("deliver."):
            a = r.attrs
            analysis.deliveries.append(
                AdDelivery(
                    t=r.t,
                    scheme=r.name.split(".", 1)[1],
                    source=int(a.get("source", -1)),
                    ad_type=a.get("ad_type", "full"),
                    topics=int(a.get("topics", 0)),
                    visited=int(a.get("visited", 0)),
                    messages=int(a.get("messages", 0)),
                    bytes=float(a.get("bytes", 0.0)),
                    budget=a.get("budget"),
                    top_level=r.parent is None,
                )
            )
        elif r.category == "ad" and r.name in ("repair", "ads_request"):
            a = r.attrs
            analysis.exchanges.append(
                AdsExchange(
                    t=r.t,
                    kind=r.name,
                    node=int(a.get("node", -1)),
                    request_bytes=float(a.get("request_bytes", 0.0)),
                    reply_bytes=float(a.get("reply_bytes", 0.0)),
                    reply_category=a.get("reply_category"),
                    top_level=r.parent is None,
                )
            )
        elif r.category == "churn":
            a = r.attrs
            analysis.churn.append(
                ChurnEvent(
                    t=r.t,
                    kind=r.name,
                    node=int(a.get("node", -1)),
                    live=a.get("live"),
                )
            )
    return analysis
