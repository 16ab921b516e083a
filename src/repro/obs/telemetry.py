"""Load telemetry: windowed series, hot peers and links, and digests, exact.

The action log (:mod:`repro.obs.actions`) keeps *every* action as a row.
This module is the aggregated path: an opt-in :class:`Telemetry`
accumulator that the run's :class:`~repro.obs.instrument.Instrumentation`
feeds inline, action by action (engine dispatch, ad delivery,
confirmation, ads exchange, repair, churn), and that reduces, with the
run's query outcomes, into a small, deterministic JSON document
(:meth:`Telemetry.summary`):

* **time-windowed load series** -- queries, deliveries, churn and ads
  exchanges per window, plus bytes per traffic category (the Fig. 9 "load
  variation over time" view, without a JSONL trace);
* **hot peers and links** -- the :data:`TOP_K` peers and directed links
  charged the most bytes, over the whole run and per window;
* **digests** -- ``{count, total, min, max, p50, p90, p99}`` of response
  time, per-query cost, per-delivery bytes and per-peer bytes.

Every figure is an exact function of what the run charged.  Each peer
charge appends one row ``(window, node, bytes)`` to a column table of
16 bytes a row, each link charge one row ``(window, src, dst, bytes)`` to
a second, and each delivery's bytes to a third; the summary reduces the
columns with numpy.  Nothing per query is kept here: the summary reads
response times, costs and per-window query counts from the run's
outcomes and their replay times.  At the paper's 10,000 peers a cell
charges about a million peers (``flooding``) and the tables hold about
18 MB.  Per-category bytes are not charged inline at all: every byte
already lands in :class:`~repro.sim.metrics.BandwidthLedger`'s per-second
array, and the summary sums its seconds into windows.

A document describes one cell.  The peers of different seeds or overlays
are different peers, so documents are never added up: a run of several
cells reports the list of its cells' documents in input order, which is
bit-identical whether the cells ran serially or under ``run_cells --jobs
N``.  :func:`fingerprint` is blake2b over the canonical JSON form of a
document or such a list, and serves the probe documents of
:mod:`repro.obs.probes` too.
"""

from __future__ import annotations

import json
import math
from array import array
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "digest",
    "fingerprint",
    "format_digests",
    "format_hotspots",
    "format_window_table",
    "load_std_bpns",
    "quantile_nearest_rank",
]

#: Version of the :meth:`Telemetry.summary` document schema.
TELEMETRY_SCHEMA_VERSION = 2

#: Window width in simulation seconds.
WINDOW_S = 10.0
#: Hot peers / links listed, over the run and per window.
TOP_K = 8
#: The quantiles every digest reports.
QUANTILES = (0.5, 0.9, 0.99)


def quantile_nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sequence.

    The single quantile definition of :mod:`repro.obs`, shared by the
    digests and the trace auditor: rank ``ceil(q * n)`` (1-based), clamped
    to the first element for tiny ``q``.  ``sorted_values`` must be
    non-empty and sorted ascending; ``q`` in [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of empty sequence")
    idx = max(0, math.ceil(q * n) - 1)
    return float(sorted_values[idx])


def digest(values) -> Dict[str, Any]:
    """``{count, total, min, max, p50, p90, p99}`` of ``values``, exactly.

    The values are sorted once and ``total`` is summed over the sorted
    array, so the digest depends on the multiset of values only, never on
    the order they arrived in.  An empty input has ``None`` extremes and
    quantiles.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    out: Dict[str, Any] = {"count": int(ordered.size), "total": float(ordered.sum())}
    empty = ordered.size == 0
    out["min"] = None if empty else float(ordered[0])
    out["max"] = None if empty else float(ordered[-1])
    for q in QUANTILES:
        out[f"p{round(q * 100)}"] = None if empty else quantile_nearest_rank(ordered, q)
    return out


class _WindowStats:
    """Inline per-window counters (everything the ledger does not know)."""

    __slots__ = ("deliveries", "joins", "leaves", "repairs", "ads_requests",
                 "confirmations", "engine_events")

    def __init__(self) -> None:
        self.deliveries = 0
        self.joins = 0
        self.leaves = 0
        self.repairs = 0
        self.ads_requests = 0
        self.confirmations = 0
        self.engine_events = 0


def _ranked(keys: np.ndarray, sums: np.ndarray):
    """The :data:`TOP_K` keys with the most bytes, heaviest first and the
    lower key first among equals, as ``(keys, bytes)`` arrays.  Keys with
    0 bytes rank nothing."""
    order = np.lexsort((keys, -sums))[:TOP_K]
    order = order[sums[order] > 0]
    return keys[order], sums[order]


def _top(keys: np.ndarray, nbytes: np.ndarray):
    """:func:`_ranked` of the bytes of each key, summed in charge order."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return _ranked(distinct, np.bincount(inverse, weights=nbytes, minlength=distinct.size))


def _per_window(window: np.ndarray, keys: np.ndarray, nbytes: np.ndarray):
    """``window -> _top`` of the charges that fell in it, for every window
    a charge fell in."""
    order = np.argsort(window, kind="stable")  # charge order within a window
    ordered = window[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1)).tolist()
    out = {}
    for lo, hi in zip(starts, [*starts[1:], ordered.size]):
        rows = order[lo:hi]
        out[int(ordered[lo])] = _top(keys[rows], nbytes[rows])
    return out


def _rows(top, width: int = 0) -> List[List[Any]]:
    """``(keys, bytes)`` as ``[*ids, bytes]`` rows: ``[node, bytes]``, or
    ``[src, dst, bytes]`` for a link key ``src * width + dst``."""
    keys, sums = top
    return [
        [*(divmod(k, width) if width else (k,)), total]
        for k, total in zip(keys.tolist(), sums.tolist())
    ]


class Telemetry:
    """The live, mutable telemetry accumulator attached to one run.

    Attach via ``run_cells(configs, telemetry=True)`` or by hand inside an
    ``Instrumentation(telemetry=t)`` given to ``algorithm.attach`` and
    ``engine.set_observer``.  Call :meth:`summary` once the run completes to
    reduce it into a summary document.
    """

    def __init__(self) -> None:
        self._windows: Dict[int, _WindowStats] = {}
        # Peer charges: window, node, bytes (4 + 4 + 8 bytes a row).
        self._charge_window = array("i")
        self._charge_node = array("i")
        self._charge_bytes = array("d")
        # Link charges: window, src, dst, bytes.
        self._link_window = array("i")
        self._link_src = array("i")
        self._link_dst = array("i")
        self._link_bytes = array("d")
        self._delivery_bytes = array("d")
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

    def record_peer_bytes(self, t: float, node: int, nbytes: float) -> None:
        """Charge ``nbytes`` of load to ``node`` at time ``t``."""
        self._charge_window.append(int(t // WINDOW_S))
        self._charge_node.append(node)
        self._charge_bytes.append(nbytes)

    def record_link(self, t: float, src: int, dst: int, nbytes: float) -> None:
        """Charge ``nbytes`` to the directed link ``src -> dst``."""
        self._link_window.append(int(t // WINDOW_S))
        self._link_src.append(src)
        self._link_dst.append(dst)
        self._link_bytes.append(nbytes)

    def record_confirmation(
        self, t: float, requester: int, target: int, nbytes: float
    ) -> None:
        """One content-confirmation exchange ``requester -> target``."""
        self._window(t).confirmations += 1
        self.record_peer_bytes(t, target, nbytes)
        self.record_link(t, requester, target, nbytes)

    def record_delivery(self, t: float, source: int, nbytes: float) -> None:
        """One ad delivery originating at ``source`` (flood or walk batch)."""
        self._window(t).deliveries += 1
        self._delivery_bytes.append(nbytes)
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
        outcomes: Sequence[Any] = (),
        query_times: Sequence[float] = (),
    ) -> Dict[str, Any]:
        """Reduce the run into a summary document (plain JSON data).

        ``outcomes`` are the run's search outcomes and ``query_times`` the
        simulation times they were issued at: each window counts its
        queries, hits and local hits from them, and the response-time
        (non-local hits) and query-cost digests read them.

        ``ledger`` supplies the exact per-category byte/message series: its
        per-second bytes (:meth:`BandwidthLedger.per_second`) are summed
        into windows here, so the inline hook sites never double-account
        bytes.  ``live_counts`` (live peers per second, indexed from
        ``t_start``) enables the per-node-per-second normalisation of the
        paper's Figures 8/9.
        """
        peer_window = np.frombuffer(self._charge_window, dtype=np.int32)
        peer_node = np.frombuffer(self._charge_node, dtype=np.int32)
        peer_bytes = np.frombuffer(self._charge_bytes, dtype=np.float64)
        per_peer = np.bincount(peer_node, weights=peer_bytes)
        attributed = np.bincount(peer_node) > 0
        hot_peers = _rows(_ranked(np.arange(per_peer.size), per_peer))
        top_peers = {
            w: _rows(top) for w, top in _per_window(peer_window, peer_node, peer_bytes).items()
        }
        link_window = np.frombuffer(self._link_window, dtype=np.int32)
        src, dst = (
            np.frombuffer(column, dtype=np.int32).astype(np.int64)
            for column in (self._link_src, self._link_dst)
        )
        width = int(max(src.max(), dst.max())) + 1 if src.size else 1
        link_key = src * width + dst
        link_bytes = np.frombuffer(self._link_bytes, dtype=np.float64)
        hot_links = _rows(_top(link_key, link_bytes), width)
        top_links = {
            w: _rows(top, width)
            for w, top in _per_window(link_window, link_key, link_bytes).items()
        }
        # A window exists once something happened in it: a counter moved,
        # bytes were charged, or (below) the ledger booked bytes.
        live = set(self._windows) | {int(t // WINDOW_S) for t in query_times} | {
            w for tops in (top_peers, top_links) for w, top in tops.items() if top
        }
        windows = {
            w: _window_doc(
                self._windows.get(w) or _WindowStats(),
                top_peers.get(w, []),
                top_links.get(w, []),
            )
            for w in sorted(live)
        }
        for t, outcome in zip(query_times, outcomes):
            win = windows[int(t // WINDOW_S)]
            win["queries"] += 1
            win["hits"] += outcome.success
            win["local_hits"] += outcome.success and outcome.local_hit
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
                        win = windows[w] = _window_doc(_WindowStats(), [], [])
                    win["bytes"][cat.value] = nbytes
                    if cat in load_cats:
                        win["load_bytes"] += nbytes
        if live_counts is not None and t_end is not None:
            for second in range(t_start, t_end):
                w = int(second // WINDOW_S)
                win = windows.get(w)
                if win is not None:
                    win["live_node_seconds"] += int(live_counts[second - t_start])
        totals: Dict[str, Any] = {
            "engine_events": self.engine_events,
            "queries": sum(w["queries"] for w in windows.values()),
            "hits": sum(w["hits"] for w in windows.values()),
            "deliveries": sum(w["deliveries"] for w in windows.values()),
            "joins": sum(w["joins"] for w in windows.values()),
            "leaves": sum(w["leaves"] for w in windows.values()),
            "attributed_peers": int(np.count_nonzero(attributed)),
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
            "label": None,
            "totals": totals,
            "windows": {str(w): windows[w] for w in sorted(windows)},
            "response_time_ms": digest([
                o.response_time_ms for o in outcomes if o.success and not o.local_hit
            ]),
            "query_cost_bytes": digest([o.cost_bytes for o in outcomes]),
            "delivery_bytes": digest(self._delivery_bytes),
            "per_peer_bytes": digest(per_peer[attributed]),
            "hot_peers": hot_peers,
            "hot_links": hot_links,
        }


def _window_doc(
    stats: _WindowStats, top_peers: List[List[Any]], top_links: List[List[Any]]
) -> Dict[str, Any]:
    """One window of a summary document, before its queries, the ledger's
    bytes and the live node-seconds are added in."""
    return {
        "queries": 0, "hits": 0, "local_hits": 0,
        **{name: getattr(stats, name) for name in _WindowStats.__slots__},
        "bytes": {}, "load_bytes": 0.0, "live_node_seconds": 0,
        "top_peers": top_peers, "top_links": top_links,
    }


# ------------------------------------------------- summary documents
def fingerprint(doc: Any) -> str:
    """blake2b over the canonical JSON form of a summary document, or of
    a list of them."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return blake2b(payload.encode(), digest_size=16).hexdigest()


# ------------------------------------------- telemetry renderers
def _window_rows(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-window rows (ascending), with per-node-per-second load."""
    rows = []
    for w in sorted(doc["windows"], key=int):
        win = doc["windows"][w]
        nodesec = win["live_node_seconds"]
        rows.append(
            {
                "t_start": int(w) * doc["window_s"],
                "load_bytes": win["load_bytes"],
                "load_bpns": win["load_bytes"] / nodesec if nodesec else None,
                "queries": win["queries"],
                "hits": win["hits"],
                "deliveries": win["deliveries"],
                "churn": win["joins"] + win["leaves"],
                "top_peers": [str(node) for node, _ in win["top_peers"][:3]],
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
    """The hottest peers and links over the whole run (text)."""
    n = n or TOP_K
    lines = []
    for kind in ("peer", "link"):
        lines.append(f"hottest {kind}s (bytes charged):")
        for *key, nbytes in doc[f"hot_{kind}s"][:n]:
            name = "->".join(map(str, key))
            lines.append(f"  {kind} {name:>12}  {nbytes:>12.0f}")
    return "\n".join(lines)


def format_digests(doc: Dict[str, Any]) -> str:
    """Count, mean and p50 / p90 / p99 of the four digests (text)."""
    lines = [
        f"{'digest':<18}  {'count':>8}  {'mean':>12}  {'p50':>12}  "
        f"{'p90':>12}  {'p99':>12}"
    ]
    for name in (
        "response_time_ms", "query_cost_bytes", "delivery_bytes", "per_peer_bytes"
    ):
        d = doc[name]
        mean = d["total"] / d["count"] if d["count"] else None
        cells = [
            "-" if value is None else f"{value:.1f}"
            for value in (mean, d["p50"], d["p90"], d["p99"])
        ]
        lines.append(
            f"{name:<18}  {d['count']:>8}  "
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
