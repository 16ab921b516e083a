"""Protocol-state probes: periodic vectorized snapshots of ASAP state.

The tracing/telemetry layers watch the *event stream*; this module watches
the *state*.  A :class:`ProbeRecorder` wakes up every ``interval_s``
simulated seconds and reduces the algorithm's live structures -- the dense
peer x source :class:`~repro.asap.state.AdsState` and the
:class:`~repro.asap.store.SourceFilterStore` -- into one deterministic
snapshot per tick:

* **coverage** -- per advertised sharer, how many nodes hold its ad
  (replication factor) and what fraction of its live, interested audience
  is covered (the paper's pre-positioning claim, Section III);
* **staleness** -- the distribution of ad ages (``now - cached_at``) and
  of version lag over ``behind`` entries;
* **bloom** -- the measured filter fill and the false-positive probability
  it implies, against the paper's ``(1/2)^k`` ceiling (Section III-B);
* **occupancy** -- per-node cache occupancy and eviction pressure
  (nodes pinned at capacity);
* **backend** -- ads-state size / occupancy-counter health and engine
  gauges (live and raw queue depth, events processed).

Each of the five distributions (occupancy, replication, covered fraction,
age, version lag) is an exact :func:`~repro.obs.telemetry.digest`:
``{count, total, min, max, p50, p90, p99}`` of the sorted values.

Determinism contract.  Snapshots are read-only, consume no randomness, and
schedule exactly zero events when probing is off, so enabling probes never
changes a run's results.  A digest sorts its values before it sums them,
so a snapshot depends only on the multiset of cached entries, never on
their storage order; ``tests/test_obs_probes.py`` checks it against a
plain per-repository loop.  A cell's summary is a JSON document
(:meth:`ProbeRecorder.summary`); a run of several cells reports the list
of their documents in input order, so ``--jobs N`` output is
bit-identical to serial.

Usage::

    (result,) = run_cells([config], probes=True)
    format_state_table(result.probes)       # Fig-style coverage/staleness
    state_fingerprint(result.probes)        # baseline-able identity

or via the CLIs: ``runall --probes`` / ``report run --probes``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.telemetry import digest, fingerprint

__all__ = [
    "PROBE_SCHEMA_VERSION",
    "ProbeRecorder",
    "format_state_table",
    "headline",
    "snapshot_backend",
    "snapshot_state",
    "state_fingerprint",
]

#: Bump when the snapshot/summary JSON shape changes.
PROBE_SCHEMA_VERSION = 2


def _is_asap(algorithm) -> bool:
    return hasattr(algorithm, "state") and hasattr(algorithm, "store")


def snapshot_state(algorithm, now: float) -> Dict[str, Any]:
    """One protocol-state snapshot at simulated time ``now``.

    Non-ASAP algorithms get the overlay gauges only (they keep no ad
    state).
    """
    overlay = algorithm.overlay
    state: Dict[str, Any] = {
        "t": float(now),
        "nodes": int(overlay.n),
        "live": int(overlay.live_count()),
    }
    if not _is_asap(algorithm):
        return state

    store = algorithm.store
    n = int(overlay.n)
    live_mask = overlay.live_mask
    cache = algorithm.state
    held = cache.held_mask()

    # --- per-entry series.
    ages = cache.ages(now)
    entries_total = int(ages.size)

    # --- staleness: behind counts + version lag over behind entries.
    peers, sources = np.nonzero(cache.behind_mask())
    lag = store._version[sources] - cache.versions(peers, sources)
    lags = lag[lag > 0].astype(np.float64)

    # --- occupancy / eviction pressure.
    occupancy = cache.occupancy
    capacity = cache.capacity
    at_capacity = (
        int(np.count_nonzero(occupancy >= capacity)) if capacity else 0
    )

    # --- coverage: replication factor + live-audience coverage per
    # advertised sharer.  Sources are grouped by topic set -- topic
    # populations are tiny -- so each group shares one audience mask and
    # its holder counts are column sums.
    sources_n = audience_total = covered_total = holders_total = 0
    replication: List[float] = []
    fractions: List[float] = []
    groups: Dict[frozenset, List[int]] = {}
    for source in np.flatnonzero(algorithm._advertised).tolist():
        if not store.is_sharer(source):
            continue
        topics = store.topics(source)
        if topics:
            groups.setdefault(topics, []).append(source)
    for topics, members in groups.items():
        amask = algorithm.interests.mask_for(topics) & live_mask
        m_arr = np.asarray(members, dtype=np.int64)
        columns = held[:, m_arr]
        holders_vec = columns.sum(axis=0)
        covered_vec = columns[amask].sum(axis=0)
        audience_vec = np.count_nonzero(amask) - amask[m_arr].astype(np.int64)
        sources_n += len(members)
        audience_total += int(audience_vec.sum())
        holders_total += int(holders_vec.sum())
        covered_total += int(covered_vec.sum())
        replication.extend(holders_vec.astype(np.float64).tolist())
        pos = audience_vec > 0
        fractions.extend((covered_vec[pos] / audience_vec[pos]).tolist())

    # --- bloom: filter fill and the FP probability it implies, computed
    # over the shared FilterMatrix counters.
    from repro.bloom.hashing import min_false_positive_rate

    m = float(store.hasher.m)
    k = store.hasher.k
    n_set = store._n_set
    fills = n_set[n_set > 0] / m
    fp = fills ** float(k)

    state.update(
        {
            "entries": entries_total,
            "occupancy": {
                "total": int(occupancy.sum()),
                "max": int(occupancy.max()) if n else 0,
                "at_capacity": at_capacity,
                "per_node": digest(occupancy),
            },
            "coverage": {
                "sources": sources_n,
                "audience": audience_total,
                "covered": covered_total,
                "holders": holders_total,
                "replication": digest(replication),
                "fraction": digest(fractions),
            },
            "staleness": {
                "behind": int(peers.size),
                "age_s": digest(ages),
                "version_lag": digest(lags),
            },
            "bloom": {
                "sharers": int(fills.size),
                "fill_sum": float(fills.sum()),
                "fp_sum": float(fp.sum()),
                "fp_max": float(fp.max()) if fp.size else 0.0,
                "fp_ceiling": min_false_positive_rate(k),
            },
        }
    )
    return state


def snapshot_backend(algorithm, engine=None) -> Dict[str, Any]:
    """Backend/introspection gauges: ads-state size + engine queue state.

    Kept apart from the protocol-state section: these describe how the
    state is stored and scheduled, not what it is.
    """
    backend: Dict[str, Any] = {}
    if _is_asap(algorithm):
        cache = algorithm.state
        stats = dict(cache.stats())
        stats["slot_index_consistent"] = bool(
            stats["rows_live"] == np.count_nonzero(cache.held_mask())
        )
        backend["arena"] = stats
    if engine is not None:
        backend["engine"] = {
            "pending_live": int(engine.pending_live),
            "pending_events": int(engine.pending_events),
            "events_processed": int(engine.events_processed),
        }
    return backend


# ------------------------------------------------------------- renderers
def state_fingerprint(doc: Dict[str, Any]) -> str:
    """Identity of a probe summary's protocol-state series only.

    Excludes the label and the backend gauges, so it depends on what the
    caches hold at each tick and not on how the state is stored.
    """
    return fingerprint({
        **{k: v for k, v in doc.items() if k != "label"},
        "ticks": [
            {k: v for k, v in tick.items() if k != "backend"} for tick in doc["ticks"]
        ],
    })


def _state_ticks(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [tick for tick in doc["ticks"] if "coverage" in tick]


def headline(doc: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Scalars from the final tick (the warmed-up steady state)."""
    out: Dict[str, Optional[float]] = {
        "ticks": float(len(doc["ticks"])),
        "coverage_fraction": None,
        "replication_p50": None,
        "age_p50_s": None,
        "age_p90_s": None,
        "fp_mean": None,
        "entries": None,
        "behind": None,
    }
    state_ticks = _state_ticks(doc)
    if not state_ticks:
        return out
    last = state_ticks[-1]
    cov = last["coverage"]
    if cov["audience"]:
        out["coverage_fraction"] = cov["covered"] / cov["audience"]
    out["replication_p50"] = cov["replication"]["p50"]
    ages = last["staleness"]["age_s"]
    out["age_p50_s"] = ages["p50"]
    out["age_p90_s"] = ages["p90"]
    bloom = last["bloom"]
    if bloom["sharers"]:
        out["fp_mean"] = bloom["fp_sum"] / bloom["sharers"]
    out["entries"] = float(last["entries"])
    out["behind"] = float(last["staleness"]["behind"])
    return out


def format_state_table(doc: Dict[str, Any], max_rows: int = 12) -> str:
    """Fig-style per-tick table: coverage, staleness, cache, bloom."""
    header = (
        f"{'t':>8} {'entries':>9} {'behind':>7} {'cover%':>7} "
        f"{'repl p50':>9} {'age p50':>8} {'age p90':>8} "
        f"{'at cap':>7} {'fp mean':>9}"
    )
    rows = _state_ticks(doc)
    if not rows:
        return header + "\n  (no ASAP state ticks recorded)"
    if len(rows) > max_rows:  # sample evenly, always keeping the last
        idx = np.linspace(0, len(rows) - 1, max_rows).round().astype(int)
        rows = [rows[i] for i in dict.fromkeys(idx.tolist())]
    lines = [header]
    for tick in rows:
        cov = tick["coverage"]
        frac = cov["covered"] / cov["audience"] if cov["audience"] else 0.0
        ages = tick["staleness"]["age_s"]
        bloom = tick["bloom"]
        fp_mean = bloom["fp_sum"] / bloom["sharers"] if bloom["sharers"] else 0.0
        p50, a50, a90 = (
            math.nan if value is None else value
            for value in (cov["replication"]["p50"], ages["p50"], ages["p90"])
        )
        lines.append(
            f"{tick['t']:>8.0f} {tick['entries']:>9d} "
            f"{tick['staleness']['behind']:>7d} {frac:>7.1%} "
            f"{p50:>9.1f} {a50:>8.1f} {a90:>8.1f} "
            f"{tick['occupancy']['at_capacity']:>7d} {fp_mean:>9.5f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------- recorder
class ProbeRecorder:
    """Schedules periodic state snapshots into a simulation engine.

    Ticks land at ``k * interval_s`` for ``k = 1, 2, ...`` up to the
    replay horizon.  The recorder is read-only and self-rescheduling: the
    next tick is only scheduled while it lies within the horizon, so a
    finished run leaves no pending probe events behind (profiles report
    the same queue depth with probes on or off).
    """

    def __init__(self, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError(f"probe interval must be positive: {interval_s}")
        self.interval_s = float(interval_s)
        self.snapshots: List[Dict[str, Any]] = []
        self._engine = None
        self._algorithm = None
        self._until = 0.0
        self._k = 0

    def attach(self, engine, algorithm, until: float) -> None:
        """Register with a run: first snapshot at ``interval_s``."""
        self._engine = engine
        self._algorithm = algorithm
        self._until = float(until)
        self._k = 0
        self._schedule_next()

    def _schedule_next(self) -> None:
        t = self.interval_s * (self._k + 1)
        if t <= self._until:
            self._engine.schedule_at(t, self._fire, name="probe")

    def _fire(self) -> None:
        self._k += 1
        now = self._engine.now
        snap = snapshot_state(self._algorithm, now)
        snap["backend"] = snapshot_backend(self._algorithm, self._engine)
        self.snapshots.append(snap)
        self._schedule_next()

    def summary(self) -> Dict[str, Any]:
        """The summary document: one cell's ticks, in time order."""
        return {
            "schema": PROBE_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "label": None,
            "ticks": list(self.snapshots),
        }
