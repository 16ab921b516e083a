"""Protocol-state probes: determinism, digests, per-cell documents, ads-state health.

The probe layer's contract (ISSUE 10) is determinism across everything
that should not matter:

* the **storage layout** -- every protocol-state series equals a plain
  per-repository loop over the cached entries;
* the **execution mode** -- serial vs ``jobs=2`` sweeps list
  bit-identical documents (full ``fingerprint``, backend included);
* the **probes themselves** -- enabling them never changes the run's
  results (outcomes, ledger, audit fingerprint).

Plus the invariants the dense ads state can still break, audited under
churn + capped caches: occupancy counters == held counts, a recency stamp
exactly where there is an entry, caches within capacity, nobody caching
itself.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.obs.probes import (
    PROBE_SCHEMA_VERSION,
    ProbeRecorder,
    format_state_table,
    headline,
    snapshot_state,
    state_fingerprint,
)
from repro.obs.telemetry import digest, fingerprint
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment

from tests.oracles.repository import StateRow
from tests.oracles.state import check_arena_health


def _config(algorithm="asap_rw", n_peers=200, n_queries=300, seed=0, **kw):
    cfg = scaled_config(
        algorithm,
        "crawled",
        n_peers=n_peers,
        n_queries=n_queries,
        seed=seed,
        use_physical_network=False,
    )
    return dataclasses.replace(cfg, probe_interval_s=15.0, **kw)


def test_probes_do_not_change_run_results():
    cfg = _config(n_peers=150, n_queries=250, seed=2)
    on = run_experiment(cfg, probes=True, audit=True)
    off = run_experiment(cfg, probes=False, audit=True)
    assert on.fingerprint == off.fingerprint
    assert [o.success for o in on.outcomes] == [o.success for o in off.outcomes]
    assert on.probes is not None and off.probes is None


# ------------------------------------------------- serial vs parallel
def test_merged_summary_bit_identical_serial_vs_jobs2():
    from repro.experiments.parallel import run_cells

    configs = [_config(n_peers=120, n_queries=200, seed=s) for s in (0, 1)]
    serial = run_cells(configs, jobs=1, probes=True)
    parallel = run_cells(configs, jobs=2, probes=True)
    merged_serial = [r.probes for r in serial]
    merged_parallel = [r.probes for r in parallel]
    assert fingerprint(merged_serial) == fingerprint(merged_parallel)
    assert [doc["label"] for doc in merged_serial] == [
        "asap_rw/crawled/seed0",
        "asap_rw/crawled/seed1",
    ]


def test_summary_roundtrip_and_schema():
    cfg = _config(n_peers=120, n_queries=150, seed=0)
    doc = run_experiment(cfg, probes=True).probes
    assert doc["schema"] == PROBE_SCHEMA_VERSION
    # What run.json holds is the document itself, fingerprints and all.
    back = json.loads(json.dumps(doc))
    assert fingerprint(back) == fingerprint(doc)
    assert state_fingerprint(back) == state_fingerprint(doc)
    # The state identity ignores the label and backend gauges; the full one not.
    relabelled = dict(doc, label="elsewhere")
    assert state_fingerprint(relabelled) == state_fingerprint(doc)
    assert fingerprint(relabelled) != fingerprint(doc)


# ----------------------------------------------------------- snapshot body
def test_snapshot_state_contents():
    cfg = _config(n_peers=150, n_queries=250, seed=3)
    summary = run_experiment(cfg, probes=True).probes
    assert summary["ticks"], "expected at least one probe tick"
    for k, tick in enumerate(summary["ticks"], start=1):
        assert tick["t"] == pytest.approx(15.0 * k)
        assert 0 < tick["live"] <= tick["nodes"] == 150
        cov = tick["coverage"]
        assert 0 <= cov["covered"] <= cov["audience"]
        assert cov["holders"] >= cov["covered"]
        occ = tick["occupancy"]
        assert occ["total"] == tick["entries"]
        bloom = tick["bloom"]
        assert bloom["fp_ceiling"] == 0.5 ** 8  # the paper's k=8 ceiling
        assert 0.0 <= bloom["fp_max"] <= 1.0
        ages = tick["staleness"]["age_s"]
        assert ages["count"] == tick["entries"]
        assert ages["min"] <= ages["p50"] <= ages["p90"] <= ages["p99"] <= ages["max"]
        assert tick["occupancy"]["per_node"]["total"] == occ["total"]
        backend = tick["backend"]
        assert backend["arena"]["slot_index_consistent"] is True
        assert backend["engine"]["events_processed"] > 0
        assert set(backend["engine"]) == {
            "pending_live", "pending_events", "events_processed"
        }
    head = headline(summary)
    assert head["coverage_fraction"] is not None
    assert 0.0 <= head["coverage_fraction"] <= 1.0
    table = format_state_table(summary)
    assert "cover%" in table and len(table.splitlines()) >= 2


def test_snapshot_state_non_asap_algorithm():
    cfg = _config(algorithm="flooding", n_peers=100, n_queries=150, seed=0)
    summary = run_experiment(cfg, probes=True).probes
    assert summary["ticks"]
    tick = summary["ticks"][0]
    assert "coverage" not in tick  # flooding keeps no ad state
    assert tick["nodes"] == 100
    assert headline(summary)["coverage_fraction"] is None
    assert "(no ASAP state ticks recorded)" in format_state_table(summary)


def test_recorder_leaves_no_pending_events():
    # The last tick is only scheduled while it fits the horizon, so a
    # finished run drains its queue exactly as a probe-less run does.
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()

    class _Overlay:
        n = 5

        def live_count(self):
            return 5

    class _Algo:
        overlay = _Overlay()

    recorder = ProbeRecorder(10.0)
    recorder.attach(engine, _Algo(), until=35.0)
    engine.run(until=35.0)
    assert engine.pending_live == 0
    assert [t["t"] for t in recorder.snapshots] == [10.0, 20.0, 30.0]
    with pytest.raises(ValueError):
        ProbeRecorder(0.0)


# ------------------------------------------- live cells under churn
def _capped_config(n_queries, seed):
    base = scaled_config(
        "asap_rw",
        "crawled",
        n_peers=200,
        n_queries=n_queries,
        seed=seed,
        use_physical_network=False,
    )
    # Capacity 8 forces eviction pressure.
    asap = dataclasses.replace(base.asap, cache_capacity=8)
    return dataclasses.replace(base, asap=asap)


def _replay(cfg, every_s, check):
    """Replay ``cfg``'s trace on a hand-built cell, calling
    ``check(algo, overlay, now)`` every ``every_s`` simulated seconds.
    Returns the live ``(algo, engine)`` at end of run."""
    from repro.sim.metrics import BandwidthLedger
    from repro.simulation.runner import build_algorithm
    from repro.network.topology import build_topology
    from repro.network.overlay import Overlay
    from repro.sim.engine import SimulationEngine
    from repro.sim.random import RandomStreams
    from repro.workload.edonkey import synthesize_content
    from repro.workload.generator import generate_trace
    from repro.workload.trace import (
        ContentChangeEvent,
        JoinEvent,
        LeaveEvent,
        QueryEvent,
    )

    streams = RandomStreams(seed=cfg.seed)
    topology = build_topology(
        cfg.topology, cfg.n_peers, rng=streams.get("topology"), network=None
    )
    overlay = Overlay(topology, None)
    dist = synthesize_content(cfg.edonkey, streams.get("content"))
    trace = generate_trace(dist, cfg.trace, streams.get("trace"))
    algo = build_algorithm(
        cfg, overlay, dist.index, BandwidthLedger(), streams.get("algorithm"),
        dist.interests,
    )
    engine = SimulationEngine()
    algo.warmup(engine, start=0.0, duration=cfg.warmup_s)

    def handle(event):
        now = engine.now
        if isinstance(event, QueryEvent):
            algo.search(event.node, event.terms, now)
        elif isinstance(event, ContentChangeEvent):
            doc = dist.index.document(event.doc_id)
            if event.added:
                dist.index.place(event.node, event.doc_id, notify=False)
            else:
                dist.index.remove(event.node, event.doc_id, notify=False)
            algo.on_content_change(event.node, doc, event.added, now)
        elif isinstance(event, JoinEvent):
            overlay.join(event.node)
            algo.on_join(event.node, now)
        elif isinstance(event, LeaveEvent):
            overlay.leave(event.node)
            algo.on_leave(event.node, now)

    for event in trace.events:
        engine.schedule_at(cfg.warmup_s + event.time, lambda e=event: handle(e))
    horizon = cfg.warmup_s + trace.duration + 1.0
    for t in np.arange(5.0, horizon, every_s):
        engine.schedule_at(
            float(t), lambda: check(algo, overlay, engine.now), name="check"
        )
    engine.run(until=horizon)
    return algo, engine


def test_state_matches_per_repo_loop():
    """Every per-entry, staleness and coverage series of a snapshot equals a
    straight loop over the repositories -- no masks, no column sums --
    under churn with evictions."""
    checked = {"n": 0}

    def check(algo, overlay, now):
        snap = snapshot_state(algo, now)
        repos = [StateRow(algo.state, node) for node in range(overlay.n)]
        store = algo.store
        interests = [
            {c for c in range(63) if bits >> c & 1}
            for bits in algo.interests.bitmasks.tolist()
        ]
        ages, lags = [], []
        for repo in repos:
            for source in repo.sources():
                ages.append(now - repo.entry(source).cached_at)
            for source in repo.behind:
                lag = store.version(source) - repo.entry(source).version
                if lag > 0:
                    lags.append(float(lag))
        assert snap["entries"] == len(ages)
        assert snap["staleness"] == {
            "behind": sum(len(repo.behind) for repo in repos),
            "age_s": digest(ages),
            "version_lag": digest(lags),
        }
        replication, fractions = [], []
        audience_total = covered_total = 0
        for source in np.flatnonzero(algo._advertised).tolist():
            topics = store.topics(source)
            if not store.is_sharer(source) or not topics:
                continue
            audience = {
                node
                for node in range(overlay.n)
                if overlay.is_live(node) and interests[node] & topics
            }
            holders = {node for node in range(overlay.n) if source in repos[node]}
            replication.append(float(len(holders)))
            audience.discard(source)
            audience_total += len(audience)
            covered_total += len(holders & audience)
            if audience:
                fractions.append(len(holders & audience) / len(audience))
        assert snap["coverage"] == {
            "sources": len(replication),
            "audience": audience_total,
            "covered": covered_total,
            "holders": int(sum(replication)),
            "replication": digest(replication),
            "fraction": digest(fractions),
        }
        checked["n"] += 1

    _replay(_capped_config(n_queries=250, seed=1), 20.0, check)
    assert checked["n"] > 3


def test_arena_health_under_churn_and_capped_caches():
    cfg = _capped_config(n_queries=400, seed=4)
    checked = {"n": 0}

    def audit_now(algo, overlay, now):
        report = check_arena_health(algo)
        assert report["ok"], report
        checked["n"] += 1

    algo, engine = _replay(cfg, 12.0, audit_now)

    assert checked["n"] > 5
    report = check_arena_health(algo)
    assert report["ok"], report
    assert report["live_matches_occupancy"]
    assert report["stamped_iff_held"]
    assert report["within_capacity"] and report["diagonal_empty"]
    # Snapshot agrees with the direct audit; capacity 8 over 200 peers
    # means the caches are full and evicting.
    stats = algo.state.stats()
    assert stats["rows_allocated"] == stats["rows_live"] == report["occupancy"]
    assert stats["free_list_depth"] == 0
    snap = snapshot_state(algo, engine.now)
    assert snap["occupancy"]["total"] == stats["rows_live"]
    assert snap["occupancy"]["max"] <= 8
    assert snap["occupancy"]["at_capacity"] > 0
    # Each invariant is live: break it and the audit says which.
    cache = algo.state
    peer = int(np.argmax(cache.occupancy))
    source = int(np.flatnonzero(cache.entry[peer] >= 0)[0])
    cache.occupancy[peer] += 1
    assert not check_arena_health(algo)["live_matches_occupancy"]
    assert not check_arena_health(algo)["within_capacity"]
    cache.occupancy[peer] -= 1
    cache.entry[peer, peer] = cache.stamp[peer, peer] = 0
    cache.occupancy[peer] += 1
    assert not check_arena_health(algo)["diagonal_empty"]
    cache.remove(peer, peer)
    assert check_arena_health(algo)["ok"]
    # An entry dropped without its recency stamp would still be ranked.
    cache.entry[peer, source] = -1
    cache.occupancy[peer] -= 1
    broken = check_arena_health(algo)
    assert broken["live_matches_occupancy"]
    assert not broken["stamped_iff_held"] and not broken["ok"]
