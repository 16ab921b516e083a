"""Builds the full stack for one run and replays the trace through it.

Pipeline (Section IV-B step 6: "feed it into each testing system, replaying
the queries and collect the results"):

1. obtain the GT-ITM physical network and latency model (shared across
   runs via the process-wide :mod:`repro.network.substrate` cache);
2. build the logical overlay (random / powerlaw / crawled) over it;
3. obtain the eDonkey-like content distribution and the query trace (the
   same cache: every cell with this seed and workload shares them);
4. instantiate the algorithm under test;
5. schedule ASAP's warm-up (initial ad dissemination) in ``[0, warmup_s)``,
   then every trace event at ``warmup_s + event.time``, and run the engine;
6. collect per-query outcomes and the bandwidth ledger into a RunResult
   whose measurement window is the trace interval (warm-up excluded, as the
   paper measures the warmed-up system).

Determinism: all randomness flows from ``config.seed`` through named
substreams, so a config reproduces its results exactly.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.asap.protocol import AsapSearch
from repro.asap.state import require_state_fits
from repro.obs.actions import ActionLog, write_trace
from repro.obs.instrument import Instrumentation
from repro.obs.profile import Profiler, peak_rss_mb
from repro.obs.telemetry import Telemetry
from repro.network.overlay import Overlay
from repro.network.substrate import get_substrate, get_workload
from repro.network.topology import build_topology
from repro.search.base import SearchAlgorithm, SearchOutcome
from repro.search.flooding import FloodingSearch
from repro.search.gsa import GsaSearch
from repro.search.random_walk import RandomWalkSearch
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import BandwidthLedger, LiveCountTracker
from repro.sim.random import RandomStreams
from repro.simulation.config import RunConfig
from repro.simulation.results import RunResult
from repro.workload.trace import (
    ContentChangeEvent,
    JoinEvent,
    LeaveEvent,
    QueryEvent,
)

__all__ = ["run_experiment", "build_algorithm"]


def build_algorithm(
    config: RunConfig,
    overlay: Overlay,
    content,
    ledger: BandwidthLedger,
    rng: np.random.Generator,
    interests: Optional[List[set]] = None,
    free_riders: Optional[np.ndarray] = None,
) -> SearchAlgorithm:
    """Instantiate the algorithm named by ``config.algorithm``;
    ``interests`` and ``free_riders`` are the workload's (ASAP only)."""
    if config.algorithm == "flooding":
        return FloodingSearch(overlay, content, ledger, rng)
    if config.algorithm == "random_walk":
        return RandomWalkSearch(
            overlay,
            content,
            ledger,
            rng,
            ttl=config.rw_ttl,
        )
    if config.algorithm == "gsa":
        return GsaSearch(
            overlay,
            content,
            ledger,
            rng,
            budget=config.gsa_budget,
        )
    # ASAP variants (flat or hierarchical).
    cls = AsapSearch
    if config.is_superpeer:
        from repro.asap.superpeer import SuperPeerAsapSearch as cls
    return cls(
        overlay,
        content,
        ledger,
        rng,
        interests=interests,
        params=replace(config.asap, forwarder=config.asap_forwarder),
        free_riders=free_riders,
    )


def run_experiment(
    config: RunConfig,
    *,
    trace_path=None,
    profile: bool = False,
    audit: bool = False,
    telemetry: bool = False,
    probes=False,
    phase_times: Optional[dict] = None,
) -> RunResult:
    """Execute one full trace replay and return its results.

    Observability is opt-in.  An action log, telemetry and a profiler are
    sinks of one :class:`repro.obs.Instrumentation`, which the engine takes
    as its dispatch observer (for telemetry or the profiler) and the
    algorithm as its ``obs`` (for the log or telemetry); with none of them
    the run holds no instrumentation and no table at all:

    * ``trace_path`` -- keep the run's actions in a
      :class:`repro.obs.actions.ActionLog` and render it there as JSONL
      (gzip-compressed on ``.gz``) when the replay ends;
    * ``profile`` -- time every engine dispatch with a
      :class:`repro.obs.profile.Profiler` and attach the resulting
      ``RunProfile`` to the returned :class:`RunResult`;
    * ``audit`` -- keep the run's actions in an ``ActionLog`` and audit
      them (:func:`repro.obs.audit.audit`) against the result, attaching
      the :class:`~repro.obs.audit.AuditReport` and the run fingerprint;
      an observed run's result carries its log as ``actions``;
    * ``telemetry`` -- accumulate with a
      :class:`repro.obs.telemetry.Telemetry`; its charge tables are
      reduced (windowed load, hot peers and links, quantile digests)
      into ``RunResult.telemetry`` as a summary document -- the
      aggregated alternative to full tracing;
    * ``probes`` -- schedule periodic protocol-state snapshots
      (:class:`repro.obs.probes.ProbeRecorder`, cadence
      ``config.probe_interval_s``) and freeze them into
      ``RunResult.probes`` as a summary document; snapshots
      are read-only, so results are identical with probes on or off;
    * ``phase_times`` -- optional dict filled with wall-clock phase
      durations (``setup_s``: substrate/topology/workload construction
      and warm-up scheduling; ``replay_s``: the engine run).  Benchmarks
      use the split to gate on simulated time rather than one-off
      content synthesis.
    """
    t_phase = time.perf_counter()
    if config.is_asap:
        # Before minutes of substrate and workload construction.
        require_state_fits(config.n_peers, config.asap.cache_capacity)
    streams = RandomStreams(seed=config.seed)
    log = ActionLog() if audit or trace_path is not None else None

    # --- substrate -------------------------------------------------------
    # The physical network is fully determined by (params, seed) and its
    # lazy materialisation is order-independent, so runs share one cached
    # instance (see repro.network.substrate) with bit-identical results.
    network = latency = None
    if config.use_physical_network:
        substrate = get_substrate(seed=config.seed)
        network, latency = substrate.network, substrate.latency
    topology = build_topology(
        config.topology, config.n_peers, rng=streams.get("topology"), network=network
    )
    overlay = Overlay(topology, latency)

    # --- workload ---------------------------------------------------------
    # A pure function of (edonkey, trace, seed), shared read-only by every
    # cell that has those three (see repro.network.substrate); replay moves
    # documents, so this cell places and removes them on its own fork.
    dist, trace = get_workload(config.edonkey, config.trace, config.seed)
    content = dist.index.fork()

    # --- algorithm ---------------------------------------------------------
    ledger = BandwidthLedger()
    algorithm = build_algorithm(
        config, overlay, content, ledger, streams.get("algorithm"), dist.interests,
        dist.free_rider,
    )

    tel = Telemetry() if telemetry else None
    profiler = Profiler(warmup_s=config.warmup_s) if profile else None

    # --- replay ------------------------------------------------------------
    engine = SimulationEngine()
    if profiler is not None or tel is not None or log is not None:
        seam = Instrumentation(log, tel, profiler)
        if profiler is not None or tel is not None:
            engine.set_observer(seam)
        if log is not None or tel is not None:
            # Not for the profiler alone: it watches engine dispatch, no
            # sink wants the protocol's actions, and the action sites
            # should not pay a call each.
            algorithm.attach(seam)
    algorithm.warmup(engine, start=0.0, duration=config.warmup_s)

    outcomes: List[SearchOutcome] = []
    live_tracker = LiveCountTracker(initial=overlay.live_count())

    def handle(event) -> None:
        now = engine.now
        obs = algorithm.obs
        if isinstance(event, QueryEvent):
            outcomes.append(algorithm.search(event.node, event.terms, now))
        elif isinstance(event, ContentChangeEvent):
            doc = content.document(event.doc_id)
            if event.added:
                content.place(event.node, event.doc_id)
            else:
                content.remove(event.node, event.doc_id)
            if obs is not None:
                obs.content_changed(now, event.node, event.doc_id, event.added)
            algorithm.on_content_change(event.node, doc, event.added, now)
        elif isinstance(event, JoinEvent):
            overlay.join(event.node)
            live_tracker.record_change(now, +1)
            if obs is not None:
                obs.churn(now, event.node, True, overlay.live_count())
            algorithm.on_join(event.node, now)
        elif isinstance(event, LeaveEvent):
            overlay.leave(event.node)
            live_tracker.record_change(now, -1)
            if obs is not None:
                obs.churn(now, event.node, False, overlay.live_count())
            algorithm.on_leave(event.node, now)
        else:  # pragma: no cover - trace types are closed
            raise TypeError(f"unknown trace event {type(event).__name__}")

    until = config.warmup_s + trace.duration + 1.0
    # Work computed ahead on a walk CSR stops where the trace replaces it,
    # and at the replay's end.
    overlay.plan_churn([
        *(config.warmup_s + event.time for event in trace.events
          if isinstance(event, (JoinEvent, LeaveEvent))),
        until,
    ])
    queries = [event for event in trace.events if isinstance(event, QueryEvent)]
    query_times = [config.warmup_s + event.time for event in queries]
    algorithm.plan_queries(query_times, [event.node for event in queries])
    for event in trace.events:
        engine.schedule_at(
            config.warmup_s + event.time, lambda e=event: handle(e), name="trace"
        )
    recorder = None
    if probes:
        from repro.obs.probes import ProbeRecorder

        recorder = ProbeRecorder(config.probe_interval_s)
        recorder.attach(engine, algorithm, until=until)
    if phase_times is not None:
        now_wall = time.perf_counter()
        phase_times["setup_s"] = now_wall - t_phase
        t_phase = now_wall
    engine.run(until=until)
    if phase_times is not None:
        phase_times["replay_s"] = time.perf_counter() - t_phase

    # --- collect ------------------------------------------------------------
    t_start = int(config.warmup_s)
    t_end = int(np.ceil(config.warmup_s + trace.duration)) + 1
    live_counts = live_tracker.counts(t_start, t_end)

    run_profile = None
    if profiler is not None:
        run_profile = profiler.finish(engine)
        run_profile.peak_rss_mb = peak_rss_mb()
        if isinstance(algorithm, AsapSearch):
            run_profile.state = algorithm.state.stats()

    result = RunResult(
        algorithm=algorithm.name,
        topology=config.topology,
        n_peers=config.n_peers,
        outcomes=outcomes,
        ledger=ledger,
        load_categories=algorithm.load_categories,
        live_counts=live_counts,
        t_start=t_start,
        t_end=t_end,
        profile=run_profile,
    )
    if recorder is not None:
        result.probes = recorder.summary()
    if tel is not None:
        result.telemetry = tel.summary(
            ledger=ledger,
            live_counts=live_counts,
            t_start=t_start,
            t_end=t_end,
            load_categories=algorithm.load_categories,
            outcomes=outcomes,
            query_times=query_times,
        )
    if log is not None:
        result.actions = log
        if trace_path is not None:
            write_trace(log, trace_path)
        if audit:
            from repro.obs.audit import audit as audit_run

            result.audit = audit_run(log, config, result)
            result.fingerprint = result.audit.fingerprint
    return result
