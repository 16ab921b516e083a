"""The traced run: the same cell rebuilt from the layers' public functions.

``traced_cell`` mirrors ``repro.simulation.runner.run_experiment`` step by
step (same RNG substreams, same scheduling order) with a span around every
call into a layer, an engine observer owned by the benchmark, and wrappers
around public bound methods of the instances it built.  Nothing in ``src/``
knows it is being traced.  Each query is also checked against ground truth
here, in time that every open span excludes.

A span's *self time* is its duration minus the spans opened inside it.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.network.overlay import Overlay
from repro.network.substrate import get_substrate
from repro.network.topology import build_topology
from repro.obs.profile import subsystem_of
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import BandwidthLedger, LiveCountTracker
from repro.sim.random import RandomStreams
from repro.simulation.config import RunConfig
from repro.simulation.results import RunResult
from repro.simulation.runner import build_algorithm
from repro.workload.edonkey import synthesize_content
from repro.workload.generator import generate_trace
from repro.workload.trace import (
    ContentChangeEvent,
    JoinEvent,
    LeaveEvent,
    QueryEvent,
)

from measure import cell_record, fresh_iteration, run_cell
from workloads import Workload

__all__ = ["Spans", "traced_cell", "traced_run"]

#: Engine events get their span from the scheduling name's subsystem;
#: ``trace`` events are split by event type inside the benchmark's handler.
_EVENT_SPANS = {
    "full-ad": "asap.protocol.full_ad",
    "bootstrap": "asap.protocol.bootstrap",
    "refresh": "asap.protocol.refresh",
}
_ARENA_STATS = ("rows_live", "rows_allocated", "free_list_depth")


class Spans:
    """In-memory span recorder: count, total and self seconds per name."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.query_s: List[float] = []  # one host duration per search call
        self._open: List[list] = []  # [name, start, seconds in child spans]

    def begin(self, name: str) -> None:
        self._open.append([name, time.perf_counter(), 0.0])

    def end(self) -> float:
        now = time.perf_counter()
        name, start, in_children = self._open.pop()
        duration = now - start
        self.count[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - in_children
        if self._open:
            self._open[-1][2] += duration
        return duration

    def end_excluded(self) -> None:
        """Close a span of the benchmark's own work (verification): shift
        every enclosing span's start so none of them sees the time."""
        now = time.perf_counter()
        _, start, _ = self._open.pop()
        for frame in self._open:
            frame[1] += now - start

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        after: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Shadow the public bound method ``obj.attr`` on this instance with
        one that records a ``name`` span (and hands the result to ``after``)."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(result)
            return result

        setattr(obj, attr, traced)


class _EventObserver:
    """``SimulationEngine`` observer: one span per named protocol event."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.events = 0
        self._span_open = False

    def event_begin(self, event) -> None:
        self.events += 1
        name = _EVENT_SPANS.get(subsystem_of(event.name))
        self._span_open = name is not None
        if name is not None:
            self.spans.begin(name)

    def event_end(self, event) -> None:
        if self._span_open:
            self.spans.end()


def traced_cell(
    config: RunConfig, spans: Spans, state: Dict[str, float]
) -> Dict[str, object]:
    """Replay one cell with spans on; add counts and state to ``state``.

    Returns the same record as ``measure.run_cell`` plus the traced run's
    own failed checks, so the caller can compare fingerprints.
    """
    t_cell = time.perf_counter()
    streams = RandomStreams(seed=config.seed)
    visited_before = state["asap.delivery.visited_n"]

    # ---- set-up, one span per layer ------------------------------------
    spans.begin("network.substrate")
    substrate = get_substrate(seed=config.seed)
    spans.end()
    spans.begin("network.topology")
    topology = build_topology(
        config.topology,
        config.n_peers,
        rng=streams.get("topology"),
        network=substrate.network,
    )
    spans.end()
    spans.begin("network.overlay")
    overlay = Overlay(topology, substrate.latency)
    spans.end()
    spans.begin("workload.content")
    dist = synthesize_content(config.edonkey, streams.get("content"))
    spans.end()
    spans.begin("workload.trace")
    trace = generate_trace(dist, config.trace, streams.get("trace"))
    spans.end()
    content = dist.index
    ledger = BandwidthLedger()
    spans.begin("simulation.build_algorithm")
    algorithm = build_algorithm(
        config, overlay, content, ledger, streams.get("algorithm"), dist.interests
    )
    spans.end()

    # ---- child spans: public methods of the instances built above --------
    spans.wrap(overlay, "walk_csr", "network.overlay.walk_csr")
    spans.wrap(overlay, "direct_latency_ms", "network.overlay.latencies")
    spans.wrap(overlay, "direct_latencies_ms", "network.overlay.latencies")
    spans.wrap(overlay, "join", "network.overlay.churn")
    spans.wrap(overlay, "leave", "network.overlay.churn")
    arena = getattr(algorithm, "arena", None)
    if config.is_asap:

        def on_delivery(report) -> None:
            state["asap.delivery.visited_n"] += len(report.visited)
            state["asap.delivery.messages_n"] += report.messages

        spans.wrap(
            algorithm.forwarder, "deliver", "asap.delivery.deliver", on_delivery
        )
        store = algorithm.store
        spans.wrap(store, "match_current", "asap.store.match_current")
        spans.wrap(
            store, "apply_content_change", "asap.store.apply_content_change"
        )
        spans.wrap(store, "make_full_ad", "asap.store.make_ad")
        spans.wrap(store, "make_refresh_ad", "asap.store.make_ad")

    engine = SimulationEngine(scheduler=config.scheduler)
    observer = _EventObserver(spans)
    engine.set_observer(observer)
    spans.begin("asap.protocol.warmup_schedule")
    algorithm.warmup(engine, start=0.0, duration=config.warmup_s)
    spans.end()

    outcomes: list = []
    live_tracker = LiveCountTracker(initial=overlay.live_count())
    dispatched = [0] * len(trace.events)
    unverified = 0

    def handle(index: int, event) -> None:
        nonlocal unverified
        now = engine.now
        dispatched[index] += 1
        if isinstance(event, QueryEvent):
            spans.begin("search.query")
            outcome = algorithm.search(event.node, event.terms, now)
            spans.query_s.append(spans.end())
            outcomes.append(outcome)
            # Ground truth from the public content index and live mask, at
            # the simulated instant of the query.
            spans.begin("bench.verify")
            live = overlay.live_mask
            has_live_match = any(
                live[n] for n in content.nodes_matching(event.terms)
            )
            local_match = content.node_matches(event.node, event.terms)
            if (outcome.success and not has_live_match) or (
                outcome.local_hit and not local_match
            ):
                unverified += 1
            spans.end_excluded()
        elif isinstance(event, ContentChangeEvent):
            spans.begin("asap.protocol.content_change")
            doc = content.document(event.doc_id)
            if event.added:
                content.place(event.node, event.doc_id, notify=False)
            else:
                content.remove(event.node, event.doc_id, notify=False)
            algorithm.on_content_change(event.node, doc, event.added, now)
            spans.end()
        elif isinstance(event, JoinEvent):
            spans.begin("asap.protocol.join")
            overlay.join(event.node)
            live_tracker.record_change(now, +1)
            algorithm.on_join(event.node, now)
            spans.end()
        elif isinstance(event, LeaveEvent):
            spans.begin("asap.protocol.leave")
            overlay.leave(event.node)
            live_tracker.record_change(now, -1)
            algorithm.on_leave(event.node, now)
            spans.end()
        else:
            raise TypeError(f"unknown trace event {type(event).__name__}")

    spans.begin("sim.engine.schedule")
    for index, event in enumerate(trace.events):
        engine.schedule_at(
            config.warmup_s + event.time,
            lambda i=index, e=event: handle(i, e),
            name="trace",
        )
    spans.end()
    state["sim.engine.schedule_n"] += len(trace.events)
    setup_s = time.perf_counter() - t_cell

    # ---- replay: two engine.run calls split at the warm-up boundary ------
    t_replay = time.perf_counter()
    spans.begin("sim.engine.run_warmup")
    engine.run(until=config.warmup_s)
    spans.end()
    if arena is not None:
        warm = arena.stats()
        for key in _ARENA_STATS:
            state[f"asap.arena.{key}_warm"] += warm[key]
        state["asap.arena.pool_mb_warm"] += warm["pool_bytes"] / 1e6
        state["warmup_visited_n"] += (
            state["asap.delivery.visited_n"] - visited_before
        )
    spans.begin("sim.engine.run_measure")
    engine.run(until=config.warmup_s + trace.duration + 1.0)
    spans.end()
    replay_s = time.perf_counter() - t_replay

    # ---- collect, as run_experiment does ----------------------------------
    t_start = int(config.warmup_s)
    t_end = int(np.ceil(config.warmup_s + trace.duration)) + 1
    result = RunResult(
        algorithm=algorithm.name,
        topology=config.topology,
        n_peers=config.n_peers,
        outcomes=outcomes,
        ledger=ledger,
        load_categories=algorithm.load_categories,
        live_counts=live_tracker.counts(t_start, t_end),
        t_start=t_start,
        t_end=t_end,
    )
    spans.begin("simulation.results.summarize")
    summary = result.summarize()
    spans.end()
    cell_s = time.perf_counter() - t_cell

    if arena is not None:
        end = arena.stats()
        for key in _ARENA_STATS:
            state[f"asap.arena.{key}_end"] += end[key]
        state["asap.arena.pool_mb_end"] += end["pool_bytes"] / 1e6
    state["sim.engine.events_n"] += observer.events
    state["sim.metrics.ledger_bytes"] += ledger.total_bytes()
    state["sim.metrics.ledger_messages"] += ledger.total_messages()
    state["n_peers"] += config.n_peers

    record = cell_record(config, result, summary, t_cell, setup_s, replay_s, cell_s)
    # Checks made here: one per replayed trace event (dispatched exactly
    # once, so every QueryEvent has exactly one outcome) and one ground-
    # truth comparison per query.
    record["attempted"] = len(trace.events) + record["queries"]
    record["failed"] += sum(1 for n in dispatched if n != 1) + unverified
    return record


def _layer_metrics(
    spans: Spans, state: Dict[str, float], cells: List[Dict[str, object]]
) -> Dict[str, float]:
    m: Dict[str, float] = {}
    for name in (
        "network.substrate",
        "network.topology",
        "network.overlay",
        "workload.content",
        "workload.trace",
        "simulation.build_algorithm",
        "asap.protocol.warmup_schedule",
        "sim.engine.schedule",
        "sim.engine.run_warmup",
        "sim.engine.run_measure",
        "simulation.results.summarize",
    ):
        m[f"{name}_s"] = spans.total_s[name]
    # Spans that call other traced layers: count, total, and self time
    # (what is left for the protocol's own merge loops).
    for name in (
        "asap.protocol.full_ad",
        "asap.protocol.refresh",
        "asap.protocol.content_change",
        "search.query",
    ):
        m[f"{name}_n"] = spans.count[name]
        m[f"{name}_s"] = spans.total_s[name]
        m[f"{name}_self_s"] = spans.self_s[name]
    for name in (
        "asap.protocol.bootstrap",
        "asap.protocol.join",
        "asap.protocol.leave",
        "asap.delivery.deliver",
        "asap.store.match_current",
        "asap.store.apply_content_change",
        "asap.store.make_ad",
        "network.overlay.walk_csr",
        "network.overlay.latencies",
        "network.overlay.churn",
    ):
        m[f"{name}_n"] = spans.count[name]
        m[f"{name}_s"] = spans.total_s[name]

    run_s = m["sim.engine.run_warmup_s"] + m["sim.engine.run_measure_s"]
    dispatch_self_s = (
        spans.self_s["sim.engine.run_warmup"] + spans.self_s["sim.engine.run_measure"]
    )
    m["sim.engine.schedule_n"] = state["sim.engine.schedule_n"]
    m["sim.engine.events_n"] = state["sim.engine.events_n"]
    m["sim.engine.dispatch_self_s"] = dispatch_self_s
    m["sim.engine.events_per_s"] = state["sim.engine.events_n"] / run_s
    m["bench.span_coverage_frac"] = 1.0 - dispatch_self_s / run_s

    query_us = sorted(1e6 * s for s in spans.query_s)
    m["search.query_us_p50"] = statistics.median(query_us)
    m["search.query_us_p99"] = query_us[int(0.99 * (len(query_us) - 1))]
    queries = sum(c["queries"] for c in cells)
    m["search.local_hit_ratio"] = sum(c["local_hits"] for c in cells) / queries

    for key in ("asap.delivery.visited_n", "asap.delivery.messages_n",
                "sim.metrics.ledger_bytes", "sim.metrics.ledger_messages"):
        m[key] = state[key]
    for when in ("warm", "end"):
        for key in _ARENA_STATS + ("pool_mb",):
            m[f"asap.arena.{key}_{when}"] = state[f"asap.arena.{key}_{when}"]
        m[f"asap.arena.pairs_per_peer_{when}"] = (
            state[f"asap.arena.rows_live_{when}"] / state["n_peers"]
        )
    visited = state["warmup_visited_n"]
    m["asap.delivery.accept_ratio"] = (
        state["asap.arena.rows_live_warm"] / visited if visited else 0.0
    )
    return m


def traced_run(workload: Workload, seed: int, smoke: bool) -> Dict[str, object]:
    """The ``--trace 1`` run: iteration 0, untraced / traced / untraced.

    The two untraced passes bracket the traced one, so the overhead figure
    is taken against their median and their fingerprints pin down what the
    mirrored pipeline must reproduce.
    """
    configs = workload.cells(seed, 0, smoke)
    spans = Spans()
    state: Dict[str, float] = defaultdict(float)

    fresh_iteration()
    before = [run_cell(cfg) for cfg in configs]
    fresh_iteration()
    cells = [traced_cell(cfg, spans, state) for cfg in configs]
    fresh_iteration()
    after = [run_cell(cfg) for cfg in configs]

    attempted = sum(c["attempted"] for c in cells + before + after)
    failed = sum(c["failed"] for c in cells + before + after)
    # One more check per cell: the mirrored, traced pipeline reproduces the
    # product's results bit for bit (spans perturb nothing).
    attempted += len(cells)
    failed += sum(
        1
        for b, t, a in zip(before, cells, after)
        if not b["fingerprint"] == t["fingerprint"] == a["fingerprint"]
    )
    metrics: Dict[str, float] = {}
    if all("cell_s" in c for c in before + after):
        metrics = _layer_metrics(spans, state, cells)
        untraced_s = statistics.median(
            [sum(c["cell_s"] for c in run) for run in (before, after)]
        )
        metrics["bench.trace_overhead_frac"] = (
            sum(c["cell_s"] for c in cells) / untraced_s - 1.0
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "iterations": 1,
        "attempted": attempted,
        "failed": failed,
        "cell_fingerprints": [c["fingerprint"] for c in cells],
        "metrics": metrics,
    }
