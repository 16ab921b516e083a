"""Ablations beyond the paper: the design knobs Section III calls out.

Four are plain ``replace(config, asap=...)`` sweeps of ASAP(RW) on the
crawled overlay at a fixed 250 peers / 400 queries (:data:`SWEEPS`; their
cells go through the campaign's one ``run_cells`` fan-out like any figure
cell).  Two need no grid cell: Bloom length is a pure filter computation,
and the super-peer sweep varies ``SuperPeerAsapSearch(super_fraction=)``,
which :class:`~repro.simulation.config.RunConfig` does not carry, so it
builds its stack directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.asap.protocol import AsapParams
from repro.asap.superpeer import SuperPeerAsapSearch
from repro.bloom.hashing import PAPER_M, BloomHasher
from repro.experiments.figures import ExperimentGrid, SweepFigure
from repro.network.latency import LatencyModel
from repro.network.overlay import Overlay
from repro.network.topology import build_topology
from repro.network.transit_stub import TransitStubNetwork
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.sim.random import RandomStreams
from repro.simulation.config import RunConfig, scaled_config
from repro.workload.edonkey import EdonkeyParams, synthesize_content
from repro.workload.generator import TraceParams, generate_trace
from repro.workload.trace import QueryEvent

__all__ = ["SWEEPS", "sweep_cells", "sweep_figure", "ablation_bloom", "ablation_superpeer"]

N_PEERS = 250
BASE = scaled_config("asap_rw", "crawled", n_peers=N_PEERS, n_queries=400)


def _asap(**changes) -> RunConfig:
    return replace(BASE, asap=replace(BASE.asap, **changes))


#: What a sweep can print of a finished cell: ``key -> (header, width, kind, extract)``.
_MEASURES = {
    "success": ("success", 9, ".3f", lambda r: r.success_rate()),
    "load": ("load B/node/s", 14, ".1f", lambda r: r.load_summary().mean),
    "cost": ("cost B", 9, ".0f", lambda r: r.avg_cost_bytes()),
    "refresh_bytes": (
        "refresh B",
        11,
        ".0f",
        lambda r: r.category_bytes_in_window().get(TrafficCategory.REFRESH_AD, 0.0),
    ),
}

_M0 = BASE.asap.budget_unit
_REFRESH = BASE.asap.refresh_period_s


class Sweep(NamedTuple):
    title: str
    label: Tuple[str, str, int, str]  # the first column: the swept value
    cells: Tuple[Tuple[object, RunConfig], ...]  # (row label, cell)
    measures: Tuple[str, ...]  # keys of _MEASURES, in column order


SWEEPS = {
    # Section III-A's trade-off: a larger M0 buys wider ad coverage (higher
    # local-hit rate, higher success) at proportionally higher delivery load.
    "Ablation budget": Sweep(
        "Ablation: ASAP(RW) delivery budget unit M0 (crawled overlay)",
        ("budget_unit", "M0", 8, ""),
        tuple(
            (m0, _asap(budget_unit=m0))
            for m0 in (max(5, int(_M0 * s)) for s in (0.25, 1.0, 4.0))
        ),
        ("success", "load", "cost"),
    ),
    # Section III-C bounds the ads-request scope "by setting the distance h
    # to a small value, e.g., 1 by default"; h = 0 disables the fallback
    # (pure local lookups), larger h widens the rescue net at higher
    # per-miss cost.
    "Ablation hops": Sweep(
        "Ablation: ASAP(RW) ads-request radius h (crawled overlay)",
        ("h", "h", 4, ""),
        tuple((h, _asap(ads_request_hops=h)) for h in (0, 1, 2)),
        ("success", "cost"),
    ),
    # Section III-A dismisses "every node caches every index"; bounding the
    # selective cache further (LRU eviction) evicts ads before the queries
    # that need them arrive.
    "Ablation cache": Sweep(
        "Ablation: ASAP(RW) ads-cache capacity (LRU eviction, crawled overlay)",
        ("capacity", "capacity", 9, ""),
        tuple(
            ("inf" if c is None else c, _asap(cache_capacity=c)) for c in (8, 32, None)
        ),
        ("success", "cost"),
    ),
    # Section III-B's refresh ads re-assert liveness and expose missed
    # patches.  A faster cadence buys fresher caches at higher background
    # load; a period longer than the trace leaves stale entries to be
    # discovered the expensive way, at confirmation time.
    "Ablation refresh": Sweep(
        "Ablation: ASAP(RW) refresh-ad period (crawled overlay)",
        ("label", "cadence", 10, ""),
        tuple(
            (label, _asap(refresh_period_s=_REFRESH * s))
            for s, label in ((0.25, "4x faster"), (1.0, "default"), (100.0, "disabled"))
        ),
        ("success", "load", "refresh_bytes"),
    ),
}


def sweep_cells(name: str) -> List[RunConfig]:
    return [config for _label, config in SWEEPS[name].cells]


def sweep_figure(name: str, grid: ExperimentGrid) -> SweepFigure:
    """One of :data:`SWEEPS`, reduced from its finished cells."""
    sweep = SWEEPS[name]
    rows = []
    for label, config in sweep.cells:
        result = grid.cell(config)
        row = {sweep.label[0]: label}
        for key in sweep.measures:
            row[key] = _MEASURES[key][3](result)
        rows.append(row)
    columns = (sweep.label,) + tuple(
        (key, *_MEASURES[key][:3]) for key in sweep.measures
    )
    return SweepFigure(name, sweep.title, columns, rows)


# ------------------------------------------------------------ Bloom length
# Section III-B sizes the fixed filter at m = 11,542 bits for |K_max| =
# 1,000 keywords and k = 8 hashes: a minimum false-positive rate of
# (1/2)^8 ~ 0.39%.  Shorter filters save ad bytes but inflate false
# positives, each a wasted confirmation round-trip.
BLOOM_KEYWORDS = 700
BLOOM_PROBES = 6000
BLOOM_LENGTHS: Tuple[int, ...] = (2048, 4096, 8192, PAPER_M, 2 * PAPER_M)


def _empirical_fpr(m: int, k: int = 8) -> dict:
    hasher = BloomHasher(m=m, k=k)
    bits = np.zeros(m, dtype=bool)
    bits[hasher.positions_of([f"member-{i}" for i in range(BLOOM_KEYWORDS)])] = True
    probes = hasher.positions_of([f"absent-{i}" for i in range(BLOOM_PROBES)])
    false_hits = int(bits[probes].all(axis=1).sum())
    fill = np.count_nonzero(bits) / m
    return {
        "m": m,
        "fill": fill,
        "predicted": float(fill**k),
        "observed": false_hits / BLOOM_PROBES,
    }


def ablation_bloom(_grid: ExperimentGrid) -> SweepFigure:
    """Empirical vs analytic (fill_ratio^k) false-positive rate per length."""
    return SweepFigure(
        "Ablation bloom",
        f"Ablation: Bloom filter length vs false-positive rate "
        f"({BLOOM_KEYWORDS} keywords, k=8)",
        (
            ("m", "m bits", 8, ""),
            ("fill", "fill", 7, ".3f"),
            ("predicted", "predicted", 10, ".5f"),
            ("observed", "observed", 10, ".5f"),
        ),
        [_empirical_fpr(m) for m in BLOOM_LENGTHS],
    )


# --------------------------------------------------------- super-peer tier
# Footnote 3: ASAP "can work well on hierarchical systems in which only
# super peers are responsible for ad representation, delivery, caching and
# processing".  Flat ASAP(FLD) (fraction 1.0) against the super-peer variant
# at several tier fractions on the crawled overlay: fewer caching
# participants per ad delivery, one extra leaf hop per search.
SUPERPEER_QUERIES = 300
SUPERPEER_FRACTIONS: Tuple[float, ...] = (0.05, 0.15, 0.5, 1.0)


def _run_superpeer(fraction):
    """Replay queries only (no churn) through the super-peer variant."""
    streams = RandomStreams(seed=3)
    net = TransitStubNetwork(seed=3)
    topo = build_topology("crawled", N_PEERS, rng=streams.get("topology"), network=net)
    overlay = Overlay(topo, LatencyModel(net))
    dist = synthesize_content(
        EdonkeyParams(n_peers=N_PEERS, avg_docs_per_peer=10.0),
        streams.get("content"),
    )
    trace = generate_trace(
        dist,
        TraceParams(n_queries=SUPERPEER_QUERIES, n_joins=0, n_leaves=0),
        streams.get("trace"),
    )
    ledger = BandwidthLedger()
    algo = SuperPeerAsapSearch(
        overlay,
        dist.index,
        ledger,
        rng=streams.get("algorithm"),
        interests=dist.interests,
        params=AsapParams(forwarder="fld"),
        super_fraction=fraction,
    )
    engine = SimulationEngine()
    algo.warmup(engine, start=0.0, duration=30.0)
    engine.run(until=30.0)
    outcomes = [
        algo.search(e.node, e.terms, 30.0 + e.time)
        for e in trace.events
        if isinstance(e, QueryEvent)
    ]
    successes = [o for o in outcomes if o.success]
    cached_entries = int(algo.state.occupancy.sum())
    return {
        "fraction": fraction,
        "success": len(successes) / len(outcomes),
        "resp_ms": float(np.mean([o.response_time_ms for o in successes]))
        if successes
        else float("nan"),
        "cache_entries": cached_entries,
    }


def ablation_superpeer(_grid: ExperimentGrid) -> SweepFigure:
    return SweepFigure(
        "Ablation superpeer",
        "Ablation: hierarchical ASAP -- super-peer tier fraction (crawled)",
        (
            ("fraction", "fraction", 9, ".2f"),
            ("success", "success", 9, ".3f"),
            ("resp_ms", "resp ms", 9, ".1f"),
            ("cache_entries", "cache entries", 14, ""),
        ),
        [_run_superpeer(f) for f in SUPERPEER_FRACTIONS],
    )
