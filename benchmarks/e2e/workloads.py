"""The benchmark's workloads: what one iteration of each replays.

Why each exists is recorded once, in ``BENCHMARK.json`` (one line) and in
``README.md`` (in full).

An *iteration* is one pass over a workload's cells (one cell per
algorithm), each cell one ``RunConfig`` built by ``scaled_config`` with the
physical network on.  Iteration ``i`` of a run started with ``--seed s``
uses ``RunConfig.seed = 100 * s + i``: a run measures several independent
draws of the same cell shape, so its medians and pooled statistics are
steadier across seeds than any single cell's.  The program under test only
ever receives the generated ``RunConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.simulation.config import RunConfig, scaled_config

__all__ = ["WORKLOADS", "Workload", "SMOKE_ITERATIONS"]

#: Iterations per run at ``--smoke`` scale (enough for a median and for the
#: pooled statistics to cover more than one seed).
SMOKE_ITERATIONS = 2
_MIN_ITERATIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: Tuple[str, ...]  # one cell per algorithm, run in this order
    topology: str
    n_peers: int
    n_queries: int
    smoke_peers: int
    smoke_queries: int
    # Host seconds one iteration took on the reference box (README.md);
    # fixes how many iterations ``--seconds`` buys, so both sides of a
    # comparison replay identical inputs however fast they run.
    iteration_s: float
    churn_per_query: Optional[float] = None  # joins = leaves; None = 1:30
    content_change_fraction: float = 0.10
    cache_fraction: Optional[float] = None  # ads-cache bound / n_peers

    def iterations(self, seconds: float, smoke: bool) -> int:
        if smoke:
            return SMOKE_ITERATIONS
        return max(_MIN_ITERATIONS, int(seconds / self.iteration_s))

    def cells(self, seed: int, iteration: int, smoke: bool) -> List[RunConfig]:
        """The RunConfigs of one iteration (they share one sub-seed, so the
        second cell finds the substrate in ``repro.network.substrate``)."""
        n_peers = self.smoke_peers if smoke else self.n_peers
        n_queries = self.smoke_queries if smoke else self.n_queries
        out = []
        for algorithm in self.algorithms:
            cfg = scaled_config(
                algorithm,
                self.topology,
                n_peers=n_peers,
                n_queries=n_queries,
                seed=100 * seed + iteration,
            )
            trace = replace(
                cfg.trace, content_change_fraction=self.content_change_fraction
            )
            if self.churn_per_query is not None:
                n_churn = int(round(n_queries * self.churn_per_query))
                trace = replace(trace, n_joins=n_churn, n_leaves=n_churn)
            cfg = replace(cfg, trace=trace)
            if self.cache_fraction is not None:
                capacity = max(4, int(round(n_peers * self.cache_fraction)))
                cfg = replace(cfg, asap=replace(cfg.asap, cache_capacity=capacity))
            out.append(cfg)
        return out


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="asap_rw_steady",
        algorithms=("asap_rw",),
        topology="crawled",
        n_peers=1000,
        n_queries=1000,
        smoke_peers=200,
        smoke_queries=150,
        iteration_s=3.8,
    ),
    Workload(
        name="asap_fld_churn",
        algorithms=("asap_fld",),
        topology="crawled",
        n_peers=800,
        n_queries=600,
        smoke_peers=200,
        smoke_queries=120,
        iteration_s=3.3,
        churn_per_query=1.0 / 3.0,
        content_change_fraction=0.30,
    ),
    Workload(
        name="asap_gsa_bounded",
        algorithms=("asap_gsa",),
        topology="powerlaw",
        n_peers=600,
        n_queries=600,
        smoke_peers=160,
        smoke_queries=120,
        iteration_s=3.3,
        cache_fraction=0.10,
    ),
    Workload(
        name="baselines_2k",
        algorithms=("flooding", "random_walk"),
        topology="crawled",
        n_peers=2000,
        n_queries=1000,
        smoke_peers=300,
        smoke_queries=150,
        iteration_s=4.8,
    ),
)
