"""Run configuration: one algorithm, one topology, one workload.

The paper's full configuration (Section IV) is 10,000 peers, 30,000 queries
and the message budgets listed below.  :func:`paper_config` reproduces it
exactly; :func:`scaled_config` shrinks the system to a laptop-friendly size
while scaling every *extensive* quantity (walk TTLs, message budgets, trace
length, churn counts) by the same factor, so the qualitative comparisons --
who wins, by roughly what factor -- are preserved.  EXPERIMENTS.md records
which scale each reported number used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.asap.protocol import AD_WALKERS, AsapParams
from repro.workload.edonkey import EdonkeyParams
from repro.workload.generator import TraceParams

__all__ = ["ALGORITHMS", "RunConfig", "paper_config", "scaled_config"]

#: Algorithm identifiers accepted by the runner (paper Figures 4-9 order).
ALGORITHMS: Tuple[str, ...] = (
    "flooding",
    "random_walk",
    "gsa",
    "asap_fld",
    "asap_rw",
    "asap_gsa",
)

#: Extensions beyond the paper's six schemes (footnote-3 hierarchy).
EXTENDED_ALGORITHMS: Tuple[str, ...] = ALGORITHMS + (
    "asap_sp_fld",
    "asap_sp_rw",
    "asap_sp_gsa",
)

#: Overlay names from the paper.
TOPOLOGIES: Tuple[str, ...] = ("random", "powerlaw", "crawled")

#: The peer count every message budget in the paper is calibrated for.
PAPER_N_PEERS = 10_000


def estimate_warmup_s(
    budget_unit: int,
    max_topics: int = 4,
    avg_step_latency_s: float = 0.1,
    jitter_fraction: float = 0.6,
    slack_s: float = 10.0,
) -> float:
    """Warm-up long enough for every initial ad walk to complete.

    A walk-delivered full ad takes ``max_topics * budget_unit / AD_WALKERS``
    sequential steps at ~100 ms per overlay hop on the transit-stub
    network.  Issuance is jittered over the first ``jitter_fraction`` of
    the window, so the window must cover jitter + the longest walk + slack
    -- otherwise warm-up traffic bleeds into the measurement window and
    corrupts the system-load figures.
    """
    max_walk_s = max_topics * budget_unit / AD_WALKERS * avg_step_latency_s
    return (max_walk_s + slack_s) / (1.0 - jitter_fraction)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation run."""

    algorithm: str
    topology: str = "crawled"
    n_peers: int = PAPER_N_PEERS
    seed: int = 0
    # No default: a warm-up shorter than the ad walks lets warm-up traffic
    # bleed into the measured window (see estimate_warmup_s).
    warmup_s: float = field(kw_only=True)
    use_physical_network: bool = True
    edonkey: EdonkeyParams = field(default_factory=EdonkeyParams)
    trace: TraceParams = field(default_factory=TraceParams)
    rw_ttl: int = 1024
    gsa_budget: int = 8_000
    asap: AsapParams = field(default_factory=AsapParams)
    # Not an option: a constant kept while benchmarks/e2e/traced.py:197 reads it.
    scheduler: str = field(default="heap", init=False)
    # Cadence of the protocol-state probes (repro.obs.probes) in simulated
    # seconds.  Snapshots fire at k * probe_interval_s only when the runner
    # is asked for probes; the interval is part of RunConfig so the tick
    # grid -- and therefore the probe fingerprint -- is pinned per config.
    probe_interval_s: float = 60.0

    def __post_init__(self) -> None:
        if self.algorithm not in EXTENDED_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from "
                f"{EXTENDED_ALGORITHMS}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if self.n_peers < 10:
            raise ValueError("n_peers must be >= 10")
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be >= 0")
        if self.edonkey.n_peers != self.n_peers:
            raise ValueError(
                "edonkey.n_peers must match n_peers "
                f"({self.edonkey.n_peers} != {self.n_peers})"
            )
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be > 0")
        # The algorithm constructors reject these too -- after the
        # substrate, overlay, content and trace have been built.
        for name in ("rw_ttl", "gsa_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def is_asap(self) -> bool:
        return self.algorithm.startswith("asap")

    @property
    def is_superpeer(self) -> bool:
        return self.algorithm.startswith("asap_sp")

    @property
    def asap_forwarder(self) -> str:
        if not self.is_asap:
            raise ValueError(f"{self.algorithm} is not an ASAP scheme")
        return self.algorithm.rsplit("_", 1)[1]


def paper_config(algorithm: str, topology: str = "crawled", seed: int = 0) -> RunConfig:
    """The paper's exact configuration (10,000 peers, 30,000 queries)."""
    asap = AsapParams()
    return RunConfig(
        algorithm=algorithm,
        topology=topology,
        seed=seed,
        warmup_s=estimate_warmup_s(asap.budget_unit),
    )


def scaled_config(
    algorithm: str,
    topology: str = "crawled",
    n_peers: int = 1_000,
    n_queries: Optional[int] = None,
    seed: int = 0,
    warmup_s: Optional[float] = None,
    use_physical_network: bool = True,
    avg_docs_per_peer: float = 10.0,
) -> RunConfig:
    """A proportionally scaled-down run.

    The scale factor ``f = n_peers / 10,000`` multiplies the walk TTL, the
    GSA budget and ASAP's delivery budget unit (these are all calibrated to
    system size in the paper); the trace shrinks to ``n_queries`` (default
    ``3 * n_peers``, matching the paper's 3 queries/peer ratio) with churn
    counts at the paper's 1:30 events-per-query ratio.
    """
    factor = n_peers / PAPER_N_PEERS
    if n_queries is None:
        n_queries = 3 * n_peers
    n_churn = max(2, int(round(n_queries / 30)))
    base = TraceParams()
    trace = replace(
        base,
        n_queries=n_queries,
        n_joins=n_churn,
        n_leaves=n_churn,
    )
    edonkey = replace(
        EdonkeyParams(), n_peers=n_peers, avg_docs_per_peer=avg_docs_per_peer
    )
    asap = replace(
        AsapParams(),
        budget_unit=max(10, int(round(3000 * factor))),
        # The refresh cadence is calibrated to the paper's ~1 hour trace;
        # a scaled trace must see the same number of refresh rounds.
        refresh_period_s=max(10.0, 600.0 * factor),
    )
    if warmup_s is None:
        warmup_s = max(30.0, estimate_warmup_s(asap.budget_unit))
    return RunConfig(
        algorithm=algorithm,
        topology=topology,
        n_peers=n_peers,
        seed=seed,
        warmup_s=warmup_s,
        use_physical_network=use_physical_network,
        edonkey=edonkey,
        trace=trace,
        rw_ttl=max(16, int(round(1024 * factor))),
        gsa_budget=max(40, int(round(8000 * factor))),
        asap=asap,
    )
