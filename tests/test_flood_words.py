"""The bit-parallel flood kernel and ASAP(FLD)'s use of it.

* kernel: every bit of a :func:`repro.sim.kernels.flood_words` pass read
  back by :func:`~repro.sim.kernels.flood_receivers` equals the oracle's
  flood from that source (``tests/oracles/flood.py``: receivers are the
  nodes with ``first_hop > 0``, and the message count), on drawn graphs
  with churned live masks, offline and isolated sources, TTL 1-8 and
  passes of 1, 2, 63 and 64 sources;
* forwarder: a flood computed ahead is never delivered after the overlay
  changed, and which companions share a pass changes no run's result.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asap.ads import Ad, AdType
from repro.asap.delivery import FloodAdForwarder
from repro.asap.protocol import AsapSearch
from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology
from repro.sim import kernels
from repro.sim.metrics import BandwidthLedger

from tests.oracles.flood import flood_reach_reference
from tests.test_engine_batching_differential import run_fingerprint, small_config

BATCHES = [1, 2, 63, 64]


def drawn_overlay(seed: int, n: int, avg_degree: float, offline: float) -> Overlay:
    """``n`` nodes, about ``n * avg_degree / 2`` distinct random edges,
    each node offline with probability ``offline``."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(int(n * avg_degree / 2) + 1, 2))
    pairs = np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1)
    edges = np.unique(pairs, axis=0).reshape(-1, 2)
    topo = OverlayTopology(
        name="drawn", n=n, edges=edges, physical_ids=np.arange(n)
    )
    return Overlay(
        topo,
        initially_live=rng.random(n) >= offline,
        default_edge_latency_ms=10.0,
    )


def assert_pass_matches_oracle(ov: Overlay, sources, ttl: int) -> None:
    csr = ov.walk_csr()
    words = kernels.flood_words(csr, sources, ttl)
    for bit, source in enumerate(sources):
        got, n_messages = kernels.flood_receivers(csr, words, bit, source)
        if not ov.is_live(source):
            # Offline: no live edge, so the flood reaches nobody.
            assert got.tolist() == [] and n_messages == 0
            continue
        first_hop, _, ref_messages = flood_reach_reference(ov, source, ttl)
        assert got.tolist() == np.flatnonzero(first_hop > 0).tolist()
        assert n_messages == ref_messages


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 150),
    avg_degree=st.floats(0.5, 6.0),
    offline=st.sampled_from([0.0, 0.1, 0.4]),
    ttl=st.integers(1, 8),
    batch=st.sampled_from(BATCHES),
)
def test_every_bit_of_a_pass_is_the_oracle_flood(
    seed, n, avg_degree, offline, ttl, batch
):
    ov = drawn_overlay(seed, n, avg_degree, offline)
    rng = np.random.default_rng(seed + 1)
    sources = rng.permutation(n)[: min(batch, n)].tolist()
    assert_pass_matches_oracle(ov, sources, ttl)


@pytest.mark.parametrize("batch", BATCHES)
def test_isolated_and_offline_sources_share_a_pass(batch):
    """Node 0 lost every neighbour, node 1 is offline; both ride in passes
    of every width next to sources that do reach the overlay."""
    ov = drawn_overlay(7, 120, 4.0, 0.0)
    for v in ov.live_neighbors(0)[0].tolist():
        ov.leave(v)
    ov.leave(1)
    assert ov.is_live(0) and not len(ov.live_neighbors(0)[0])
    others = [v for v in range(2, 120) if ov.is_live(v)][: max(0, batch - 2)]
    sources = ([0, 1] + others)[:batch]
    assert_pass_matches_oracle(ov, sources, 6)


@pytest.mark.parametrize("batch", BATCHES)
def test_floods_that_die_before_the_ttl(batch):
    """Paths of 3 nodes: every flood dies after two hops, well short of
    the TTL, and its last ring still forwards (the oracle's count)."""
    n = 3 * 64
    edges = np.array([[3 * k + i, 3 * k + i + 1] for k in range(64) for i in (0, 1)])
    topo = OverlayTopology(name="paths", n=n, edges=edges, physical_ids=np.arange(n))
    ov = Overlay(topo, default_edge_latency_ms=10.0)
    sources = [3 * k + k % 3 for k in range(batch)]
    assert_pass_matches_oracle(ov, sources, 8)
    words = kernels.flood_words(ov.walk_csr(), sources, 8)
    assert np.array_equal(words[0], words[1])  # nothing new at hop 8


def test_a_pass_floods_one_to_64_sources_at_least_one_hop():
    csr = drawn_overlay(3, 80, 3.0, 0.0).walk_csr()
    for sources in ([], list(range(65))):
        with pytest.raises(ValueError, match="1 to 64"):
            kernels.flood_words(csr, sources, 6)
    with pytest.raises(ValueError, match="ttl"):
        kernels.flood_words(csr, [0], 0)


# ------------------------------------------------------------- forwarder
def _ad(source):
    return Ad(source=source, ad_type=AdType.REFRESH, topics=frozenset({1}), version=1)


class _Counted:
    """Counts the kernel's passes (patched into ``repro.sim.kernels``)."""

    def __init__(self, monkeypatch):
        self.passes = 0
        real = kernels.flood_words

        def counted(*args, **kwargs):
            self.passes += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "flood_words", counted)


@pytest.mark.parametrize("churn", ["leave", "join"])
def test_a_flood_computed_ahead_is_never_delivered_after_churn(monkeypatch, churn):
    ov = drawn_overlay(11, 200, 3.0, 0.0)
    if churn == "join":
        ov.leave(7)
    fw = FloodAdForwarder(ov, BandwidthLedger(), 0, ttl=6)
    fw.schedule = lambda now, count: (
        np.arange(20, 20 + count), np.full(count, now), np.ones(count, dtype=np.int64)
    )
    kernel = _Counted(monkeypatch)
    fw.deliver(_ad(5), 1.0)
    assert kernel.passes == 1
    fw.deliver(_ad(20), 1.0)  # a companion of that pass
    assert kernel.passes == 1
    if churn == "leave":
        # A node the next companion's flood went through.
        hop1 = ov.live_neighbors(21)[0]
        ov.leave(int(hop1[0]))
    else:
        ov.join(7)
    report = fw.deliver(_ad(21), 2.0)
    assert kernel.passes == 2
    first_hop, _, n_messages = flood_reach_reference(ov, 21, 6)
    assert report.visited.tolist() == np.flatnonzero(first_hop > 0).tolist()
    assert report.messages == n_messages


def _no_companions(self, now, count):
    none = np.empty(0, dtype=np.int64)
    return none, np.empty(0), none


_scheduled = AsapSearch._next_due


def _shuffled(self, now, count):
    nodes, times, budgets = _scheduled(self, now, count)
    order = np.random.default_rng(len(nodes)).permutation(len(nodes))
    return nodes[order], times[order], budgets[order]


@pytest.mark.parametrize("seed", [0, 1])
def test_companions_change_no_result(monkeypatch, seed):
    """An ASAP(FLD) cell with churn and content change: the same audited
    run fingerprint with the schedule's companions, with none (a pass per
    flood) and with the schedule shuffled."""
    config = small_config("asap_fld", seed)
    kernel = _Counted(monkeypatch)
    scheduled = run_fingerprint(config)
    assert scheduled is not None
    batched_passes, kernel.passes = kernel.passes, 0
    for schedule in (_no_companions, _shuffled):
        monkeypatch.setattr(AsapSearch, "_next_due", schedule)
        assert run_fingerprint(config) == scheduled
    single_passes = kernel.passes // 2
    assert batched_passes < single_passes / 2


# ----------------------------------------------------------- flooding search
def test_search_floods_computed_ahead_change_no_result(monkeypatch):
    """A heavy-churn flooding cell: the same audited run fingerprint with
    the query plan, with none (every flood alone), with the plan shuffled
    and with no churn plan (floods computed past a join or leave, which
    the new CSR drops); the plan floods in fewer than half the passes."""
    from dataclasses import replace

    from repro.network.overlay import Overlay
    from repro.search.flooding import FloodingSearch

    base = small_config("flooding", 0)
    config = replace(base, trace=replace(base.trace, n_joins=40, n_leaves=40))
    calls = {"n": 0}
    real = kernels.flood_frontier

    def counted(*args):
        calls["n"] += 1
        return real(*args)

    monkeypatch.setattr(kernels, "flood_frontier", counted)
    planned = run_fingerprint(config)
    assert planned is not None
    plan_passes = calls["n"]
    plan = FloodingSearch.plan_queries

    def shuffled(self, times, requesters):
        order = np.random.default_rng(1).permutation(len(times))
        plan(self, np.asarray(times), np.asarray(requesters)[order])

    def single(self, times, requesters):
        plan(self, [], [])

    for name, patch in (("plan_queries", shuffled), ("plan_churn", None)):
        with monkeypatch.context() as m:
            if patch is None:
                m.setattr(Overlay, "plan_churn", lambda self, times: None)
            else:
                m.setattr(FloodingSearch, name, patch)
            assert run_fingerprint(config) == planned
    with monkeypatch.context() as m:
        m.setattr(FloodingSearch, "plan_queries", single)
        calls["n"] = 0
        assert run_fingerprint(config) == planned
        floods = calls["n"]
    assert plan_passes < floods / 2
