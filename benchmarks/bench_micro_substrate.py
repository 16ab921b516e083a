"""Microbenchmarks of the simulator's hot paths.

These are conventional pytest-benchmark timings (multiple rounds) of the
vectorised kernels that make paper-scale replay tractable:

* hop-bounded Bellman-Ford flood computation over a live overlay;
* the bit-parallel ad flood at 2,000 peers in milliseconds per pass: 64
  sources in one pass against a single source (``ms_per_pass_64``,
  ``ms_per_pass_1``);
* all-sources Bloom match through the packed filter matrix;
* hierarchical latency batch queries;
* ASAP(RW) walks on a 3,000-peer overlay at the paper's M0 = 3,000, all
  through the one delivery kernel: a keyed ``(5, per_walker)`` draw in
  microseconds (``us_per_call``) for a refresh-sized and a full-sized ad,
  a 1-ad batch (its five lanes on the list recurrence), the same ad forced
  into lockstep, and a full batch (``LOCKSTEP_CHUNK_BYTES``) in
  milliseconds per batch (``ms_per_batch``; ``lane_step_ns`` is the number
  docs/PERFORMANCE.md cites);
* single walks in absolute microseconds per call: a full-TTL random-walk
  search miss at 2,000 peers, and a new epoch's walk rows after one
  ``leave`` at 10,000 peers;
* the ads-cache merge (``AdsState.accept``) in absolute microseconds per
  call (``us_per_call``): a full ad stored into one column at 1k / 3k / 10k
  peers, a full ad that evicts at every receiver at capacity 60 and at
  capacity 2,000, and one REFRESH;
* stub-domain materialisation (all 1,296 domains of the paper's network);
* content synthesis throughput (1k peers; 2k peers = one ``baselines_2k`` cell);
* the source-filter store's bootstrap over that 2,000-peer content, in
  absolute milliseconds (``ms_per_call``);
* engine event dispatch, unobserved vs observed (repro.obs overhead).
"""

import itertools
import timeit

import numpy as np
import pytest

from conftest import write_bench_stats
from repro.asap.ads import Ad, AdType
from repro.asap.delivery import walk_draws
from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.bloom.hashing import BloomHasher
from repro.bloom.matrix import FilterMatrix
from repro.network.latency import LatencyModel
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.network.transit_stub import TransitStubNetwork
from repro.obs.profile import Profiler
from repro.search.flooding import flood_reach
from repro.sim import kernels
from repro.sim.engine import SimulationEngine
from repro.workload.content import ContentIndex
from repro.workload.edonkey import EdonkeyParams, synthesize_content
from repro.workload.interests import InterestState


@pytest.fixture(scope="module")
def overlay_2k():
    topo = random_topology(2000, avg_degree=5.0, rng=np.random.default_rng(0))
    return Overlay(topo, default_edge_latency_ms=20.0)


def bench_flood_reach_2k(benchmark, overlay_2k):
    first_hop, _, msgs = benchmark(flood_reach, overlay_2k, 0, 6)
    assert msgs > 0
    assert (first_hop >= 0).mean() > 0.9
    write_bench_stats("micro_flood_reach_2k", benchmark, messages=int(msgs))


def bench_flood_batch_2k(benchmark, overlay_2k):
    """One ``flood_words`` pass of 64 TTL-6 ad floods, timed by the
    fixture, and one pass of a single source (the same kernel with one bit
    set), best of five runs of 20: how much of a pass the other 63 floods
    cost."""
    csr = overlay_2k.walk_csr()
    sources = list(range(0, 31 * kernels.WORD_BITS, 31))
    words = benchmark(kernels.flood_words, csr, sources, 6)
    single = min(
        timeit.repeat(
            lambda: kernels.flood_words(csr, sources[:1], 6), number=20, repeat=5
        )
    ) / 20
    got, messages = kernels.flood_receivers(csr, words, 63, sources[63])
    assert len(got) > 0.9 * csr.n and messages > 0
    stats = getattr(benchmark, "stats", None)
    write_bench_stats(
        "micro_flood_batch_2k",
        benchmark,
        floods_per_pass=len(sources),
        ms_per_pass_1=1e3 * single,
        **({"ms_per_pass_64": 1e3 * stats.stats.median} if stats is not None else {}),
    )


def bench_filter_matrix_match_10k(benchmark):
    hasher = BloomHasher()
    mat = FilterMatrix(10_000, hasher)
    rng = np.random.default_rng(1)
    vocab = [f"kw{i}" for i in range(500)]
    for s in range(0, 10_000, 7):  # populate a representative subset
        terms = rng.choice(vocab, size=30, replace=False)
        mat.set_row_positions(s, hasher.positions_array(terms))
    positions = hasher.positions_array(["kw3", "kw77"])
    result = benchmark(mat.match_all, positions)
    assert result.shape == (10_000,)
    write_bench_stats("micro_filter_matrix_match_10k", benchmark, rows=10_000)


def bench_latency_pairwise_10k(benchmark):
    net = TransitStubNetwork(seed=0)
    model = LatencyModel(net)
    rng = np.random.default_rng(2)
    nodes = rng.choice(net.n_nodes, size=2_000, replace=False)
    model.register(nodes)
    us = rng.choice(nodes, size=10_000)
    vs = rng.choice(nodes, size=10_000)
    out = benchmark(model.pairwise_ms, us, vs)
    assert np.all(np.isfinite(out))
    write_bench_stats("micro_latency_pairwise_10k", benchmark, pairs=len(us))


@pytest.fixture(scope="module")
def walk_3k():
    """A 3,000-peer random overlay and the full ads of one full batch: 1-4
    topics each, ``|T| x 3,000`` messages over 5 walkers, their keyed
    draws laid end to end as the forwarder lays them."""
    topo = random_topology(3000, avg_degree=5.0, rng=np.random.default_rng(0))
    csr = Overlay(topo, default_edge_latency_ms=20.0).walk_csr()
    rng = np.random.default_rng(1)
    per_walker, sources = [], []
    while kernels.lockstep_fits(
        len(sources) + 1, 5 * (sum(per_walker) + 2400), csr.n
    ):
        per_walker.append(600 * int(rng.integers(1, 5)))
        sources.append(int(rng.integers(csr.n)))
    nows = np.sort(rng.random(len(sources)) * 30.0).tolist()
    draws = np.concatenate(
        [walk_draws(KEY, s, 0, 5, w).reshape(-1) for s, w in zip(sources, per_walker)]
    )
    return csr, sources, per_walker, nows, draws


#: A walk key (``repro.asap.delivery.walk_key`` derives a run's).
KEY = 7


def _write_walk_stats(name, benchmark, lanes, lane_steps):
    stats = getattr(benchmark, "stats", None)
    write_bench_stats(
        name,
        benchmark,
        lanes=lanes,
        lane_steps=lane_steps,
        **(
            {
                "ms_per_batch": 1e3 * stats.stats.median,
                "lane_step_ns": 1e9 * stats.stats.median / lane_steps,
            }
            if stats is not None
            else {}
        ),
    )


@pytest.mark.parametrize("per_walker", [60, 1200])
def bench_walk_keyed_draws(benchmark, per_walker):
    """One delivery's keyed uniforms: a refresh ad of one topic (60 steps a
    walker) and a full ad of two (1,200)."""
    draws = benchmark(walk_draws, KEY, 11, 3, 5, per_walker)
    assert draws.shape == (5, per_walker)
    _write_call_stats(
        f"micro_walk_keyed_draws_{per_walker}", benchmark, draws=draws.size
    )


def bench_walk_single_delivery_3k(benchmark, walk_3k):
    """One ``|T| = 2`` delivery as a batch of one: five lanes, too few to
    step in lockstep, walk the plain-list recurrence."""
    csr, sources, _, nows, draws = walk_3k
    ((_, messages, _, _),) = benchmark(
        kernels.rw_delivery_batch, csr, sources[:1], [1200], 5, draws[:6000], nows[:1]
    )
    _write_walk_stats("micro_walk_single_delivery_3k", benchmark, 5, messages)


def bench_walk_lockstep_one_ad_3k(benchmark, walk_3k, monkeypatch):
    """The same delivery forced into five-lane lockstep: why a batch hands
    its last ``LOCKSTEP_MIN_LANES`` lanes to the list recurrence."""
    monkeypatch.setattr(kernels, "LOCKSTEP_MIN_LANES", 1)
    csr, sources, _, nows, draws = walk_3k
    ((_, messages, _, _),) = benchmark(
        kernels.rw_delivery_batch, csr, sources[:1], [1200], 5, draws[:6000], nows[:1]
    )
    _write_walk_stats("micro_walk_lockstep_one_ad_3k", benchmark, 5, messages)


def bench_walk_lockstep_chunk_3k(benchmark, walk_3k):
    """A full batch (``LOCKSTEP_CHUNK_BYTES``) of full ads."""
    csr, sources, per_walker, nows, draws = walk_3k
    results = benchmark(
        kernels.rw_delivery_batch, csr, sources, per_walker, 5, draws, nows
    )
    _write_walk_stats(
        "micro_walk_lockstep_chunk_3k",
        benchmark,
        5 * len(sources),
        sum(messages for _, messages, _, _ in results),
    )


def bench_walk_search_miss_2k(benchmark, overlay_2k):
    """One random-walk search that matches nothing: 5 walkers walk their
    full TTL of 205 (the paper's 1,024 scaled to 2,000 peers), in four
    rounds of 16, 32, 64 and 93 steps, one ``walk_block`` each."""
    csr = overlay_2k.walk_csr()
    draws = np.random.default_rng(4).random((5, 205))
    match = np.zeros(csr.n, dtype=bool)
    res = benchmark(kernels.rw_search, csr, 0, draws, match, 0.0, 100)
    assert res.hit_node is None and res.n_messages == 5 * 205
    _write_call_stats(
        "micro_walk_search_miss_2k", benchmark, lanes=5, lane_steps=res.n_messages
    )


def bench_walk_epoch_rows_10k(benchmark):
    """The walk rows of a new epoch after one ``leave`` on a 10,000-peer
    overlay whose previous epoch's rows were read: the CSR mask plus the
    churned neighbourhood's rows, not every row."""
    topo = random_topology(10_000, avg_degree=5.0, rng=np.random.default_rng(0))
    overlay = Overlay(topo, default_edge_latency_ms=20.0)
    leaving = iter(range(1, 10_000, 7))

    def churned():
        overlay.walk_csr().nbr
        overlay.leave(next(leaving))
        return (), {}

    benchmark.pedantic(
        lambda: overlay.walk_csr().nbr, setup=churned, rounds=200, iterations=1
    )
    _write_call_stats("micro_walk_epoch_rows_10k", benchmark, n_peers=10_000)


_TOPICS = frozenset({0})


def _merge_fixture(n_peers, n_receivers, capacity=None):
    """A dense ads state whose every peer wants ``_TOPICS``, the receivers
    of one ad (ascending, the share of peers a full ad reaches and
    interests), and a clock that only moves forward."""
    store = SourceFilterStore(n_peers, ContentIndex())
    bits = InterestState([set(_TOPICS)] * n_peers).bitmasks
    state = AdsState(n_peers, bits, store, capacity)
    receivers = np.sort(
        np.random.default_rng(5).choice(n_peers, n_receivers, replace=False)
    )
    return state, receivers, itertools.count(1.0)


def _write_call_stats(name, benchmark, **data):
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        data["us_per_call"] = 1e6 * stats.stats.median
    write_bench_stats(name, benchmark, **data)


@pytest.mark.parametrize("n_peers", [1_000, 3_000, 10_000])
def bench_merge_full_ad_column(benchmark, n_peers):
    """One full ad into the caches of 40 % of the peers, none of which
    holds the source: a column of the row-major state (pages committed)."""
    state, receivers, clock = _merge_fixture(n_peers, int(0.4 * n_peers))
    state.accept(Ad(0, AdType.FULL, _TOPICS, 0), next(clock), receivers)
    spare = iter(np.setdiff1d(np.arange(1, n_peers), receivers).tolist())

    def next_ad():
        return (Ad(next(spare), AdType.FULL, _TOPICS, 0), next(clock), receivers), {}

    stored, evicted = benchmark.pedantic(
        state.accept, setup=next_ad, rounds=200, iterations=1
    )
    assert stored.all() and not evicted
    _write_call_stats(
        f"micro_merge_full_ad_column_{n_peers // 1000}k", benchmark,
        n_peers=n_peers, receivers=len(receivers),
    )


@pytest.mark.parametrize(
    "n_peers,capacity,n_receivers", [(600, 60, 160), (3_000, 2_000, 800)]
)
def bench_merge_full_ad_evicts(benchmark, n_peers, capacity, n_receivers):
    """One full ad to receivers that are all at capacity: every one of
    them evicts its least recently refreshed entry."""
    state, receivers, clock = _merge_fixture(n_peers, n_receivers, capacity)
    held = np.setdiff1d(np.arange(n_peers), receivers)[:capacity]
    for source in held.tolist():
        state.accept(Ad(source, AdType.FULL, _TOPICS, 0), next(clock), receivers)
    spare = iter(np.setdiff1d(np.arange(n_peers), held).tolist())

    def next_ad():
        return (Ad(next(spare), AdType.FULL, _TOPICS, 0), next(clock), receivers), {}

    stored, evicted = benchmark.pedantic(
        state.accept, setup=next_ad, rounds=100, iterations=1
    )
    assert len(evicted) >= n_receivers - 1
    assert (state.occupancy[receivers] == capacity).all()
    _write_call_stats(
        f"micro_merge_full_ad_evicts_cap{capacity}", benchmark,
        n_peers=n_peers, capacity=capacity, receivers=n_receivers,
    )


def bench_merge_refresh_600(benchmark):
    """One REFRESH of an up-to-date source at 130 cachers: the commonest
    merge of a steady-state cell, and a renewal of recency alone."""
    state, receivers, clock = _merge_fixture(600, 130)
    state.accept(Ad(7, AdType.FULL, _TOPICS, 0), next(clock), receivers)
    refresh = Ad(7, AdType.REFRESH, _TOPICS, 0)
    stored, _ = benchmark.pedantic(
        state.accept,
        setup=lambda: ((refresh, next(clock), receivers), {}),
        rounds=2000,
        iterations=1,
    )
    assert stored.sum() == len(receivers) - (7 in receivers)
    _write_call_stats(
        "micro_merge_refresh_600", benchmark, n_peers=600, receivers=len(receivers)
    )


def bench_stub_domains_all_1296(benchmark):
    """Every stub domain of the paper's network, built from nothing:
    Bernoulli masks -> one boolean adjacency stack -> batched breadth-first
    connectivity -> gateway draws -> batched breadth-first gateway rows, for
    all 1,296 (a 10k-peer cell touches ~1,260 of them)."""

    def build() -> TransitStubNetwork:
        net = TransitStubNetwork(seed=0)
        net.materialise(np.arange(net.params.n_stub_domains))
        return net

    net = benchmark.pedantic(build, rounds=3, iterations=1)
    assert (net._gateway >= 0).all()
    write_bench_stats(
        "micro_stub_domains_all_1296", benchmark, domains=len(net._gateway)
    )


def _dispatch_events(n_events: int, observer=None) -> int:
    engine = SimulationEngine()
    if observer is not None:
        engine.set_observer(observer)
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1

    for i in range(n_events):
        engine.schedule_at(float(i), tick, name="tick")
    engine.run()
    return count


def bench_engine_dispatch_50k(benchmark):
    """Baseline dispatch rate with no observer installed (the hot path
    every experiment pays; the repro.obs hooks must keep it within 3%)."""
    count = benchmark(_dispatch_events, 50_000)
    assert count == 50_000
    write_bench_stats("micro_engine_dispatch_50k", benchmark, events=count)


def bench_engine_dispatch_50k_profiled(benchmark):
    """Dispatch rate with the Profiler observer installed, for comparison
    against ``bench_engine_dispatch_50k`` (the enabled-observability cost)."""
    count = benchmark(_dispatch_events, 50_000, observer=Profiler(warmup_s=25_000.0))
    assert count == 50_000
    write_bench_stats("micro_engine_dispatch_50k_profiled", benchmark, events=count)


def bench_content_synthesis_1k(benchmark):
    dist = benchmark.pedantic(
        lambda: synthesize_content(
            EdonkeyParams(n_peers=1_000, avg_docs_per_peer=10.0),
            np.random.default_rng(3),
        ),
        rounds=1,
        iterations=1,
    )
    assert dist.index.mean_replica_count() == pytest.approx(1.28, abs=0.05)
    write_bench_stats(
        "micro_content_synthesis_1k",
        benchmark,
        mean_replicas=float(dist.index.mean_replica_count()),
    )


def bench_content_synthesis_2k(benchmark):
    """The content snapshot of one ``baselines_2k`` cell (2,000 peers,
    ~12.8k documents); the benchmark builds it once per cell."""
    dist = benchmark.pedantic(
        lambda: synthesize_content(
            EdonkeyParams(n_peers=2_000, avg_docs_per_peer=10.0),
            np.random.default_rng(3),
        ),
        rounds=3,
        iterations=1,
    )
    assert dist.index.mean_replica_count() == pytest.approx(1.28, abs=0.05)
    write_bench_stats(
        "micro_content_synthesis_2k", benchmark, documents=dist.index.n_documents
    )


def bench_store_bootstrap_2k(benchmark):
    """Every source's filter, set-bit count and topics over the content of
    one 2,000-peer cell (~12.8k documents, ~16k copies): each distinct
    keyword hashed once, then one scatter per block of 256 sources."""
    content = synthesize_content(
        EdonkeyParams(n_peers=2_000, avg_docs_per_peer=10.0),
        np.random.default_rng(3),
    ).index
    store = benchmark.pedantic(
        SourceFilterStore, args=(2_000, content), rounds=5, iterations=1
    )
    assert store.is_sharer(int(np.flatnonzero(store._n_set)[0]))
    stats = getattr(benchmark, "stats", None)
    write_bench_stats(
        "micro_store_bootstrap_2k",
        benchmark,
        n_peers=2_000,
        sharers=int(np.count_nonzero(store._n_set)),
        **({"ms_per_call": 1e3 * stats.stats.median} if stats is not None else {}),
    )
