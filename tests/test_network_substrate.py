"""Tests for the process-wide substrate and workload caches."""

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.network.latency import LatencyModel
from repro.network.substrate import clear_substrate_cache, get_substrate, get_workload
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams
from repro.sim.random import RandomStreams
from repro.simulation import run_experiment, scaled_config
from repro.workload.content import Document
from repro.workload.edonkey import synthesize_content
from repro.workload.generator import generate_trace
from repro.workload.trace import ContentChangeEvent, JoinEvent

SMALL = TransitStubParams(
    n_transit_domains=2,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=2,
    stub_nodes_per_domain=5,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_substrate_cache()
    yield
    clear_substrate_cache()


class TestSubstrateCache:
    def test_same_key_shares_one_instance(self):
        a = get_substrate(SMALL, seed=7)
        b = get_substrate(SMALL, seed=7)
        assert a is b
        assert a.network is b.network
        assert a.latency is b.latency
        info = get_substrate.cache_info()
        assert info.misses == 1 and info.hits == 1 and info.currsize == 1

    def test_different_seed_misses(self):
        a = get_substrate(SMALL, seed=0)
        b = get_substrate(SMALL, seed=1)
        assert a.network is not b.network
        assert get_substrate.cache_info().misses == 2

    def test_different_params_miss(self):
        other = TransitStubParams(
            n_transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=6,
        )
        assert get_substrate(SMALL, 0) is not get_substrate(other, 0)
        assert get_substrate.cache_info().misses == 2

    def test_default_params_key(self):
        """Every spelling of the default substrate is one cache key."""
        a = get_substrate(seed=0)
        assert get_substrate(None, 0) is a
        assert get_substrate(TransitStubParams(), np.int64(0)) is a
        assert get_substrate.cache_info().misses == 1

    def test_cached_latency_equals_fresh(self):
        cached = get_substrate(SMALL, seed=5)
        fresh = LatencyModel(TransitStubNetwork(params=SMALL, seed=5))
        rng = np.random.default_rng(0)
        n = cached.network.n_nodes
        us = rng.integers(n, size=50)
        vs = rng.integers(n, size=50)
        for u, v in zip(us, vs):
            assert cached.latency.pairwise_ms(u, v) == fresh.pairwise_ms(u, v)
        np.testing.assert_array_equal(
            cached.latency.pairwise_ms(us, vs), fresh.pairwise_ms(us, vs)
        )

    def test_lru_eviction(self):
        """Eight substrates are kept; the least recently used one goes."""
        for seed in range(8):
            get_substrate(SMALL, seed)
        get_substrate(SMALL, 0)  # refresh seed 0
        get_substrate(SMALL, 8)  # evicts seed 1 (least recently used)
        info = get_substrate.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 9, 8)
        assert get_substrate(SMALL, 0).seed == 0
        assert get_substrate.cache_info().hits == 2  # seed-0 refresh + this lookup
        get_substrate(SMALL, 1)
        assert get_substrate.cache_info().misses == 10  # seed 1 was rebuilt


class TestRunnerIntegration:
    def test_sweep_builds_substrate_once(self):
        """Repeated same-seed runs share one transit-stub build (the whole
        point of the cache: a sweep pays APSP construction once)."""
        for algorithm in ("flooding", "random_walk", "flooding"):
            config = scaled_config(
                algorithm, "random", n_peers=40, n_queries=10, seed=4
            )
            run_experiment(config)
        info = get_substrate.cache_info()
        assert info.misses == 1
        assert info.hits == 2

    def test_distinct_seeds_build_distinct_substrates(self):
        for seed in (0, 1):
            config = scaled_config(
                "flooding", "random", n_peers=40, n_queries=10, seed=seed
            )
            run_experiment(config)
        assert get_substrate.cache_info().misses == 2

    def test_cached_run_matches_fresh_run(self):
        config = scaled_config(
            "flooding", "random", n_peers=40, n_queries=15, seed=9
        )
        first = run_experiment(config).summarize()  # cold cache
        second = run_experiment(config).summarize()  # warm cache
        assert first == second


def _churning(algorithm, seed=3):
    """A cell whose trace adds and removes documents and churns peers."""
    config = scaled_config(
        algorithm, "random", n_peers=150, n_queries=150, seed=seed,
        use_physical_network=False,
    )
    trace = replace(
        config.trace, content_change_fraction=0.3, n_joins=20, n_leaves=20
    )
    return replace(config, trace=trace)


def _snapshot(content, trace):
    """Everything of a cached workload a replay could touch, by value."""
    index = content.index
    return copy.deepcopy(
        (
            index.all_documents(), [a.tolist() for a in index.copies()],
            content.interests, content.free_rider.tolist(), content.next_doc_id,
            trace.events, trace.duration,
        )
    )


class TestWorkloadCache:
    def test_same_key_shares_one_instance(self):
        config = _churning("flooding")
        a = get_workload(config.edonkey, config.trace, config.seed)
        b = get_workload(config.edonkey, config.trace, np.int64(config.seed))
        assert a[0] is b[0] and a[1] is b[1]
        info = get_workload.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_equals_direct_synthesis(self):
        """The cache draws exactly what the two builders draw on the
        seed's named streams."""
        config = _churning("flooding")
        content, trace = get_workload(config.edonkey, config.trace, config.seed)
        streams = RandomStreams(seed=config.seed)
        direct = synthesize_content(config.edonkey, streams.get("content"))
        direct_trace = generate_trace(direct, config.trace, streams.get("trace"))
        assert trace.events == direct_trace.events
        assert content.interests == direct.interests
        assert np.array_equal(content.free_rider, direct.free_rider)
        for doc in direct.index.all_documents():
            assert content.index.document(doc.doc_id) == doc
            assert content.index.holders(doc.doc_id) == direct.index.holders(doc.doc_id)

    def test_shared_state_is_read_only(self):
        config = _churning("flooding")
        content, _ = get_workload(config.edonkey, config.trace, config.seed)
        with pytest.raises(ValueError, match="read-only"):
            content.free_rider[0] = not content.free_rider[0]
        fork = content.index.fork()
        with pytest.raises(ValueError, match="read-only"):
            fork.register_document(Document(10**9, 0, ("fresh",)))

    def test_a_replay_leaves_the_shared_workload_as_built(self):
        """ASAP(FLD) replays content changes and churn on the shared
        workload; a flooding cell of the same seed after it equals its
        cold-cache self, and the cached workload is unchanged."""
        fld, flooding = _churning("asap_fld"), _churning("flooding")
        content, trace = get_workload(fld.edonkey, fld.trace, fld.seed)
        changes = [e for e in trace.events if isinstance(e, ContentChangeEvent)]
        assert any(e.added for e in changes) and not all(e.added for e in changes)
        assert any(isinstance(e, JoinEvent) for e in trace.events)
        before = _snapshot(content, trace)

        run_experiment(fld, audit=True)
        warm = run_experiment(flooding, audit=True)
        assert get_workload.cache_info().misses == 1
        assert _snapshot(content, trace) == before

        clear_substrate_cache()
        cold = run_experiment(flooding, audit=True)
        assert get_workload.cache_info().misses == 1
        assert warm.fingerprint == cold.fingerprint
        assert warm.summarize() == cold.summarize()

    def test_forks_change_apart(self):
        """``fork()`` shares every column and copies only the change log:
        a fork's ``place`` / ``remove`` shows in neither its parent nor a
        sibling, a fork of the fork starts from its changes and then goes
        its own way, and the cached index itself refuses changes."""
        config = _churning("flooding")
        parent = get_workload(config.edonkey, config.trace, config.seed)[0].index

        def placed(index):
            return [a.tolist() for a in index.copies()]

        before = placed(parent)
        fork, sibling = parent.fork(), parent.fork()
        assert fork._node is parent._node and fork._docs is parent._docs
        node, doc_id = before[0][0], before[1][0]
        other = next(d for d in range(parent.n_documents) if d not in parent.docs_of(node))
        fork.remove(node, doc_id)
        fork.place(node, other)
        assert set(fork.docs_of(node).tolist()) == set(parent.docs_of(node).tolist()) - {doc_id} | {other}
        assert fork.holders(other) == parent.holders(other) | {node}
        assert placed(parent) == placed(sibling) == before

        grandchild = fork.fork()
        assert placed(grandchild) == placed(fork)
        grandchild.place(node, doc_id)
        sibling.remove(node, doc_id)
        assert node in grandchild.holders(doc_id)
        assert node not in fork.holders(doc_id) and node not in sibling.holders(doc_id)
        assert node in parent.holders(doc_id) and placed(parent) == before
        with pytest.raises(ValueError, match="read-only"):
            parent.place(node, other)

    def test_a_fork_allocates_no_placement(self):
        """Forking ``baselines_2k``'s 2,000-peer seed-0 workload (~12.5k
        documents) allocates under 200 kB; copying its placements would
        allocate ~4.5 MB."""
        config = scaled_config("flooding", "crawled", n_peers=2000, n_queries=1000, seed=0)
        config = replace(config, trace=replace(config.trace, content_change_fraction=0.10))
        index = get_workload(config.edonkey, config.trace, config.seed)[0].index
        tracemalloc.start()
        try:
            index.fork()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_run_cells_builds_shared_workloads_before_forking(self):
        """The parent builds each workload two cells share, as many as the
        cache keeps; a workload of one cell is its worker's to build."""
        from repro.experiments.parallel import run_cells

        configs = [
            _churning(algorithm, seed)
            for seed in (0, 1, 2)
            for algorithm in ("flooding", "random_walk")
        ]
        outcomes = run_cells(configs + [_churning("flooding", seed=4)], jobs=2)
        assert all(o.n_peers == 150 for o in outcomes)
        info = get_workload.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_clear_empties_both_caches(self):
        config = _churning("flooding")
        run_experiment(replace(config, use_physical_network=True))
        assert get_substrate.cache_info().currsize == 1
        assert get_workload.cache_info().currsize == 1
        clear_substrate_cache()
        assert get_substrate.cache_info().currsize == 0
        assert get_workload.cache_info().currsize == 0
