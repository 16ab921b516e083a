"""Tests for the process-wide substrate cache."""

import numpy as np
import pytest

from repro.network.latency import LatencyModel
from repro.network.substrate import clear_substrate_cache, get_substrate
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams
from repro.simulation import run_experiment, scaled_config

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
