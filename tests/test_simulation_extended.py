"""Integration tests for extended algorithms and runner edge cases."""

from dataclasses import replace

import numpy as np
import pytest

from repro.simulation import run_experiment, scaled_config
from repro.simulation.config import EXTENDED_ALGORITHMS, RunConfig, paper_config


def small_cfg(algo, **kwargs):
    defaults = dict(
        n_peers=150, n_queries=120, topology="crawled", use_physical_network=False
    )
    defaults.update(kwargs)
    return scaled_config(algo, **defaults)


class TestExtendedConfig:
    def test_superpeer_algorithms_accepted(self):
        for algo in ("asap_sp_fld", "asap_sp_rw", "asap_sp_gsa"):
            cfg = paper_config(algo)
            assert cfg.is_asap and cfg.is_superpeer

    def test_superpeer_forwarder_parsed(self):
        assert paper_config("asap_sp_fld").asap_forwarder == "fld"
        assert paper_config("asap_sp_gsa").asap_forwarder == "gsa"

    def test_flat_asap_not_superpeer(self):
        assert not paper_config("asap_rw").is_superpeer

    def test_extended_contains_paper_six(self):
        # The paper's six schemes plus the three super-peer variants.
        assert len(EXTENDED_ALGORITHMS) == 9
        assert EXTENDED_ALGORITHMS[:6] == (
            "flooding", "random_walk", "gsa", "asap_fld", "asap_rw", "asap_gsa"
        )


class TestSuperPeerRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(small_cfg("asap_sp_rw"))

    def test_completes_with_good_success(self, result):
        assert result.algorithm == "ASAP-SP(RW)"
        assert result.success_rate() >= 0.5

    def test_cost_stays_asap_like(self, result):
        # Per-search cost must stay within ASAP's order of magnitude (a few
        # messages), far below flooding's tens of KB.
        assert result.avg_cost_bytes() < 5_000

    def test_deterministic(self):
        a = run_experiment(small_cfg("asap_sp_fld", n_queries=60, seed=2))
        b = run_experiment(small_cfg("asap_sp_fld", n_queries=60, seed=2))
        assert a.success_rate() == b.success_rate()
        assert a.ledger.total_bytes() == b.ledger.total_bytes()


class TestAsapConfigVariants:
    def test_capacity_bounded_run(self):
        cfg = small_cfg("asap_rw", n_queries=80)
        cfg = replace(cfg, asap=replace(cfg.asap, cache_capacity=16))
        result = run_experiment(cfg)
        assert 0.0 <= result.success_rate() <= 1.0
        # Capacity is enforced everywhere it applies.
        # (Indirect: the run completes without violating repo invariants.)

    def test_zero_churn_trace(self):
        cfg = small_cfg("asap_rw", n_queries=60)
        cfg = replace(cfg, trace=replace(cfg.trace, n_joins=0, n_leaves=0))
        result = run_experiment(cfg)
        assert result.n_queries > 40
        assert (result.live_counts == 150).all()

    def test_powerlaw_topology_all_algorithms(self):
        for algo in ("gsa", "asap_gsa"):
            result = run_experiment(
                small_cfg(algo, topology="powerlaw", n_queries=50)
            )
            assert 0.0 <= result.success_rate() <= 1.0
