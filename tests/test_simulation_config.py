"""Tests for run configuration and scaling."""

from dataclasses import replace

import pytest

from repro.simulation.config import (
    ALGORITHMS,
    PAPER_N_PEERS,
    RunConfig,
    paper_config,
    scaled_config,
)


class TestRunConfig:
    def test_paper_defaults(self):
        cfg = paper_config("flooding")
        assert cfg.n_peers == PAPER_N_PEERS
        assert cfg.trace.n_queries == 30_000
        assert cfg.trace.n_joins == 1_000
        assert cfg.rw_ttl == 1024
        assert cfg.gsa_budget == 8_000
        assert cfg.asap.budget_unit == 3_000

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunConfig(algorithm="chord", warmup_s=300.0)

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            RunConfig(algorithm="flooding", topology="hypercube", warmup_s=300.0)

    def test_edonkey_peer_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must match"):
            RunConfig(algorithm="flooding", n_peers=500, warmup_s=300.0)

    def test_warmup_has_no_default(self):
        """A hand-built config cannot take a warm-up shorter than its ad
        walks without saying so: only ``paper_config`` / ``scaled_config``
        compute one (``estimate_warmup_s``)."""
        with pytest.raises(TypeError, match="warmup_s"):
            RunConfig(algorithm="asap_rw")

    def test_nonsense_content_parameters_never_reach_a_run_config(self):
        """``RunConfig`` takes a built ``EdonkeyParams``, so a cell with
        impossible content parameters fails while it is being described."""
        good = paper_config("flooding")
        for nonsense in (
            dict(max_copies=1),
            dict(vocab_per_class=0),
            dict(min_class_keywords=4, max_class_keywords=2),
            dict(min_interests=3, max_interests=2),
            dict(max_interests=99),
        ):
            with pytest.raises(ValueError):
                replace(good, edonkey=replace(good.edonkey, **nonsense))

    @pytest.mark.parametrize(
        "field,value",
        [("rw_ttl", -3), ("gsa_budget", 0)],
    )
    def test_nonsense_search_parameters_fail_before_set_up(self, field, value):
        """Whatever the algorithm: the cell is refused while it is being
        described, not by a constructor after 15 s of set-up."""
        for algorithm in ("flooding", "asap_rw"):
            with pytest.raises(ValueError, match=field):
                replace(paper_config(algorithm), **{field: value})
        replace(paper_config("gsa"), **{field: 1})

    def test_is_asap(self):
        assert paper_config("asap_rw").is_asap
        assert not paper_config("gsa").is_asap

    def test_asap_forwarder(self):
        assert paper_config("asap_fld").asap_forwarder == "fld"
        assert paper_config("asap_gsa").asap_forwarder == "gsa"
        with pytest.raises(ValueError):
            _ = paper_config("flooding").asap_forwarder

    def test_all_algorithms_constructible(self):
        for algo in ALGORITHMS:
            paper_config(algo)

    def test_scheduler_is_a_constant_not_an_option(self):
        assert paper_config("flooding").scheduler == "heap"
        with pytest.raises(TypeError, match="scheduler"):
            RunConfig(algorithm="flooding", scheduler="heap", warmup_s=300.0)


class TestScaledConfig:
    def test_budgets_scale_linearly(self):
        cfg = scaled_config("flooding", n_peers=1_000)
        assert cfg.rw_ttl == 102  # 1024 * 0.1
        assert cfg.gsa_budget == 800
        assert cfg.asap.budget_unit == 300
        assert cfg.asap.refresh_period_s == pytest.approx(60.0)

    def test_trace_scales(self):
        cfg = scaled_config("flooding", n_peers=1_000)
        assert cfg.trace.n_queries == 3_000
        assert cfg.trace.n_joins == 100
        assert cfg.trace.n_leaves == 100

    def test_explicit_queries(self):
        cfg = scaled_config("flooding", n_peers=500, n_queries=100)
        assert cfg.trace.n_queries == 100
        assert cfg.trace.n_joins == max(2, round(100 / 30))

    def test_ttl_floor(self):
        cfg = scaled_config("flooding", n_peers=50)
        assert cfg.rw_ttl >= 16
        assert cfg.gsa_budget >= 40
        assert cfg.asap.budget_unit >= 10

    def test_edonkey_matches_n_peers(self):
        cfg = scaled_config("asap_rw", n_peers=250)
        assert cfg.edonkey.n_peers == 250
