"""Tests for workload statistics and interest-clustering measurements.

Figure 2 reports the eDonkey statistics through the ``ContentIndex``
methods that compute them, and Figure 3 the interest clustering through
:func:`repro.workload.interests.interest_similarity`; the campaign's claims
bound both at the report's scales.  These tests pin the computations on a
distribution of their own.
"""

from collections import Counter

import numpy as np
import pytest

from repro.experiments.campaign import ENTRIES
from repro.experiments.export import figures_to_csv, read_tables
from repro.experiments.figures import ExperimentScale, fig2_semantic_classes
from repro.workload.edonkey import EdonkeyParams, synthesize_content
from repro.workload.interests import interest_similarity


@pytest.fixture(scope="module")
def dist():
    return synthesize_content(
        EdonkeyParams(n_peers=500, avg_docs_per_peer=10.0),
        np.random.default_rng(0),
    )


def _figure2_verdicts(doctor=None):
    """The Figure 2 claims on a 500-peer scale's own table (``doctor``
    edits the table first)."""
    scale = ExperimentScale(n_peers=500)
    table = read_tables(figures_to_csv([fig2_semantic_classes(scale)]))["Figure 2"]
    if doctor is not None:
        doctor(table)
    (entry,) = [e for e in ENTRIES if e.name == "Figure 2"]
    return {text: bool(holds(table, scale)) for text, holds in entry.claims.items()}


def _copies(dist):
    """Copies of every placed document."""
    counts = (len(dist.index.holders(d.doc_id)) for d in dist.index.all_documents())
    return [c for c in counts if c > 0]


class TestComputeStats:
    def test_counts(self, dist):
        assert dist.n_peers == 500
        assert 0 < len(_copies(dist)) <= dist.index.n_documents

    def test_paper_statistics(self, dist):
        assert dist.index.mean_replica_count() == pytest.approx(1.28, abs=0.05)
        assert dist.index.single_copy_fraction() == pytest.approx(0.89, abs=0.03)
        assert dist.free_rider.mean() == pytest.approx(0.2, abs=0.06)

    def test_replica_histogram_consistent(self, dist):
        copies = _copies(dist)
        histogram = Counter(copies)
        assert sum(histogram.values()) == len(copies)
        assert histogram[1] == pytest.approx(
            dist.index.single_copy_fraction() * len(copies), abs=1
        )
        assert dist.index.mean_replica_count() == pytest.approx(
            sum(c * n for c, n in histogram.items()) / len(copies)
        )

    def test_docs_per_sharer(self, dist):
        sharers = np.nonzero(~dist.free_rider)[0]
        docs = np.array([len(dist.index.docs_of(int(n))) for n in sharers])
        assert docs.mean() == pytest.approx(10.0, rel=0.15)
        assert np.median(docs) <= docs.mean() * 1.5

    def test_keyword_budget_within_filter_design(self, dist):
        # |K_p| must stay under the fixed filter's 1,000-keyword design point.
        sizes = [len(dist.index.node_keywords(n)) for n in range(dist.n_peers)]
        assert 0 < max(sizes) <= 1000

    def test_check_paper_shape_passes(self):
        """Figure 2's claims -- the paper's workload statistics -- hold at a
        scale no committed report uses."""
        assert all(_figure2_verdicts().values())

    def test_check_paper_shape_flags_deviations(self):
        def more_copies(table):
            table["workload"]["mean copies"] = 3.0

        failed = [text for text, held in _figure2_verdicts(more_copies).items() if not held]
        assert failed == ["mean copies per placed document within 0.06 of 1.28"]


class TestInterestSimilarity:
    def _measure(self, dist, seed):
        node_classes = [dist.sharing_classes(n) for n in range(dist.n_peers)]
        return interest_similarity(
            dist.interests, node_classes, np.random.default_rng(seed)
        )

    def test_clustering_is_detectable(self, dist):
        sims = self._measure(dist, 1)
        # Peers sharing a content class have markedly more similar
        # interests than random pairs (observation 4).
        assert sims["same-class jaccard"] > sims["random-pair jaccard"]

    def test_values_in_unit_interval(self, dist):
        sims = self._measure(dist, 2)
        for v in sims.values():
            assert 0.0 <= v <= 1.0


class TestEmptyDistribution:
    def test_all_free_riders_edgecase(self):
        dist = synthesize_content(
            EdonkeyParams(n_peers=10, free_rider_fraction=0.95, avg_docs_per_peer=2.0),
            np.random.default_rng(3),
        )
        assert dist.n_peers == 10
        assert 0.0 <= dist.free_rider.mean() <= 1.0
        assert 0.0 <= dist.index.single_copy_fraction() <= 1.0
        assert dist.index.mean_replica_count() >= 0.0
