"""Tests for the synthetic eDonkey content distribution."""

import numpy as np
import pytest

from repro.workload.edonkey import (
    ContentDistribution,
    EdonkeyParams,
    calibrate_replica_distribution,
    make_document,
    synthesize_content,
)
from repro.workload.interests import N_CLASSES


def small_params(**overrides):
    defaults = dict(n_peers=400, avg_docs_per_peer=8.0)
    defaults.update(overrides)
    return EdonkeyParams(**defaults)


class TestReplicaCalibration:
    def test_paper_targets(self):
        pmf = calibrate_replica_distribution(1.28, 0.89, 60)
        counts = np.arange(1, 61)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf[0] == pytest.approx(0.89)
        assert float(np.sum(counts * pmf)) == pytest.approx(1.28, abs=1e-6)

    def test_degenerate_all_single(self):
        pmf = calibrate_replica_distribution(1.0, 1.0, 10)
        assert pmf[0] == 1.0 and pmf[1:].sum() == 0.0

    def test_inconsistent_targets_rejected(self):
        with pytest.raises(ValueError):
            calibrate_replica_distribution(1.0, 0.89, 60)  # mean too low
        with pytest.raises(ValueError):
            calibrate_replica_distribution(1.0, 1.0, 1)  # max_copies too small
        with pytest.raises(ValueError):
            calibrate_replica_distribution(8.0, 0.89, 10)  # mean too high

    def test_tail_is_decreasing(self):
        pmf = calibrate_replica_distribution(1.28, 0.89, 60)
        tail = pmf[1:]
        assert np.all(np.diff(tail) <= 1e-15)


class TestMakeDocument:
    def test_structure(self):
        rng = np.random.default_rng(0)
        vocab = [f"kw{i}" for i in range(50)]
        doc = make_document(7, 3, vocab, rng, min_kw=2, max_kw=4)
        assert doc.doc_id == 7
        assert doc.class_id == 3
        assert doc.keywords[0] == "title7"
        assert 3 <= len(doc.keywords) <= 5
        assert all(kw in vocab for kw in doc.keywords[1:])

    def test_zipf_skews_keyword_usage(self):
        rng = np.random.default_rng(1)
        vocab = [f"kw{i}" for i in range(100)]
        from collections import Counter

        usage = Counter()
        for i in range(500):
            doc = make_document(i, 0, vocab, rng, zipf_s=1.2)
            usage.update(doc.keywords[1:])
        head = sum(usage[f"kw{i}"] for i in range(10))
        tail = sum(usage[f"kw{i}"] for i in range(90, 100))
        assert head > 5 * max(tail, 1)


class TestParams:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            EdonkeyParams(n_peers=1)
        with pytest.raises(ValueError):
            EdonkeyParams(free_rider_fraction=1.0)
        with pytest.raises(ValueError):
            EdonkeyParams(mean_copies=0.9)
        with pytest.raises(ValueError):
            EdonkeyParams(single_copy_fraction=0.0)
        with pytest.raises(ValueError):
            EdonkeyParams(avg_docs_per_peer=0)

    @pytest.mark.parametrize(
        "nonsense, message",
        [
            (dict(max_copies=1), "max_copies"),
            (dict(vocab_per_class=0), "vocab_per_class"),
            (dict(min_class_keywords=0), "min_class_keywords"),
            (dict(min_class_keywords=6, max_class_keywords=5), "min_class_keywords"),
            (dict(min_interests=0), "min_interests"),
            (dict(min_interests=5, max_interests=4), "min_interests"),
            (dict(max_interests=15), "max_interests <= 14"),
        ],
    )
    def test_nonsense_content_parameters_rejected_up_front(self, nonsense, message):
        """These used to surface half-way through synthesis, as ``low >=
        high`` from ``rng.integers`` or "cannot sample 15 distinct classes"."""
        with pytest.raises(ValueError, match=message):
            EdonkeyParams(**nonsense)

    @pytest.mark.parametrize(
        "nonsense, message",
        [
            (dict(mean_copies=1.0), r"replica targets unreachable \(mean_copies=1.0"),
            (dict(mean_copies=40.0), r"tail mean 355.545 must lie in \(2, 31.000\)"),
            (dict(max_copies=2, mean_copies=1.5), r"max_copies=2\): tail mean 5.545"),
            (dict(mean_copies=float("nan")), "replica targets unreachable"),
            (dict(single_copy_fraction=1.0), "forces mean_copies=1"),
            (dict(keyword_zipf_s=float("nan")), "keyword_zipf_s must be finite"),
            (dict(keyword_zipf_s=float("inf")), "keyword_zipf_s must be finite"),
            (dict(avg_docs_per_peer=float("inf")), "avg_docs_per_peer must be positive and finite"),
            (dict(avg_docs_per_peer=float("nan")), "avg_docs_per_peer must be positive and finite"),
        ],
    )
    def test_params_synthesis_cannot_meet_rejected_up_front(self, nonsense, message):
        """These used to pass and fail only inside ``synthesize_content``,
        after the substrate and overlay were built: unreachable replica
        targets in ``calibrate_replica_distribution``, a NaN exponent as
        "weights must be ... finite", an infinite document count as a bare
        ``OverflowError``."""
        with pytest.raises(ValueError, match=message):
            EdonkeyParams(**nonsense)

    def test_boundary_content_parameters_accepted_and_synthesise(self):
        params = EdonkeyParams(
            n_peers=30,
            avg_docs_per_peer=3.0,
            max_copies=3,  # 2 passes here but leaves the replica tail no room
            mean_copies=1.14,
            vocab_per_class=1,
            min_class_keywords=1,
            max_class_keywords=1,
            min_interests=14,
            max_interests=14,
        )
        dist = synthesize_content(params, np.random.default_rng(0))
        assert all(len(s) == 14 for s in dist.interests)
        assert all(len(d.keywords) == 2 for d in dist.index.all_documents())


class TestSynthesis:
    @pytest.fixture(scope="class")
    def dist(self) -> ContentDistribution:
        return synthesize_content(small_params(), np.random.default_rng(42))

    def test_replication_statistics_near_paper(self, dist):
        assert dist.index.mean_replica_count() == pytest.approx(1.28, abs=0.06)
        assert dist.index.single_copy_fraction() == pytest.approx(0.89, abs=0.03)

    def test_free_riders_share_nothing(self, dist):
        for node in np.nonzero(dist.free_rider)[0]:
            assert not len(dist.index.docs_of(int(node)))

    def test_free_riders_have_interests(self, dist):
        for node in np.nonzero(dist.free_rider)[0]:
            assert dist.interests[int(node)]

    def test_interest_invariant(self, dist):
        """Paper: a sharer's interests contain all classes of its content."""
        for node in range(dist.n_peers):
            assert dist.sharing_classes(node) <= dist.interests[node]

    def test_docs_per_sharer_near_target(self, dist):
        sharers = np.nonzero(~dist.free_rider)[0]
        counts = [len(dist.index.docs_of(int(n))) for n in sharers]
        assert np.mean(counts) == pytest.approx(8.0, rel=0.15)

    def test_placement_respects_interest_clustering(self, dist):
        """Every replica of a class-c doc sits on a peer interested in c."""
        for doc in dist.index.all_documents():
            for holder in dist.index.holders(doc.doc_id):
                assert doc.class_id in dist.interests[holder]

    def test_interest_counts_in_range(self, dist):
        for interests in dist.interests:
            assert 1 <= len(interests) <= 4

    def test_free_rider_fraction(self, dist):
        assert dist.free_rider.mean() == pytest.approx(0.2, abs=0.06)

    def test_deterministic(self):
        a = synthesize_content(small_params(), np.random.default_rng(7))
        b = synthesize_content(small_params(), np.random.default_rng(7))
        assert np.array_equal(a.free_rider, b.free_rider)
        assert a.interests == b.interests
        assert a.index.n_documents == b.index.n_documents
        for doc_a in a.index.all_documents():
            assert a.index.holders(doc_a.doc_id) == b.index.holders(doc_a.doc_id)

    def test_all_classes_valid(self, dist):
        for doc in dist.index.all_documents():
            assert 0 <= doc.class_id < N_CLASSES

    def test_next_doc_id_is_count(self, dist):
        assert dist.next_doc_id == dist.index.n_documents

    def test_all_free_riders_guard(self):
        params = small_params(n_peers=10, free_rider_fraction=0.99)
        dist = synthesize_content(params, np.random.default_rng(0))
        assert not dist.free_rider.all()


def test_a_2000_peer_workload_holds_under_4_mb():
    """``synthesize_content`` + ``generate_trace`` at 2,000 peers (the
    ``baselines_2k`` cell shape) leave under 4.0 MB of live allocations:
    2.7 MB as int32 columns, where the dict-of-sets index held 16.8 MB
    (15.9 MB of content, 0.9 MB more after the trace).  A first, smaller
    build runs outside the measurement, so imports and first-use caches
    do not count."""
    import gc
    import tracemalloc

    from repro.sim.random import RandomStreams
    from repro.simulation.config import scaled_config
    from repro.workload.generator import generate_trace

    def build(n_peers, n_queries, seed):
        config = scaled_config("flooding", "crawled", n_peers=n_peers, n_queries=n_queries, seed=seed)
        streams = RandomStreams(seed)
        dist = synthesize_content(config.edonkey, streams.get("content"))
        return dist, generate_trace(dist, config.trace, streams.get("trace"))

    build(300, 200, 1)
    gc.collect()
    tracemalloc.start()
    try:
        dist, trace = build(2000, 1000, 0)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dist.index.n_documents and trace.n_queries
    assert live < 4_000_000, f"{live:,} bytes live"
