"""Tests for trace events, interest statistics and the trace generator."""

import hashlib

import numpy as np
import pytest

from repro.workload.edonkey import EdonkeyParams, synthesize_content
from repro.workload.generator import TraceParams, _zipf_index, generate_trace
from repro.workload.interests import (
    CLASS_WEIGHTS,
    N_CLASSES,
    assign_interests,
    class_node_counts,
    interest_node_counts,
)
from repro.workload.sampling import draw_distinct, table
from repro.workload.trace import (
    ContentChangeEvent,
    JoinEvent,
    LeaveEvent,
    QueryEvent,
    Trace,
)


class TestInterests:
    def test_sample_classes_distinct(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            classes = draw_distinct(rng, table(CLASS_WEIGHTS), 4)
            assert len(set(classes)) == 4

    def test_sample_too_many(self):
        with pytest.raises(ValueError):
            draw_distinct(np.random.default_rng(0), table(CLASS_WEIGHTS), N_CLASSES + 1)

    def test_assign_interests_bounds(self):
        rng = np.random.default_rng(1)
        interests = assign_interests(100, np.zeros(100, dtype=bool), rng)
        assert all(1 <= len(i) <= 4 for i in interests)

    def test_assign_interests_mask_mismatch(self):
        with pytest.raises(ValueError):
            assign_interests(10, np.zeros(5, dtype=bool), np.random.default_rng(0))

    def test_popular_classes_dominate(self):
        rng = np.random.default_rng(2)
        interests = assign_interests(3000, np.zeros(3000, dtype=bool), rng)
        counts = interest_node_counts(interests)
        assert counts[0] > counts[N_CLASSES - 1] * 3

    def test_class_node_counts(self):
        counts = class_node_counts([{0, 1}, {1}, set()], n_classes=3)
        assert list(counts) == [1, 2, 0]

    def test_interest_node_counts(self):
        counts = interest_node_counts([{0}, {0, 2}], n_classes=3)
        assert list(counts) == [2, 0, 1]

    def test_weights_sum_to_one(self):
        assert CLASS_WEIGHTS.sum() == pytest.approx(1.0)


class TestTraceContainer:
    def test_query_event_needs_terms(self):
        with pytest.raises(ValueError):
            QueryEvent(time=0.0, node=1, terms=(), target_doc=0)

    def test_trace_rejects_unsorted(self):
        events = [
            QueryEvent(time=2.0, node=1, terms=("a",), target_doc=0),
            QueryEvent(time=1.0, node=2, terms=("b",), target_doc=1),
        ]
        with pytest.raises(ValueError):
            Trace(events=events, duration=2.0)

    def test_trace_counters(self):
        events = [
            QueryEvent(time=0.5, node=1, terms=("a",), target_doc=0),
            ContentChangeEvent(time=0.6, node=1, doc_id=5, added=True),
            LeaveEvent(time=1.0, node=2),
            JoinEvent(time=2.0, node=2),
        ]
        trace = Trace(events=events, duration=2.0)
        assert trace.n_queries == 1
        assert sum(isinstance(e, ContentChangeEvent) for e in trace) == 1
        assert trace.n_joins == 1
        assert trace.n_leaves == 1
        assert len(trace) == 4
        assert len(trace.queries()) == 1


class TestZipfIndex:
    def test_single_element(self):
        assert _zipf_index(np.random.default_rng(0), 1, 0.7, {}) == 0

    def test_range(self):
        rng, tables = np.random.default_rng(0), {}
        for _ in range(100):
            assert 0 <= _zipf_index(rng, 10, 0.7, tables) < 10
        assert list(tables) == [10]  # one table, kept by the caller

    def test_skew(self):
        rng = np.random.default_rng(0)
        tables = {}
        draws = [_zipf_index(rng, 100, 1.2, tables) for _ in range(2000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 5 * max(tail, 1)


@pytest.fixture(scope="module")
def dist():
    return synthesize_content(
        EdonkeyParams(n_peers=300, avg_docs_per_peer=6.0),
        np.random.default_rng(3),
    )


@pytest.fixture(scope="module")
def trace(dist):
    params = TraceParams(
        n_queries=600, arrival_rate=8.0, n_joins=40, n_leaves=40
    )
    return generate_trace(dist, params, np.random.default_rng(4))


class TestGenerateTrace:
    def test_event_counts_near_targets(self, trace):
        assert trace.n_queries >= 570  # a few query slots may be dropped
        changes = sum(isinstance(e, ContentChangeEvent) for e in trace)
        assert changes >= 0.08 * trace.n_queries
        assert 0 < trace.n_leaves <= 40
        assert trace.n_joins <= trace.n_leaves  # joins recycle departed nodes

    def test_sorted_times(self, trace):
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_poisson_rate(self, trace):
        qtimes = [q.time for q in trace.queries()]
        rate = len(qtimes) / (qtimes[-1] - qtimes[0])
        assert rate == pytest.approx(8.0, rel=0.2)

    def test_queries_target_interesting_docs(self, trace, dist):
        for q in trace.queries()[:200]:
            doc = dist.index.document(q.target_doc)
            assert doc.class_id in dist.interests[q.node]

    def test_query_terms_come_from_target_doc(self, trace, dist):
        for q in trace.queries()[:200]:
            doc = dist.index.document(q.target_doc)
            assert set(q.terms) <= set(doc.keywords)
            assert 1 <= len(q.terms) <= 3

    def test_live_holder_guarantee(self, trace, dist):
        """Replaying liveness+content: every query has a live matching holder."""
        live = np.ones(dist.n_peers, dtype=bool)
        holders = {
            d.doc_id: set(dist.index.holders(d.doc_id))
            for d in dist.index.all_documents()
        }
        for event in trace.events:
            if isinstance(event, JoinEvent):
                live[event.node] = True
            elif isinstance(event, LeaveEvent):
                live[event.node] = False
            elif isinstance(event, ContentChangeEvent):
                hs = holders.setdefault(event.doc_id, set())
                if event.added:
                    hs.add(event.node)
                else:
                    hs.discard(event.node)
            else:
                assert any(
                    h != event.node and live[h]
                    for h in holders.get(event.target_doc, ())
                ), f"query at t={event.time} has no live holder"

    def test_churn_consistency(self, trace):
        """No double-joins or double-leaves."""
        live = {}
        for event in trace.events:
            if isinstance(event, JoinEvent):
                assert live.get(event.node, True) is False
                live[event.node] = True
            elif isinstance(event, LeaveEvent):
                assert live.get(event.node, True) is True
                live[event.node] = False

    def test_content_changes_reference_known_docs(self, trace, dist):
        for event in trace.events:
            if isinstance(event, ContentChangeEvent):
                dist.index.document(event.doc_id)  # must not raise

    def test_deterministic(self):
        # generate_trace registers new documents (content additions) on the
        # shared index, so determinism is checked on two fresh distributions.
        params = TraceParams(n_queries=100, n_joins=5, n_leaves=5)
        traces = []
        for _ in range(2):
            d = synthesize_content(
                EdonkeyParams(n_peers=200, avg_docs_per_peer=5.0),
                np.random.default_rng(8),
            )
            traces.append(generate_trace(d, params, np.random.default_rng(9)))
        a, b = traces
        assert len(a) == len(b)
        assert [e.time for e in a.events] == [e.time for e in b.events]
        assert [type(e).__name__ for e in a.events] == [
            type(e).__name__ for e in b.events
        ]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TraceParams(n_queries=0)
        with pytest.raises(ValueError):
            TraceParams(arrival_rate=0)
        with pytest.raises(ValueError):
            TraceParams(content_change_fraction=1.5)
        with pytest.raises(ValueError):
            TraceParams(n_joins=-1)
        with pytest.raises(ValueError):
            TraceParams(max_terms=0)

    @pytest.mark.parametrize(
        "field",
        ["content_change_fraction", "addition_fraction", "title_term_prob",
         "min_live_fraction"],
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_fractions_outside_unit_interval_rejected(self, field, value):
        """Rejected by name: ``min_live_fraction=1.5`` would drop every churn
        slot without a word."""
        with pytest.raises(ValueError, match=f"{field} must be in"):
            TraceParams(**{field: value})
        TraceParams(**{field: 1.0})
        TraceParams(**{field: 0.0})

    def test_a_second_trace_over_one_distribution_mints_fresh_ids(self):
        d = synthesize_content(
            EdonkeyParams(n_peers=100, avg_docs_per_peer=3.0),
            np.random.default_rng(5),
        )
        params = TraceParams(n_queries=100, n_joins=5, n_leaves=5)
        first = generate_trace(d, params, np.random.default_rng(6))
        assert d.next_doc_id == d.index.n_documents
        second = generate_trace(d, params, np.random.default_rng(7))
        assert d.next_doc_id == d.index.n_documents
        added = [
            [e.doc_id for e in trace if isinstance(e, ContentChangeEvent) and e.added]
            for trace in (first, second)
        ]
        assert added[0] and added[1]
        assert not set(added[0]) & set(added[1])


def test_generator_draws_are_pinned():
    """Event digest and RNG end state of a trace with additions, removals
    and churn, recorded before the sharer scan and the live-node list
    became arrays: any change to what the generator draws, or in which
    order, moves one of them."""
    dist = synthesize_content(EdonkeyParams(n_peers=800), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    params = TraceParams(
        n_queries=600, content_change_fraction=0.3, n_joins=200, n_leaves=200
    )
    trace = generate_trace(dist, params, rng)
    digest = hashlib.blake2b(digest_size=16)
    for e in trace.events:
        digest.update(f"{type(e).__name__},{e.time.hex()},{e.node}".encode())
        if isinstance(e, QueryEvent):
            digest.update(f",{'+'.join(e.terms)},{e.target_doc}".encode())
        elif isinstance(e, ContentChangeEvent):
            digest.update(f",{e.doc_id},{int(e.added)}".encode())
        digest.update(b";")
    changes = [e for e in trace.events if isinstance(e, ContentChangeEvent)]
    assert (trace.n_joins, trace.n_leaves, len(changes)) == (200, 200, 180)
    assert sum(e.added for e in changes) == 116
    assert digest.hexdigest() == "8ad537b950c3674bc63208c29b247930"
    assert rng.bit_generator.state["state"] == {
        "state": 55437594148921474749113774264297999445,
        "inc": 278272906083703887290699702293328866393,
    }


def test_trace_generation_keeps_no_sampling_table():
    """Every Zipf table ``generate_trace`` builds at 2,000 peers lives in
    that call: once it returns, nothing the table constructors allocated
    is still held (the parent commit's cache kept 0.8 MB of them)."""
    import gc
    import inspect
    import tracemalloc

    from repro.workload import sampling

    constructors = [
        tracemalloc.Filter(True, inspect.getsourcefile(sampling), lineno)
        for function in (sampling.table, sampling._cdf, sampling.zipf_table)
        for lines, first in [inspect.getsourcelines(function)]
        for lineno in range(first, first + len(lines))
    ]

    params = EdonkeyParams(n_peers=2000)
    dist = synthesize_content(params, np.random.default_rng(5))
    tracemalloc.start()
    try:
        trace = generate_trace(
            dist, TraceParams(n_queries=2000, n_joins=60, n_leaves=60),
            np.random.default_rng(6),
        )
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces(constructors)
    finally:
        tracemalloc.stop()
    assert len(trace.queries()) == 2000
    assert sum(stat.size for stat in held.statistics("filename")) == 0
