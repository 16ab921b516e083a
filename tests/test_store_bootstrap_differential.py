"""Every source's filter from one keyword-position table, against the loop.

``SourceFilterStore`` hashes each distinct keyword of its content once and
joins the copies ``(node, doc)`` with that table into bit columns, one
block of nodes at a time; a removal clears the bits of the removed
document that the node's other documents, looked up the same way, do not
cover.  ``tests/oracles/store.py`` builds each node's filter as the union
of its documents' keyword positions, one node and one keyword at a time,
hashing with Python integers (``tests/oracles/bloom.py``).  The two must
agree on every column, set-bit count and topic set -- on generated indexes
with free-riders, keywords shared by several documents, registered but
unplaced documents, content on nodes the store does not cover and
keywords first seen after the store was built, and on synthesised
workloads at 1,000, 2,000 and 10,000 peers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asap.store import SourceFilterStore
from repro.bloom.hashing import BloomHasher
from repro.sim.random import RandomStreams
from repro.simulation.config import scaled_config
from repro.workload.content import ContentIndex, Document
from repro.workload.edonkey import synthesize_content
from repro.workload.generator import generate_trace

from tests.oracles.bloom import positions_reference
from tests.oracles.store import bootstrap_reference, removed_positions_reference

VOCAB = [f"kw{i}" for i in range(12)]


def assert_matches_oracle(store):
    cols, n_set, topics = bootstrap_reference(store.n_nodes, store.content, store.hasher)
    assert np.array_equal(store.matrix._cols, cols)
    assert np.array_equal(store._n_set, n_set)
    assert store._topics == topics


@st.composite
def indexes(draw):
    """``(n_nodes, index)``: documents over a small vocabulary (so keywords
    repeat within and across nodes), some left unplaced, and copies on up to
    two nodes past ``n_nodes`` that a store of ``n_nodes`` ignores."""
    n_nodes = draw(st.integers(1, 600))
    index = ContentIndex()
    n_docs = draw(st.integers(0, 40))
    for doc_id in range(n_docs):
        keywords = draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4, unique=True))
        index.register_document(
            Document(doc_id * 7 + 3, draw(st.integers(0, 13)), (f"title{doc_id}", *keywords))
        )
    if n_docs:
        copies = draw(
            st.lists(
                st.tuples(st.integers(0, n_nodes + 1), st.integers(0, n_docs - 1)),
                max_size=80,
                unique=True,
            )
        )
        for node, doc in copies:
            index.place(node, doc * 7 + 3)
    return n_nodes, index


hashers = st.sampled_from([BloomHasher(), BloomHasher(m=64, k=3), BloomHasher(m=8, k=5)])


@settings(max_examples=60, deadline=None)
@given(indexes(), hashers)
def test_bootstrap_matches_the_per_node_loop(case, hasher):
    n_nodes, index = case
    assert_matches_oracle(SourceFilterStore(n_nodes, index, hasher))


@settings(max_examples=40, deadline=None)
@given(indexes(), hashers, st.data())
def test_content_changes_match_the_oracle(case, hasher, data):
    """Adds with keywords the store's table never saw, then removals: each
    patch is exactly the oracle's changed bits and the columns stay equal."""
    n_nodes, index = case
    store = SourceFilterStore(n_nodes, index, hasher)
    fresh = Document(10_000, 5, ("newkw", data.draw(st.sampled_from(VOCAB))))
    index.register_document(fresh)
    node = data.draw(st.integers(0, n_nodes - 1))
    before = set(np.flatnonzero(store.matrix.row_bits(node)).tolist())
    index.place(node, fresh.doc_id)
    ad = store.apply_content_change(node, fresh, added=True)
    added = {p for t in fresh.keywords for p in positions_reference(t, hasher.m, hasher.k)}
    assert set(ad.changed_positions if ad else ()) == added - before
    assert_matches_oracle_columns(store)
    held = [
        (n, d) for n in range(n_nodes) for d in index.docs_of(n).tolist()
    ]
    for n, d in data.draw(st.permutations(held))[: data.draw(st.integers(0, len(held)))]:
        doc = index.document(d)
        index.remove(n, d)
        want = removed_positions_reference(index, hasher, n, doc.keywords)
        ad = store.apply_content_change(n, doc, added=False)
        assert set(ad.changed_positions if ad else ()) == want
        assert store.topics(n) == index.node_classes(n)
    assert_matches_oracle_columns(store)


def assert_matches_oracle_columns(store):
    """After content changes: current columns, counts and topics only (the
    matrix also holds history columns past ``n_nodes``)."""
    cols, n_set, topics = bootstrap_reference(store.n_nodes, store.content, store.hasher)
    assert np.array_equal(store.matrix._cols, cols)
    assert np.array_equal(store._n_set, n_set)
    assert {s: t for s, t in store._topics.items() if t} == topics


@pytest.mark.parametrize("n_peers", [1000, 2000, 10_000])
def test_synthesised_workload_matches_the_oracle(n_peers):
    """The content ``run_experiment`` hands ASAP: a seed's synthesis plus the
    trace's registered-but-unplaced content-add documents, on a fork."""
    config = scaled_config("asap_rw", "crawled", n_peers=n_peers, n_queries=600, seed=3)
    streams = RandomStreams(config.seed)
    dist = synthesize_content(config.edonkey, streams.get("content"))
    n_registered = dist.index.n_documents
    generate_trace(dist, config.trace, streams.get("trace"))
    assert dist.index.n_documents > n_registered
    assert_matches_oracle(SourceFilterStore(n_peers, dist.index.fork()))


def test_array_hashing_equals_python_integers():
    """One int64 expression over reduced halves == the unreduced formula,
    also where ``a + i * b`` itself is far past 2**64."""
    terms = ["", "x", "metallica live", "é∂", *VOCAB, *(f"title{i}" for i in range(500))]
    for m, k in ((11542, 8), (8, 1), (997, 5), (2**40 + 3, 8)):
        hasher = BloomHasher(m, k)
        table = hasher.positions_of(terms)
        assert table.shape == (len(terms), k) and table.dtype == np.int64
        assert [tuple(row) for row in table.tolist()] == [
            positions_reference(t, m, k) for t in terms
        ]
        assert hasher.positions("x") == positions_reference("x", m, k)
    assert BloomHasher().positions_of([]).shape == (0, 8)
    with pytest.raises(ValueError, match="must fit in int64"):
        BloomHasher(m=2**62, k=8)


def test_the_keyword_table_hashes_each_term_once():
    """``rows`` adds only keyword ids it has not seen, in first-seen order,
    hashing each id's string once; it grows the table without moving a
    row, and every reader reads the same rows."""
    index = ContentIndex(["a", "b", "c", "newkw", *(f"t{i}" for i in range(100))])
    a, b, c, newkw = (index.keyword_id(t) for t in ("a", "b", "c", "newkw"))
    hasher = BloomHasher(m=997, k=5, content=index)
    hashed = []
    real = hasher.positions_of

    def spy(terms):
        hashed.append(list(terms))
        return real(terms)

    hasher.positions_of = spy
    first = hasher.rows([b, a, b, c])
    assert first.tolist() == [0, 1, 0, 2] and hashed == [["b", "a", "c"]]
    again = hasher.rows([c, newkw, a, newkw])
    assert again.tolist() == [2, 3, 1, 3] and hashed[1:] == [["newkw"]]
    assert hasher.rows([]).tolist() == [] and len(hashed) == 2
    many = [f"t{i}" for i in range(100)]
    hasher.rows([index.keyword_id(t) for t in many])
    terms = ["b", "a", "c", "newkw", *many]
    assert [tuple(r) for r in hasher.table.tolist()] == [
        positions_reference(t, 997, 5) for t in terms
    ]
    assert hasher.positions("newkw") == positions_reference("newkw", 997, 5)
    assert hasher.positions_array(["a", "t7", "a"]).tolist() == sorted(
        set(positions_reference("a", 997, 5)) | set(positions_reference("t7", 997, 5))
    )
    assert len(hashed) == 3
    # A term no document has is hashed on the spot, every time, and kept
    # nowhere.
    for _ in range(2):
        assert hasher.positions("absent") == positions_reference("absent", 997, 5)
    assert hashed[3:] == [["absent"], ["absent"]]
    assert len(hasher.table) == 104


def test_a_bootstrapped_store_keys_its_hasher_by_keyword_id():
    """A store of a synthesised workload, bootstrapped and queried, holds
    no keyword string in its hasher: rows are an array indexed by keyword
    id and the query-term cache is keyed by id."""
    config = scaled_config("asap_rw", "crawled", n_peers=400, seed=3)
    dist = synthesize_content(config.edonkey, RandomStreams(3).get("content"))
    store = SourceFilterStore(400, dist.index.fork())
    hasher = store.hasher
    assert len(hasher.table) > 0
    doc = dist.index.document(0)
    store.hasher.positions_array([*doc.keywords, "no-such-term"])
    assert hasher._row.dtype == np.int64 and (hasher._row >= 0).sum() == len(hasher.table)
    assert hasher._tuples and all(type(key) is int for key in hasher._tuples)
    assert not any(isinstance(v, (str, dict)) for k, v in vars(hasher).items() if k != "_tuples")
