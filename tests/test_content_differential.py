"""The int32-column content index against the dict-of-sets one
(``tests/oracles/content.py``).

Drawn scripts build an index from arrays (documents, copies) and the
oracle from the same documents one at a time, then apply registrations,
placements, removals (of built and of added copies, valid or not) and
forks of any index so far, forks of forks included.  After every step each
index answers every public query as its oracle does, compared as sets:
documents, matching documents and nodes, per-node matches, documents,
classes and keyword multisets, whether a node holds every term in some
document, holders, copies and the replica statistics.  Since every oracle
fork is independent of the others, a change leaking from a fork to its
parent, a sibling or a child, or back, shows as a mismatch.  A second pair of cases holds ``synthesize_content``
at 400 and 2,000 peers equal to the oracle fed the same draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import RandomStreams
from repro.simulation.config import scaled_config
from repro.workload.content import ContentIndex, Document, title_key, word_key
from repro.workload.edonkey import synthesize_content

from tests.oracles.content import DictContentIndex, synthesize_reference

VOCAB = [f"w{i}" for i in range(5)]
#: Query terms: vocabulary words, titles of documents that may exist, a
#: word only registered documents use and one no document has.
TERMS = VOCAB + ["title0", "title2", "title9", "x", "nothing"]
N_NODES = 4
MAX_DOC = 7

keyword_lists = st.lists(st.sampled_from(TERMS[:-1]), min_size=1, max_size=3)


@st.composite
def scripts(draw):
    n_docs = draw(st.integers(0, 5))
    documents = [
        Document(
            d,
            draw(st.integers(0, 4)),
            (f"title{d}", *draw(st.lists(st.sampled_from(VOCAB), max_size=3))),
        )
        for d in range(n_docs)
    ]
    copies = draw(
        st.lists(
            st.tuples(st.integers(0, N_NODES - 1), st.integers(0, max(n_docs - 1, 0))),
            max_size=16 if n_docs else 0,
            unique=True,
        )
    )
    which = st.integers(0, 5)
    doc = st.integers(0, MAX_DOC)
    # Half of the changes name a built copy, so tombstones are common.
    pair = st.tuples(st.integers(0, N_NODES), doc)
    if copies:
        pair = st.one_of(st.sampled_from(copies), pair)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("register"), which, doc, st.integers(0, 4), keyword_lists),
                st.tuples(st.sampled_from(["place", "remove"]), which, pair),
                st.tuples(st.just("fork"), which),
            ),
            max_size=25,
        )
    )
    queries = draw(st.lists(st.lists(st.sampled_from(TERMS), min_size=2, max_size=3), max_size=4))
    return documents, copies, steps, [[t] for t in TERMS] + queries


def built(documents, copies):
    """The column index of ``documents`` and ``copies``, from arrays."""
    keys = [
        title_key(int(kw[5:])) if kw.startswith("title") else word_key(VOCAB.index(kw))
        for d in documents
        for kw in d.keywords
    ]
    placed = np.array(copies, dtype=np.int32).reshape(-1, 2)
    return ContentIndex.from_arrays(
        VOCAB,
        np.array([d.class_id for d in documents], dtype=np.int32),
        np.array([len(d.keywords) for d in documents], dtype=np.int32),
        np.array(keys, dtype=np.int32),
        placed[:, 0],
        placed[:, 1],
    )


def outcome(call, *args):
    """The exception type ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except (KeyError, ValueError) as exc:
        return type(exc)
    return None


def assert_same(index, oracle, term_lists):
    assert index.n_documents == len(oracle._documents)
    for d in range(MAX_DOC + 1):
        if d in oracle._documents:
            assert index.document(d) == oracle.document(d)
        else:
            assert outcome(index.document, d) is KeyError
        assert index.holders(d) == oracle.holders(d)
    for terms in term_lists:
        assert set(index.docs_matching(terms).tolist()) == oracle.docs_matching(terms)
        assert set(index.nodes_matching(terms).tolist()) == oracle.nodes_matching(terms)
        for n in range(N_NODES + 1):
            assert index.node_matches(n, terms) == oracle.node_matches(n, terms)
            assert index.holds_keywords(n, terms) == oracle.holds_keywords(n, terms)
    for n in range(N_NODES + 1):
        assert set(index.docs_of(n).tolist()) == oracle.docs_on(n)
        assert index.node_classes(n) == oracle.node_classes(n)
        assert index.node_keywords(n) == oracle.node_keywords(n)
    nodes, doc_ids = index.copies()
    assert set(zip(nodes.tolist(), doc_ids.tolist())) == set(zip(*oracle.copies()))
    assert index.mean_replica_count() == oracle.mean_replica_count()
    assert index.single_copy_fraction() == oracle.single_copy_fraction()


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_column_index_matches_the_dict_index(script):
    documents, copies, steps, term_lists = script
    oracle = DictContentIndex()
    oracle.fill(documents, copies)
    pairs = [(built(documents, copies), oracle)]
    assert_same(*pairs[0], term_lists)
    for kind, which, *args in steps:
        which %= len(pairs)
        index, oracle = pairs[which]
        if kind == "register" and which == 0 and len(pairs) > 1:
            # The oracle's forks see a later registration only until they
            # copy their maps; the simulator registers nothing after forking.
            continue
        if kind == "fork":
            pairs.append((index.fork(), oracle.fork()))
        elif kind == "register":
            doc_id, class_id, keywords = args
            doc = Document(doc_id, class_id, tuple(keywords))
            assert outcome(index.register_document, doc) == outcome(
                oracle.register_document, doc
            )
        else:
            (node, doc_id), = args
            assert outcome(getattr(index, kind), node, doc_id) == outcome(
                getattr(oracle, kind), node, doc_id
            )
        for pair in pairs:
            assert_same(*pair, term_lists)


def test_a_frozen_index_refuses_changes_and_its_forks_take_them():
    index = built([Document(0, 1, ("title0", "w1"))], [(3, 0)])
    index.freeze()
    with pytest.raises(ValueError, match="read-only"):
        index.place(4, 0)
    with pytest.raises(ValueError, match="read-only"):
        index.register_document(Document(1, 0, ("title1",)))
    with pytest.raises(ValueError, match="read-only"):
        index._node[0] = 5
    fork = index.fork()
    fork.remove(3, 0)
    fork.place(4, 0)
    assert fork.holders(0) == {4} and index.holders(0) == {3}


@pytest.mark.parametrize("n_peers", [400, 2000])
def test_synthesised_content_equals_the_oracle(n_peers):
    """The same draws, the same workload: every document, keyword posting,
    holder set, node's documents, classes and keywords (and whether it holds
    a pair of them), the statistics and the stream's final state."""
    params = scaled_config("asap_rw", "crawled", n_peers=n_peers, seed=5).edonkey
    rng, ref_rng = (RandomStreams(5).get("content") for _ in range(2))
    dist = synthesize_content(params, rng)
    oracle, interests, free_rider = synthesize_reference(params, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert dist.interests == interests
    assert np.array_equal(dist.free_rider, free_rider)
    index = dist.index
    assert dist.next_doc_id == index.n_documents == len(oracle._documents)
    assert index.all_documents() == list(oracle.all_documents())
    for kw, docs in oracle._kw_docs.items():
        assert set(index.docs_matching([kw]).tolist()) == docs
    for doc_id, holders in oracle._holders.items():
        assert index.holders(doc_id) == holders
    for n in range(n_peers):
        assert set(index.docs_of(n).tolist()) == oracle.docs_on(n)
        assert index.node_classes(n) == oracle.node_classes(n)
        assert index.node_keywords(n) == oracle.node_keywords(n)
        mine = sorted(oracle.node_keywords(n))
        for terms in (mine[:2], mine[:1] + index.keywords([word_key(n % 50)])):
            assert index.holds_keywords(n, terms) == oracle.holds_keywords(n, terms)
    nodes, doc_ids = index.copies()
    assert sorted(zip(nodes.tolist(), doc_ids.tolist())) == sorted(zip(*oracle.copies()))
    assert index.mean_replica_count() == oracle.mean_replica_count()
    assert index.single_copy_fraction() == oracle.single_copy_fraction()
