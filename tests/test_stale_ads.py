"""Stale ads at array speed: the three moves, each against its oracle.

* every filter version is a matrix column -- the store's history columns vs
  the patch-parity replay of ``tests/oracles/store.py`` and vs the bitmaps
  the filter actually had; the patch each content change mints, derived from
  the content index and the column, vs the counting filter of
  ``tests/oracles/bloom.py`` fed the same documents;
* a lookup reads behind entries off those columns in one gather -- rows
  with a hundred behind entries at several versions of one source vs the
  object repository of ``tests/oracles/repository.py``;
* a delivery repairs its lagging receivers in one step -- ledger buckets,
  ``entry`` / ``stamp`` words and the order ``obs.repairs`` is told in vs
  the pull-per-receiver repair of ``tests/oracles/asap.py``.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asap.protocol import AsapSearch
from repro.asap.store import FilterVersionError, SourceFilterStore
from repro.bloom.hashing import BloomHasher
from repro.bloom import matrix as matrix_module
from repro.network.overlay import Overlay
from repro.network.substrate import get_substrate
from repro.network.topology import build_topology
from repro.search.base import ADS_REQUEST_BYTES
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.simulation import runner
from repro.workload.content import ContentIndex, Document
from repro.workload.interests import topic_bits

from tests.oracles.asap import OracleAsapSearch
from tests.oracles.bloom import BloomFilter, CountingBloomFilter
from tests.oracles.repository import AdsRepository, StateRow
from tests.oracles.store import match_at_version_reference, patch_history
from tests.test_golden_fingerprints import golden_configs
from tests.test_soa_differential import churn_store, make_state, make_store
from tests.test_walk_kernels_differential import ledger_state

KEYWORDS = [f"kw{i}" for i in range(24)]


# ------------------------------------------------ every version is a column
class VersionedStore:
    """A store plus the bitmap each source really had at each version, and
    per source the counting filter of Section III-B fed the same documents."""

    def __init__(self, n_nodes=3, m=256, k=3):
        self.index = ContentIndex()
        self.store = SourceFilterStore(n_nodes, self.index, BloomHasher(m=m, k=k))
        self.held = {node: [] for node in range(n_nodes)}
        self.bitmaps = {node: [self.store.matrix.row_bits(node)] for node in self.held}
        self.counting = {
            node: CountingBloomFilter(self.store.hasher) for node in self.held
        }

    def change(self, node, keywords, add):
        """One content change, index first; returns the patch ad (or None),
        which is what the counting filter says it must be."""
        if add:
            doc = Document(
                len(self.index.all_documents()), ord(keywords[0][-1]) % 4,
                tuple(keywords),
            )
            self.index.register_document(doc)
            self.index.place(node, doc.doc_id, notify=False)
            self.held[node].append(doc)
        elif self.held[node]:
            doc = self.held[node].pop(0)
            self.index.remove(node, doc.doc_id, notify=False)
        else:
            return None
        store, counting = self.store, self.counting[node]
        before = counting.bitmap_bits()
        (counting.add_all if add else counting.remove_all)(doc.keywords)
        flipped = counting.diff_positions(before)
        ad = store.apply_content_change(node, doc, add)
        if len(flipped):
            self.bitmaps[node].append(store.matrix.row_bits(node))
            assert ad.changed_positions == tuple(flipped.tolist())
            assert ad.version == len(self.bitmaps[node]) - 1
            assert ad.topics == store.topics(node)
        else:
            assert ad is None
        assert store.version(node) == len(self.bitmaps[node]) - 1
        assert np.array_equal(store.matrix.row_bits(node), counting.bitmap_bits())
        assert store.n_set_bits(node) == counting.n_set
        assert store.is_sharer(node) == bool(self.held[node])
        assert store.topics(node) == {held.class_id for held in self.held[node]}
        return ad

    def check(self, rng, n_queries=12):
        store = self.store
        queries = [
            rng.integers(0, store.hasher.m, size=rng.integers(1, 5))
            for _ in range(n_queries)
        ] + [store.hasher.positions_array([kw]) for kw in KEYWORDS[:6]]
        matches = [store.match_current(q) for q in queries]
        for node, bitmaps in self.bitmaps.items():
            assert store.version(node) == len(bitmaps) - 1
            versions = np.arange(len(bitmaps))
            columns = store.columns_of(np.full(len(bitmaps), node), versions)
            assert columns[-1] == node and len(set(columns.tolist())) == len(columns)
            for version, column in enumerate(columns.tolist()):
                assert np.array_equal(store.matrix.row_bits(column), bitmaps[version])
                for query, match in zip(queries, matches):
                    assert match[column] == match_at_version_reference(
                        store, node, version, query
                    )
        assert len(matches[0]) == store.matrix.n_columns == store.n_nodes + sum(
            len(b) - 1 for b in self.bitmaps.values()
        )


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=4, unique=True),
            st.booleans(),
        ),
        max_size=50,
    ),
    seed=st.integers(0, 2**16),
)
def test_every_issued_version_keeps_its_column(ops, seed):
    versioned = VersionedStore()
    for node, keywords, add in ops:
        versioned.change(node, keywords, add)
    versioned.check(np.random.default_rng(seed))


def test_history_grows_past_its_first_capacity_and_keeps_old_columns():
    versioned = VersionedStore(m=8192)
    rng = np.random.default_rng(5)
    first = matrix_module._FIRST_HISTORY
    for step in range(6 * first):
        # Fresh keywords: nearly every change flips bits, so nearly every
        # step issues a version; source 0 alone outgrows the table's width.
        versioned.change(step % 7 and 1, [f"grow{step}", f"more{step}"], add=True)
        if step in (first - 1, first, first + 1, 2 * first + 1):
            versioned.check(rng, n_queries=3)
    store = versioned.store
    assert store.matrix.n_columns > store.n_nodes + 4 * first
    assert store.version(1) > 4 * first > store.version(0) > 0
    assert store._column.shape[1] > store.version(1) > first
    versioned.check(rng)


def test_a_version_never_issued_is_a_named_error():
    versioned = VersionedStore()
    versioned.change(1, ["kw0"], add=True)
    store = versioned.store
    assert store.columns_of(np.array([1, 1, 0]), np.array([0, 1, 0])).tolist() == [3, 1, 0]
    for source, version in ((1, 2), (0, 1), (2, -1)):
        with pytest.raises(FilterVersionError, match=f"source {source} never issued"):
            store.columns_of(np.array([1, source]), np.array([0, version]))


def test_the_changes_a_counting_filter_exists_for():
    """A free-rider's first document, an add and a removal whose keywords
    all stay covered, a keyword whose double hash repeats a position, and a
    sharer's last document: ``change`` checks each against the counting
    filter, here they are made to happen."""
    versioned = VersionedStore(n_nodes=2, m=255, k=8)
    store = versioned.store
    folded = next(
        kw for kw in (f"fold{i}" for i in itertools.count())
        if len(set(store.hasher.positions(kw))) < store.hasher.k
    )
    assert not store.is_sharer(0) and store.make_full_ad(0) is None
    first = versioned.change(0, ["kw1"], add=True)
    assert first.version == 1 and store.is_sharer(0)
    assert store.make_full_ad(0).n_set_bits == len(first.changed_positions)
    assert versioned.change(0, ["kw1", "kw2"], add=True) is not None
    assert versioned.change(0, ["kw1"], add=True) is None
    ad = versioned.change(0, [folded, "kw2"], add=True)
    assert set(ad.changed_positions) == set(store.hasher.positions(folded)) - set(
        store.hasher.positions_array(["kw1", "kw2"]).tolist()
    )
    # Removals take the oldest document: ["kw1"] and ["kw1", "kw2"] go while
    # a later ["kw1"] and [folded, "kw2"] still cover every keyword of theirs.
    assert versioned.change(0, (), add=False) is None
    assert versioned.change(0, (), add=False) is None
    assert store.version(0) == 3
    gone = versioned.change(0, (), add=False)  # the last ["kw1"]
    assert set(gone.changed_positions) == set(store.hasher.positions("kw1")) - set(
        store.hasher.positions_array([folded, "kw2"]).tolist()
    )
    last = versioned.change(0, (), add=False)
    assert last.version == 5 and not store.is_sharer(0) and store.topics(0) == set()
    assert store.n_set_bits(0) == 0 and store.make_full_ad(0) is None
    assert not store.matrix.row_bits(0).any() and store.version(1) == 0
    versioned.check(np.random.default_rng(0))


def test_a_change_the_index_or_the_column_contradicts_writes_nothing():
    versioned = VersionedStore()
    store, index = versioned.store, versioned.index
    versioned.change(1, ["kw0", "kw1"], add=True)
    versioned.change(1, ["kw2"], add=True)
    held, unplaced, behind_its_back = (
        index.document(0), Document(7, 0, ("kw3",)), Document(8, 0, ("kw0", "kw4")),
    )
    index.register_document(unplaced)
    index.register_document(behind_its_back)

    def frozen():
        return (
            store.matrix.row_bits(1).tolist(), store.matrix.n_columns,
            store.n_set_bits(1), store.version(1), patch_history(store, 1),
            store.topics(1),
        )

    before = frozen()
    for doc, added, message in (
        (unplaced, True, "node 1 does not hold document 7"),
        (held, False, "node 1 still holds document 0"),
        (unplaced, False, "node 1's filter never held document 7"),
    ):
        with pytest.raises(ValueError, match=message):
            store.apply_content_change(1, doc, added)
        assert frozen() == before
    # Placed and removed without the store hearing of the placement: kw0's
    # bits are set (document 0), kw4's never were.
    index.place(1, 8, notify=False)
    index.remove(1, 8, notify=False)
    with pytest.raises(ValueError, match="node 1's filter never held document 8"):
        store.apply_content_change(1, behind_its_back, added=False)
    assert frozen() == before


def test_set_bit_counts_are_the_columns_popcounts_after_a_churn_cell():
    """After a golden cell's 225 content changes every column is the Bloom
    filter of what its source shares now, and ``n_set_bits`` its popcount."""
    built = []
    build = runner.build_algorithm

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    with mock.patch.object(runner, "build_algorithm", keep):
        runner.run_experiment(golden_configs()["asap_rw/seed0/paper_ratio"])
    store = built[0].store
    assert sum(store.version(s) for s in range(store.n_nodes)) > 100
    for source in range(store.n_nodes):
        shared = BloomFilter(store.hasher)
        for doc_id in store.content.docs_of(source).tolist():
            shared.add_all(store.content.document(doc_id).keywords)
        assert np.array_equal(store.matrix.row_bits(source), shared.bits_view())
        assert store.n_set_bits(source) == shared.n_set


# --------------------------------------------- a lookup is one more gather
@pytest.mark.parametrize("seed", [0, 1])
def test_lookup_reads_a_hundred_behind_entries_at_several_versions(seed):
    """Four peers cache every source, each after one more round of content
    changes: one source is held at up to four versions, all but the last
    peer's rows are mostly behind, and every row answers like the oracle's."""
    store, dist = make_store(seed, n_nodes=160)
    rng = np.random.default_rng(seed + 40)
    interests = set(range(20))
    state = make_state(store, interests)
    peers = [0, 1, 2, 3]
    oracles = [
        AdsRepository(owner=p, interests=interests, store=store) for p in peers
    ]
    for now, peer in enumerate(peers, 1):
        for src in range(store.n_nodes):
            ad = store.make_full_ad(src)
            if ad is not None and src != peer:
                stored, evicted = state.accept(ad, float(now), np.array([peer]))
                assert (bool(stored[0]), [v for _, v in evicted]) == oracles[peer].accept(
                    ad, float(now)
                )
        churn_store(store, dist, rng, n_changes=600)
    for src in range(store.n_nodes):
        # A patch that reached only the caches already at its version.
        lagging = [
            p for p in peers
            if src in oracles[p] and oracles[p].entry(src).version < store.version(src)
        ]
        state.mark_missed(src, np.setdiff1d(peers, lagging))
        for peer in lagging:
            oracles[peer].mark_behind(src)
    behind = state.behind_mask(peers)
    assert behind.sum(axis=1).min() >= 100
    cached = state.versions(np.array(peers)[:, None], np.arange(store.n_nodes))
    distinct = [len(set(cached[behind[:, s], s].tolist())) for s in range(store.n_nodes)]
    assert max(distinct) >= 3 and sum(d >= 3 for d in distinct) >= 10
    vocabulary = sorted(
        {kw for doc in dist.index.all_documents() for kw in doc.keywords}
    )
    stale_hits = 0
    for _ in range(150):
        terms = list(rng.choice(vocabulary, size=rng.integers(1, 3), replace=False))
        positions = store.hasher.positions_array(terms)
        match = store.match_current(positions)
        for peer in peers:
            got = StateRow(state, peer).lookup(match)
            assert got == oracles[peer].lookup(positions, match)
            stale_hits += int(behind[peer, got].sum())
            # Answering a behind entry from the current filter would differ.
            stale_hits += sum(
                bool(match[s]) != (s in got)
                for s in np.flatnonzero(behind[peer]).tolist()
            )
    assert stale_hits > 0


# ----------------------------------------- a delivery repairs in one step
class PulledRow(StateRow):
    """What ``OracleAsapSearch._repair_entry`` asks of the receiver's
    repository, as one-element array calls on the product's state."""

    def remove(self, source):
        self.state.remove(self.owner, source)

    def accept_snapshot(self, source, version, topics, now):
        self.state.accept_repair(
            np.array([self.owner]), source, version, topic_bits(topics), now
        )


class PullPerReceiver(AsapSearch):
    """The product with its batched repair swapped for the oracle's: one
    plan per pull, one pull per lagging receiver, in the order given."""

    _repair_plan = OracleAsapSearch._repair_plan
    _repair_entry = OracleAsapSearch._repair_entry

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.repos = [PulledRow(self.state, i) for i in range(self.overlay.n)]

    def _repair(self, source, now, lagging):
        for node in lagging.tolist():
            self._repair_entry(node, source, now, self._repair_plan(source))


class Repairs:
    """An ``obs`` that keeps what :meth:`Instrumentation.repairs` is told,
    one entry per receiver."""

    def __init__(self):
        self.told = []

    def repairs(self, now, nodes, source, request_bytes, replies, categories):
        self.told.extend(
            (now, node, source, float(request_bytes), float(reply_bytes), category)
            for node, reply_bytes, category in zip(nodes, replies, categories)
        )


N, SOURCE = 90, 0
BOTH, OLD_ONLY = {0, 1}, {0}


class Arms:
    """The same hand-driven deliveries into the product and the
    pull-per-receiver arm: physical latencies (so replies straddle seconds),
    receivers handed over ascending."""

    def __init__(self):
        substrate = get_substrate(seed=0)
        topology = build_topology(
            "random", N, rng=np.random.default_rng(3), network=substrate.network
        )
        self.interests = [BOTH if i % 3 else OLD_ONLY for i in range(N)]
        self.arms = []
        for cls in (AsapSearch, PullPerReceiver):
            content = ContentIndex()
            algo = cls(
                Overlay(topology, substrate.latency), content, BandwidthLedger(),
                rng=np.random.default_rng(0),
                interests=[set(i) for i in self.interests],
            )
            algo.attach(Repairs())
            self.arms.append(algo)
        self.next_doc = 0
        self.now = 1.0

    def change(self, keywords, class_id=0, remove=None):
        """One content change at the source; returns each arm's patch ad."""
        ads = []
        for algo in self.arms:
            if remove is None:
                doc = Document(self.next_doc, class_id, tuple(keywords))
                algo.content.register_document(doc)
                algo.content.place(SOURCE, doc.doc_id, notify=False)
            else:
                doc = algo.content.document(remove)
                algo.content.remove(SOURCE, remove, notify=False)
            ads.append(algo.store.apply_content_change(SOURCE, doc, remove is None))
        self.next_doc += remove is None
        assert ads[0] == ads[1] and ads[0] is not None
        return ads

    def deliver(self, ads, receivers, dt=0.83):
        """Merge one delivered ad per arm at ``receivers``, ascending as a
        forwarder hands them over."""
        self.now += dt
        for algo, ad in zip(self.arms, ads):
            algo._merge_ad(ad, self.now, np.asarray(sorted(receivers), dtype=np.int64))

    def minted(self, kind):
        return [getattr(algo.store, f"make_{kind}_ad")(SOURCE) for algo in self.arms]

    def check(self):
        product, oracle = self.arms
        assert np.array_equal(product.state.entry, oracle.state.entry)
        assert np.array_equal(product.state.stamp, oracle.state.stamp)
        assert (product.state.occupancy == oracle.state.occupancy).all()
        assert product.state._times == oracle.state._times
        # Exact float equality, second by second and category by category.
        assert ledger_state(product.ledger) == ledger_state(oracle.ledger)
        assert product.obs.told == oracle.obs.told
        return product


def staggered(arms, rounds):
    """Full ad to everyone, then ``rounds`` patches that each reach fewer
    receivers: afterwards caches lag by 0 .. ``rounds`` versions."""
    everyone = range(1, N)
    arms.change(["base", "line"])
    arms.deliver(arms.minted("full"), everyone)
    for step in range(rounds):
        ads = arms.change([f"s{step}a", f"s{step}b", f"s{step}c"])
        arms.deliver(ads, [v for v in everyone if v % (rounds + 1) > step])
    return everyone


def test_batched_repair_books_what_the_pulls_would():
    """The pulls are booked a second at a time: every bucket holds the float
    the pulls would have left one by one, also a bucket (and a category
    total) that held bytes before."""
    arms = Arms()
    everyone = staggered(arms, rounds=4)
    product = arms.check()
    lag = product.store.version(SOURCE) - product.state.versions(
        np.asarray(everyone), SOURCE
    )
    assert sorted(set(lag.tolist())) == [0, 1, 2, 3, 4]
    before = len(product.obs.told)
    asked = []
    latencies = product.overlay.direct_latencies_ms
    product.overlay.direct_latencies_ms = lambda us, vs: (
        asked.append((us, vs)) or latencies(us, vs)
    )
    # Two deliveries 50 ms apart, late in a second: the pulls straddle its
    # end and the second delivery's land in buckets the first one's opened.
    arms.deliver(arms.minted("refresh"), everyone[::2], dt=0.65)
    arms.deliver(arms.minted("refresh"), everyone[1::2], dt=0.05)
    product = arms.check()
    told = product.obs.told[before:]
    assert len(told) == int((lag > 0).sum()) and len({t[1] for t in told}) == len(told)
    assert [t[1] for t in told] != sorted(t[1] for t in told)
    assert {t[5] for t in told} == {TrafficCategory.PATCH_AD}
    assert len({t[4] for t in told}) == 4  # one reply size per gap
    assert not product.state.behind_mask(np.asarray(everyone), SOURCE).any()
    # (receiver, source): ``pairwise_ms(us, vs)`` adds us's offsets first.
    assert [np.ndim(us) for us, _ in asked] == [1, 1]
    assert [np.ndim(vs) or vs for _, vs in asked] == [SOURCE, SOURCE]
    assert sorted(np.concatenate([us for us, _ in asked]).tolist()) == sorted(
        t[1] for t in told
    )
    replies = np.flatnonzero(product.ledger.per_second()[TrafficCategory.PATCH_AD])
    assert len(replies) >= 2  # they straddle a second boundary
    requests = product.ledger.category_totals()[TrafficCategory.ADS_REQUEST]
    assert requests == len(told) * ADS_REQUEST_BYTES


def test_full_ad_answers_a_pull_that_missed_more_than_it_holds():
    """The source grows by a many-keyword document, drops it again and adds
    one keyword: a cache that missed all three patches is sent the full ad
    (smaller than the bits it missed), one that missed the last the patch."""
    arms = Arms()
    everyone = range(1, N)
    arms.change([f"base{i}" for i in range(20)])
    arms.deliver(arms.minted("full"), everyone)
    big = arms.next_doc
    arms.deliver(arms.change([f"bulk{i}" for i in range(40)]), everyone[1::2])
    arms.deliver(arms.change((), remove=big), everyone[1::2])
    arms.deliver(arms.change(["coda"]), [])
    before = len(arms.check().obs.told)
    arms.deliver(arms.minted("refresh"), everyone)
    product = arms.check()
    told = {t[1]: t for t in product.obs.told[before:]}
    assert sorted(told) == list(everyone)
    full = product.store.make_full_ad(SOURCE).size_bytes()
    for node, (_, _, _, _, reply_bytes, category) in told.items():
        if node % 2:
            assert category is TrafficCategory.FULL_AD and reply_bytes == full
        else:
            assert category is TrafficCategory.PATCH_AD and reply_bytes < full / 4
    assert not product.state.behind_mask(np.asarray(everyone), SOURCE).any()


def test_a_source_that_shares_nothing_any_more_is_dropped_for_a_request():
    arms = Arms()
    everyone = range(1, N)
    only = arms.next_doc
    arms.change(["solo", "act"])
    arms.deliver(arms.minted("full"), everyone)
    second = arms.next_doc
    ads = arms.change(["encore"])
    arms.deliver(ads, [v for v in everyone if v % 2])  # the others now lag
    arms.deliver(arms.change((), remove=only), [v for v in everyone if v % 2])
    before = len(arms.check().obs.told)
    replies = dict(arms.arms[0].ledger.category_totals())
    # The emptying patch reaches everyone; the laggards cannot apply it.
    arms.deliver(arms.change((), remove=second), everyone)
    product = arms.check()
    assert product.store.make_full_ad(SOURCE) is None
    told = product.obs.told[before:]
    assert sorted(t[1] for t in told) == [v for v in everyone if v % 2 == 0]
    assert {(t[4], t[5]) for t in told} == {(0.0, None)}
    held = product.state.held_mask(np.asarray(everyone), SOURCE)
    assert held.tolist() == [bool(v % 2) for v in everyone]
    after = product.ledger.category_totals()
    assert after[TrafficCategory.ADS_REQUEST] - replies.get(
        TrafficCategory.ADS_REQUEST, 0.0
    ) == len(told) * ADS_REQUEST_BYTES
    for category in (TrafficCategory.PATCH_AD, TrafficCategory.FULL_AD):
        assert after.get(category, 0.0) == replies.get(category, 0.0)


def test_a_receiver_the_new_topics_do_not_interest_stays_behind():
    """The source's content moves from class 0 to class 1.  A cache that
    wants class 1 too is upgraded by its pull; one that wanted class 0 only
    pays for the pull, keeps its old entry and its old stamp, and will pull
    again at the next delivery."""
    arms = Arms()
    everyone = np.arange(1, N)
    old = arms.next_doc
    arms.change(["first"])
    arms.deliver(arms.minted("full"), everyone)
    arms.deliver(arms.change(["second"], class_id=1), everyone[::2])
    arms.deliver(arms.change((), remove=old), everyone[::2])
    product = arms.check()
    assert product.store.topics(SOURCE) == {1}
    lagging = everyone[1::2]
    narrow = np.array([v for v in lagging.tolist() if v % 3 == 0])
    words = product.state.entry[narrow, SOURCE].copy()
    stamps = product.state.stamp[narrow, SOURCE].copy()
    for _ in range(2):
        before = len(product.obs.told)
        arms.deliver(arms.minted("refresh"), everyone)
        product = arms.check()
        pulled = sorted(t[1] for t in product.obs.told[before:])
        assert set(narrow.tolist()) <= set(pulled)
        lagging_now = pulled
    assert lagging_now == narrow.tolist()
    assert (product.state.entry[narrow, SOURCE] == words).all()
    # The refresh renewed them; the pull did not, and no version moved.
    assert (product.state.stamp[narrow, SOURCE] > stamps).all()
    assert product.state.behind_mask(narrow, SOURCE).all()
    wide = np.setdiff1d(lagging, narrow)
    assert (
        product.state.versions(wide, SOURCE) == product.store.version(SOURCE)
    ).all()
