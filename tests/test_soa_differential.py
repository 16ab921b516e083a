"""Differential tests: dense peer x source ads state vs the object oracle.

The dense state (``repro.asap.state``) promises **bit-identical**
observable behaviour to the plain object model in ``tests/oracles/``:

* a row of :class:`AdsState` vs :class:`AdsRepository` under randomized
  accept/exchange/repair/remove/evict/lookup op sequences (including content
  churn, so behind-entry evaluation at historical versions is exercised);
* the store's history columns (every superseded filter version, matched
  in the same gather as the current ones) vs the per-position
  patch-parity replay;
* :class:`InterestState` bitmask answers vs per-node set loops;
* a source's cacher column (``held_mask(sources=s)``) vs a Python set;
* whole runs: blake2b run fingerprints must be bit-equal between the
  product and ``oracle_arm()`` (object-backed repositories, one method
  call per ad) -- churn enabled throughout.
"""

import dataclasses

import numpy as np
import pytest

from repro.asap.ads import Ad, AdType
from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.sim.random import RandomStreams
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment
from repro.workload.edonkey import synthesize_content
from repro.workload.interests import InterestState, topic_bits

from tests.oracles import oracle_arm
from tests.oracles.repository import AdsRepository, StateRow, snapshot
from tests.oracles.store import match_at_version_reference

SEEDS = [0, 1, 2]


def make_store(seed, n_nodes=60):
    config = scaled_config(
        "asap_rw", "random", n_peers=n_nodes, n_queries=10, seed=seed,
        use_physical_network=False,
    )
    streams = RandomStreams(seed=seed)
    dist = synthesize_content(config.edonkey, streams.get("content"))
    store = SourceFilterStore(n_nodes, dist.index)
    return store, dist


def make_state(store, interests, capacity=None):
    """A dense state whose every peer has the same ``interests``."""
    bits = InterestState([interests] * store.n_nodes).bitmasks
    return AdsState(store.n_nodes, bits, store, capacity)


def churn_store(store, dist, rng, n_changes=12):
    """Apply random document adds/removes, the index first and then the
    filter (``runner.handle``'s order); returns the minted patch ads."""
    index = dist.index
    ads = []
    for _ in range(n_changes):
        node = int(rng.integers(0, store.n_nodes))
        held = index.docs_of(node).tolist()
        if held and rng.random() < 0.5:
            doc_id = held[int(rng.integers(0, len(held)))]
            index.remove(node, doc_id, notify=False)
            added = False
        else:
            # Add a copy of some other node's document (often a no-op
            # bitmap change when every keyword is already covered --
            # counting-filter semantics both arms must agree on).
            pool = index.docs_of(int(rng.integers(0, store.n_nodes))).tolist()
            if not pool:
                continue
            doc_id = pool[int(rng.integers(0, len(pool)))]
            if doc_id in held:
                continue
            index.place(node, doc_id, notify=False)
            added = True
        ad = store.apply_content_change(node, index.document(doc_id), added)
        if ad is not None:
            ads.append(ad)
    return ads


# ------------------------------------------------------- repository vs oracle
class TestRepositoryDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("capacity", [None, 8])
    def test_random_ops_bit_equal(self, seed, capacity):
        """Identical op sequences leave identical state, return values and
        eviction lists -- insertion order, LRU tie-breaks and all."""
        store, dist = make_store(seed)
        rng = np.random.default_rng(seed + 100)
        n = store.n_nodes
        owner, supplier = 0, 1
        interests = dist.interests[owner] or {0}
        state = make_state(store, interests, capacity)
        me = np.array([owner])
        soa = StateRow(state, owner)
        ref = AdsRepository(
            owner=owner, interests=interests, store=store, capacity=capacity,
        )

        def accept(ad):
            stored, evicted = state.accept(ad, now, me)
            got = bool(stored[0]), [victim for _, victim in evicted]
            assert got == ref.accept(ad, now)

        ran = {"repair": 0, "exchange": 0}
        sharers = [s for s in range(n) if store.is_sharer(s)]
        now = 0.0
        for step in range(400):
            now += float(rng.random())
            op = rng.random()
            src = int(rng.integers(0, n))
            if op < 0.45:
                ad = store.make_full_ad(src)
                if ad is None:
                    continue
                if rng.random() < 0.3:
                    # Stale full ad: exercises behind marking.
                    topics = store.topics(src)
                    ad = Ad(
                        source=src, ad_type=AdType.FULL, topics=topics,
                        version=max(0, ad.version - 1),
                        n_set_bits=ad.n_set_bits, filter_bits=ad.filter_bits,
                    )
                accept(ad)
            elif op < 0.6:
                ad = store.make_refresh_ad(src)
                if ad is None:
                    continue
                accept(ad)
            elif op < 0.75:
                # The source's or a neighbour's copy, the two ways the
                # product merges one: a repair pull of a held entry, an
                # adoption of an absent one from a supplier's row.
                src = sharers[int(rng.integers(0, len(sharers)))]
                version = store.version(src)
                topics = store.topics(src)
                if src in ref:
                    state.accept_repair(me, src, version, topic_bits(topics), now)
                    assert ref.accept_snapshot(src, version, topics, now)[1] == []
                    ran["repair"] += 1
                elif src not in (owner, supplier) and store.is_sharer(src):
                    state.accept(store.make_full_ad(src), now, np.array([supplier]))
                    if state.held_mask(supplier, src):
                        offered = np.zeros((1, n), dtype=bool)
                        offered[0, src] = True
                        (adopted,), evicted = state.exchange(
                            owner, np.array([supplier]), offered, now
                        )
                        got = bool(len(adopted)), evicted.tolist()
                        assert got == ref.accept_snapshot(src, version, topics, now)
                        ran["exchange"] += 1
            elif op < 0.85:
                state.remove(owner, src)
                ref.remove(src)
            else:
                for ad in churn_store(store, dist, rng, n_changes=2):
                    accept(ad)
            if step % 50 == 0:
                assert snapshot(soa) == snapshot(ref)
        assert snapshot(soa) == snapshot(ref)
        assert len(soa) == len(ref)
        assert sorted(soa.sources()) == sorted(ref.sources())
        assert min(ran.values()) >= 3, ran

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lookup_with_behind_entries(self, seed):
        """Lookups agree entry-for-entry, including behind entries
        evaluated at their recorded historical versions."""
        store, dist = make_store(seed)
        rng = np.random.default_rng(seed + 7)
        state = make_state(store, set(range(20)))
        soa = StateRow(state, 1)
        ref = AdsRepository(owner=1, interests=set(range(20)), store=store)
        now = 1.0
        for src in range(store.n_nodes):
            ad = store.make_full_ad(src)
            if ad is not None:
                state.accept(ad, now, np.array([1]))
                ref.accept(ad, now)
        # Churn *after* caching: cached versions fall behind the store.
        churn_store(store, dist, rng, n_changes=25)
        for s in ref.sources():
            if ref.entry(s).version < store.version(s):
                state.mark_missed(s, np.array([], dtype=np.int64))
                ref.mark_behind(s)
        assert sorted(soa.behind) == sorted(ref.behind)
        for terms in (["rock"], ["live", "rock"], ["concert"], ["mp3"]):
            positions = store.hasher.positions_array(terms)
            current = store.match_current(positions)
            assert soa.lookup(current) == ref.lookup(positions, current)


# ------------------------------------------------------ store history columns
class TestHistoryColumns:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_match_at_version_paths_agree(self, seed):
        """The version's matrix column == the per-position parity replay,
        at every (source, historical version)."""
        store, dist = make_store(seed)
        rng = np.random.default_rng(seed + 9)
        versions_before = [store.version(s) for s in range(store.n_nodes)]
        churn_store(store, dist, rng, n_changes=25)
        for terms in (["rock"], ["pop", "live"], ["album"]):
            positions = store.hasher.positions_array(terms)
            current = store.match_current(positions)
            for s in range(store.n_nodes):
                for v in {versions_before[s], store.version(s)}:
                    column = store.columns_of(np.array([s]), np.array([v]))[0]
                    slow = match_at_version_reference(store, s, v, positions)
                    assert current[column] == slow


# ------------------------------------------------------------- interest state
class TestInterestState:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_members_and_masks_match_set_loops(self, seed):
        _, dist = make_store(seed)
        interests = dist.interests
        state = InterestState(interests)
        n_classes = state.n_classes
        for topic in range(n_classes + 2):
            expected = np.fromiter(
                (topic in s for s in interests), dtype=bool, count=len(interests)
            )
            assert np.array_equal(state.mask_for((topic,)), expected)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            topics = frozenset(
                int(t) for t in rng.integers(0, n_classes, size=3)
            )
            expected = np.fromiter(
                (bool(s & topics) for s in interests),
                dtype=bool,
                count=len(interests),
            )
            assert np.array_equal(state.mask_for(topics), expected)


# ----------------------------------------------------------------- cacher set
class TestCacherSet:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_match_python_set(self, seed):
        """A source's cachers are a column of the state: after any mix of
        batched full ads, evictions and removals it lists exactly the
        peers a hand-kept set says hold the source."""
        store, _ = make_store(seed)
        rng = np.random.default_rng(seed)
        n = store.n_nodes
        state = make_state(store, {0}, capacity=3)
        sharers = [s for s in range(n) if store.is_sharer(s)][:6]
        oracle = {s: set() for s in sharers}
        now = 0.0
        for _ in range(600):
            now += 1.0
            src = sharers[int(rng.integers(0, len(sharers)))]
            node = int(rng.integers(0, n))
            if rng.random() < 0.7:
                ad = dataclasses.replace(
                    store.make_full_ad(src), topics=frozenset({0})
                )
                peers = np.unique(rng.integers(0, n, size=5))
                stored, evicted = state.accept(ad, now, peers)
                oracle[src].update(peers[stored].tolist())
                for peer, victim in evicted:
                    oracle[victim].discard(peer)
            else:
                state.remove(node, src)
                oracle[src].discard(node)
            assert (node in oracle[src]) == bool(state.held_mask(node, src))
        for src in sharers:
            assert np.flatnonzero(state.held_mask(sources=src)).tolist() == sorted(oracle[src])
        assert any(oracle.values())


# ------------------------------------------------------------- class masks
class TestArena:
    def test_topic_sets_are_their_class_masks(self):
        """An entry holds the ad's topic set as its 14-bit class mask: every
        set comes back as it went in, and only a receiver whose interests
        meet the mask starts caching it."""
        store, _ = make_store(0, n_nodes=20)
        bits = InterestState([{13} if p % 2 else {0, 5} for p in range(20)]).bitmasks
        state = AdsState(20, bits, store)
        sets = [frozenset({1, 2}), frozenset({0}), frozenset({12, 13}), frozenset(range(14))]
        peers = np.arange(10, 20)
        for src, topics in enumerate(sets):
            ad = Ad(source=src, ad_type=AdType.FULL, topics=topics, version=0)
            stored, _ = state.accept(ad, 1.0, peers)
            wants = [p for p in peers.tolist() if topics & ({13} if p % 2 else {0, 5})]
            assert peers[stored].tolist() == wants
            assert state.entry[wants, src].tolist() == [topic_bits(topics) << 1] * len(wants)
            for peer in wants:
                assert StateRow(state, peer).entry(src).topics == topics
        with pytest.raises(OverflowError, match="topic class beyond the 14"):
            state.accept(
                Ad(source=5, ad_type=AdType.FULL, topics=frozenset({14}), version=0),
                2.0, peers,
            )
        assert not state.held_mask(sources=5).any()


# ----------------------------------------------------------- whole-run equal
def run_fingerprint(config, reference=False):
    if reference:
        with oracle_arm():
            result = run_experiment(config, audit=True)
    else:
        result = run_experiment(config, audit=True)
    assert result.audit is not None and result.audit.ok
    return result.fingerprint


def soa_config(algorithm, seed, n_peers=250, n_queries=250):
    # Churn is on by default (n_queries/30 joins + leaves).
    return scaled_config(
        algorithm=algorithm,
        topology="random",
        n_peers=n_peers,
        n_queries=n_queries,
        seed=seed,
        use_physical_network=False,
        warmup_s=40.0,
    )


class TestRunFingerprints:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("algorithm", ["asap_fld", "asap_rw", "asap_gsa"])
    def test_arena_vs_object_backend(self, algorithm, seed):
        """``oracle_arm()`` builds the object-backed oracle protocol end to
        end; bit-equal fingerprints prove the dense storage invisible."""
        config = soa_config(algorithm, seed)
        assert run_fingerprint(config, reference=True) == run_fingerprint(
            config
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_arena_vs_object_backend_capped_cache(self, seed):
        """The paper's limited-cache variant: the masked writes and the
        (``cached_at``, insertion ``seq``) eviction scan must pick
        bit-identical victims to the object backend's ``min`` walk across
        a full churning run."""
        config = soa_config("asap_rw", seed)
        config = dataclasses.replace(
            config, asap=dataclasses.replace(config.asap, cache_capacity=12)
        )
        assert run_fingerprint(config, reference=True) == run_fingerprint(
            config
        )
