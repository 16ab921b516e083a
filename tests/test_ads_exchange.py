"""The one-pass ads exchange against the per-supplier loop it replaced.

``AdsState.exchange`` adopts every supplier's reply in one call, and
``AsapSearch._ads_request`` builds its offers as one (suppliers x sources)
mask and books every reply from one ``bincount``.  ``tests/oracles/
exchange.py`` keeps the loop: one masked row difference and one
insert-then-evict step per supplier, with the neighbours found by a
hop-by-hop dictionary search.

Both run on twin random states -- full ads, refreshes and patches reaching
random receivers (so some entries are behind), removals, ties in time --
at capacities ``None``, 1, 3 and ``n // 10``, in the bootstrap and the
query scope, with and without an ``exclude`` digest, at h = 0, 1 and 2 on
a churned overlay with uneven edge latencies.  After every exchange the
twins hold equal ``entry``, ``stamp``, ``seq``, ``occupancy``, clock and
insertion counter; the per-supplier adoptions, the evictions, the ledger's
bytes per second and messages, the returned source map (order included)
and what the instrumentation is told are equal too.
"""

import math

import numpy as np
import pytest

from repro.asap.ads import AdType
from repro.asap.protocol import AsapParams, AsapSearch
from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.sim.random import RandomStreams
from repro.simulation.config import scaled_config
from repro.workload.content import ContentIndex
from repro.workload.edonkey import synthesize_content
from repro.workload.interests import InterestState

from tests.oracles.exchange import ads_request_reference, exchange_reference
from tests.test_ads_state_words import make_ad
from tests.test_soa_differential import churn_store

N = 60
CAPACITIES = [None, 1, 3, N // 10]
SEEDS = [0, 1]


class Recorder:
    """The instrumentation seam's ``ads_exchange``, kept as plain values."""

    def __init__(self):
        self.calls = []

    def ads_exchange(self, now, node, scope, served, messages, cost_bytes, request_bytes):
        served = [(int(nbr), float(b), np.asarray(s).tolist()) for nbr, b, s in served]
        self.calls.append((now, node, scope, served, messages, cost_bytes, request_bytes))


def build(seed, capacity, h):
    """A 60-peer ASAP instance over synthesised content on a random overlay
    with uneven edge latencies, a few nodes offline, and a state filled by
    random merges; the same arguments build the same instance."""
    config = scaled_config(
        "asap_rw", "random", n_peers=N, n_queries=10, seed=seed,
        use_physical_network=False,
    )
    dist = synthesize_content(config.edonkey, RandomStreams(seed).get("content"))
    rng = np.random.default_rng(seed)
    topology = random_topology(n=N, avg_degree=4.0, rng=rng)
    overlay = Overlay(
        topology, edge_latencies_ms=rng.uniform(1.0, 40.0, topology.n_edges)
    )
    for node in rng.choice(N, size=4, replace=False).tolist():
        overlay.leave(node)
    algo = AsapSearch(
        overlay, dist.index, BandwidthLedger(), rng=np.random.default_rng(seed),
        interests=[s or {0} for s in dist.interests],
        params=AsapParams(forwarder="fld", ads_request_hops=h, cache_capacity=capacity),
    )
    algo.obs = Recorder()
    now = fill(algo, dist, rng)
    return algo, rng, now


def fill(algo, dist, rng, steps=120):
    """Random merges into ``algo``'s state; returns the clock's last time."""
    state, store = algo.state, algo.store
    sharers = np.flatnonzero(store.is_sharer(slice(None)))
    now = 0.0
    for _ in range(steps):
        now += float(rng.integers(0, 3))  # several writes share a ``now``
        receivers = np.flatnonzero(rng.random(N) < 0.35)
        op = rng.random()
        if op < 0.6:
            state.accept(store.make_full_ad(int(rng.choice(sharers))), now, receivers)
        elif op < 0.75:
            state.accept(store.make_refresh_ad(int(rng.choice(sharers))), now, receivers)
        elif op < 0.9:
            # A patch reaches some cachers; the others now lag the source.
            for ad in churn_store(store, dist, rng, n_changes=3):
                state.accept(ad, now, receivers)
                state.mark_missed(ad.source, receivers)
        else:
            for peer in receivers.tolist():
                state.remove(peer, int(rng.choice(sharers)))
    return now


def query(algo, rng):
    """Positions and matches of one or two keywords of a random document."""
    content = algo.content
    docs = content.copies()[1]
    _, keys = content.doc_keywords(docs[[int(rng.integers(len(docs)))]])
    terms = sorted(set(content.keywords(keys.tolist())))[: int(rng.integers(1, 3))]
    positions = algo.store.hasher.positions_array(terms)
    return positions, algo.store.match_current(positions)


def same_state(a: AdsState, b: AdsState):
    assert np.array_equal(a.entry, b.entry)
    assert np.array_equal(a.stamp, b.stamp)
    assert (a.seq is None) == (b.seq is None)
    if a.seq is not None:
        assert np.array_equal(a.seq, b.seq)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert a._times == b._times and a._next_seq == b._next_seq


def same_ledger(a: BandwidthLedger, b: BandwidthLedger):
    got, want = a.per_second(), b.per_second()
    assert list(got) == list(want)
    for category in got:
        assert np.array_equal(got[category], want[category])
    for category in TrafficCategory:
        assert a.total_messages([category]) == b.total_messages([category])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("h", [0, 1, 2])
@pytest.mark.parametrize("exclude", [False, True], ids=["all", "exclude"])
@pytest.mark.parametrize("scope", ["bootstrap", "query"])
@pytest.mark.parametrize("capacity", CAPACITIES, ids=lambda c: f"cap{c}")
def test_ads_request_equals_the_per_supplier_loop(capacity, scope, exclude, h, seed):
    product, rng, now = build(seed, capacity, h)
    oracle, _, _ = build(seed, capacity, h)
    same_state(product.state, oracle.state)
    for _ in range(6):
        node = int(rng.integers(N))
        kwargs = {}
        if scope == "query":
            kwargs["positions"], kwargs["match"] = query(product, rng)
        if exclude:
            kwargs["exclude"] = set(rng.choice(N, size=8, replace=False).tolist())
        got = product._ads_request(node, now, **kwargs)
        want = ads_request_reference(oracle, node, now, **kwargs)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1:] == want[1:]
        same_state(product.state, oracle.state)
        same_ledger(product.ledger, oracle.ledger)
        assert product.obs.calls == oracle.obs.calls
        now += float(rng.integers(0, 2))
    adopted = [s for call in product.obs.calls for _, _, s in call[3] if s]
    assert bool(adopted) == (h > 0)


def clone(state: AdsState) -> AdsState:
    """A twin of ``state`` over the same store and interests."""
    twin = AdsState.__new__(AdsState)
    for name in AdsState.__slots__:
        value = getattr(state, name)
        if isinstance(value, (np.ndarray, list)) and name != "interest_bits":
            value = value.copy()
        setattr(twin, name, value)
    return twin


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("capacity", CAPACITIES, ids=lambda c: f"cap{c}")
def test_exchange_equals_the_per_supplier_loop(capacity, seed):
    """Offers the protocol never makes: suppliers in any order, any part
    of what each holds, the requester's own column included."""
    algo, rng, now = build(seed, capacity, 1)
    state = algo.state
    for _ in range(20):
        twin = clone(state)
        node = int(rng.integers(N))
        others = np.delete(np.arange(N), node)
        suppliers = rng.choice(others, size=int(rng.integers(0, 7)), replace=False)
        offered = (state.entry[suppliers] >= 0) & (rng.random((len(suppliers), N)) < 0.7)
        got = state.exchange(node, suppliers, offered.copy(), now)
        want = exchange_reference(twin, node, suppliers, offered.copy(), now)
        assert [a.tolist() for a in got[0]] == [a.tolist() for a in want[0]]
        assert got[1].tolist() == want[1].tolist()
        same_state(state, twin)
        now += float(rng.integers(0, 2))


def test_a_later_supplier_re_offers_what_an_earlier_reply_evicted():
    """Capacity 2, the requester holding 5.  Supplier 1's reply carries 3
    and 4, and the FIFO drops 5; supplier 2 re-offers 5, absent again, so
    it is adopted and 3 goes; supplier 6 re-offers 3, adopted a second
    time, and 4 goes."""
    store = SourceFilterStore(8, ContentIndex())
    bits = InterestState([{0}] * 8).bitmasks
    state, twin = (AdsState(8, bits, store, capacity=2) for _ in range(2))
    for s in (state, twin):
        s.accept(make_ad(AdType.FULL, 5), 1.0, np.array([0, 2]))
        for source in (3, 4):
            s.accept(make_ad(AdType.FULL, source), 1.0, np.array([1]))
        s.accept(make_ad(AdType.FULL, 3), 1.0, np.array([6]))
    suppliers = np.array([1, 2, 6])
    offered = state.entry[suppliers] >= 0
    adopted, evicted = state.exchange(0, suppliers, offered.copy(), 2.0)
    assert [a.tolist() for a in adopted] == [[3, 4], [5], [3]]
    assert evicted.tolist() == [5, 3, 4]
    assert np.flatnonzero(state.held_mask(0)).tolist() == [3, 5]
    assert state.seq[0, 5] < state.seq[0, 3]  # 3's second adoption is later
    want = exchange_reference(twin, 0, suppliers, offered.copy(), 2.0)
    assert [a.tolist() for a in want[0]] == [[3, 4], [5], [3]]
    assert want[1].tolist() == [5, 3, 4]
    same_state(state, twin)


def test_no_supplier_reads_no_clock():
    """With nobody to ask the exchange writes nothing, not even a tick,
    as the loop it replaced did."""
    store = SourceFilterStore(4, ContentIndex())
    state = AdsState(4, InterestState([{0}] * 4).bitmasks, store, capacity=2)
    adopted, evicted = state.exchange(0, np.array([], dtype=np.int64), np.zeros((0, 4), bool), 3.0)
    assert adopted == [] and evicted.tolist() == [] and state._times == [-math.inf]
