"""The 8-byte ads state: eviction order, the clock it needs, field widths.

``AdsState`` ranks a row's entries by (clock tick, insertion number), the
second kept only by a bounded cache, and evicts by ``argmin`` /
``argpartition``; the object
model in ``tests/oracles/repository.py`` walks its dict with ``min`` one
victim at a time.  They must agree on every victim *and on the order
victims are reported in* (the list is audited and traced), at capacities
from 1 to the thousands, when

* a burst shares one ``now`` (a bootstrap ads exchange),
* an entry is re-stored (keeps its place among equals) or removed and
  re-inserted (goes to the end),
* one full ad crowds hundreds of receivers at once,
* one receiver ends up over by dozens.

Ticks only rank writes under a clock that never runs backwards, so a write
that precedes the last one is a named error, as is a field that would not
fit its ``int32``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asap import state as state_module
from repro.asap.ads import Ad, AdType
from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.sim.engine import SimulationError
from repro.workload.content import ContentIndex
from repro.workload.interests import InterestState, topic_bits

from tests.oracles.repository import AdsRepository, StateRow, snapshot
from tests.test_single_code_path import _small_asap

WANTED = frozenset({0})
UNWANTED = frozenset({1})


def make_ad(kind, source, version=0, topics=WANTED):
    changed = (1, 2) if kind is AdType.PATCH else ()
    return Ad(
        source=source, ad_type=kind, topics=topics, version=version,
        changed_positions=changed,
    )


class LockStep:
    """One dense state and one oracle repository per peer, fed the same
    operations; every return value is compared on the spot."""

    def __init__(self, n, capacity, interests=None):
        self.store = SourceFilterStore(n, ContentIndex())
        interests = interests or [{0}] * n
        bits = InterestState(interests).bitmasks
        self.state = AdsState(n, bits, self.store, capacity)
        self.oracles = [
            AdsRepository(
                owner=i, interests=interests[i], store=self.store, capacity=capacity
            )
            for i in range(n)
        ]

    def accept(self, ad, now, peers):
        """One ad to many receivers; returns the evicted pairs."""
        peers = np.asarray(sorted(peers), dtype=np.int64)
        stored, evicted = self.state.accept(ad, now, peers)
        want_stored, want_evicted = [], []
        for peer in peers.tolist():
            ok, victims = self.oracles[peer].accept(ad, now)
            want_stored.append(ok)
            want_evicted += [(peer, victim) for victim in victims]
        assert stored.tolist() == want_stored
        assert evicted == want_evicted
        return evicted

    def repair(self, peers, source, now, topics=WANTED):
        """``source`` answers the repair pulls of ``peers``, which all hold
        it, with its full ad at the store's version: one array call against
        one oracle ``accept_snapshot`` per peer."""
        version = self.store.version(source)
        self.state.accept_repair(
            np.asarray(peers, dtype=np.int64), source, version, topic_bits(topics), now
        )
        for peer in peers:
            assert source in self.oracles[peer]
            _, evicted = self.oracles[peer].accept_snapshot(
                source, version, topics, now
            )
            assert evicted == []  # a held entry is rewritten in place
        self.check(peers)

    def exchange(self, peer, supplier, now, sources=None):
        """The ads exchange: whatever ``supplier`` holds and ``peer`` lacks
        (ascending, as the protocol offers them) in one reply, or the
        ``sources`` of those named, one reply each, in that order."""
        mine, theirs = self.oracles[peer], self.oracles[supplier]
        novel = sorted(set(theirs.entries) - set(mine.entries) - {peer})
        replies = [novel]
        if sources is not None:
            assert set(sources) <= set(novel)
            replies = [[s] for s in sources]
        stored, evicted, want = [], [], []
        for reply in replies:
            offered = np.zeros((1, self.state.n), dtype=bool)
            offered[0, reply] = True
            (adopted,), victims = self.state.exchange(
                peer, np.array([supplier]), offered, now
            )
            stored += np.isin(reply, adopted).tolist()
            evicted += [(peer, victim) for victim in victims.tolist()]
            for s in reply:
                entry = theirs.entries[s]
                want.append(mine.accept_snapshot(s, entry.version, entry.topics, now))
        return self._same_row(peer, np.array(stored, dtype=bool), evicted, want)

    def _same_row(self, peer, stored, evicted, want):
        assert stored.tolist() == [ok for ok, _ in want]
        victims = [victim for _, gone in want for victim in gone]
        assert evicted == [(peer, victim) for victim in victims]
        return victims

    def remove(self, peer, source):
        self.state.remove(peer, source)
        self.oracles[peer].remove(source)

    def check(self, peers):
        for peer in peers:
            assert snapshot(StateRow(self.state, peer)) == snapshot(
                self.oracles[peer]
            )
        assert (self.state.occupancy == [len(o) for o in self.oracles]).all()


#: (capacity, peers, receivers of one full ad).
SHAPES = [(1, 320, 300), (2, 320, 300), (60, 400, 300), (2000, 2040, 100)]


@pytest.mark.parametrize("capacity,n,n_receivers", SHAPES)
class TestEvictionDifferential:
    def test_full_ad_crowds_many_receivers(self, capacity, n, n_receivers):
        pair = LockStep(n, capacity)
        receivers = range(n - n_receivers, n)
        # Fill every receiver to the brim, seven sources to a ``now`` ...
        for source in range(capacity):
            pair.accept(make_ad(AdType.FULL, source), source // 7, receivers)
        now = capacity // 7 + 1
        # ... renew one of the oldest at every other receiver ...
        pair.accept(make_ad(AdType.REFRESH, 0), now, receivers[::2])
        # ... then each further full ad evicts once per crowded receiver.
        most = 0
        for source in range(capacity, capacity + 10):
            evicted = pair.accept(make_ad(AdType.FULL, source), now, receivers)
            most = max(most, len(evicted))
            assert [peer for peer, _ in evicted] == sorted(p for p, _ in evicted)
        assert most >= n_receivers - 10
        pair.check(receivers)

    def test_one_receiver_over_by_dozens(self, capacity, n, n_receivers):
        interests = [{0}] * n
        interests[n - 4] = {0, 1}
        pair = LockStep(n, capacity, interests)
        peer, supplier, donor, other = n - 1, n - 2, n - 3, n - 4
        held = list(range(capacity))
        for source in held:
            pair.accept(make_ad(AdType.FULL, source), 0.5, [donor])
        # A bootstrap: four same-``now`` replies fill the cache from the
        # donor's, two of them in descending source order (so stamp order
        # is not index order).
        for burst in range(4):
            step = 1 if burst % 2 else -1
            pair.exchange(
                peer, donor, now=1.0 + burst // 2, sources=held[burst::4][::step]
            )
        # Re-stored entries keep their place among equals, an uninteresting
        # ad starts nothing, a removed and re-inserted entry goes last.
        pair.accept(make_ad(AdType.FULL, held[0], version=1), 2.0, [peer])
        pair.accept(make_ad(AdType.FULL, capacity + 35, topics=UNWANTED), 2.0, [other])
        assert pair.exchange(peer, other, now=2.0) == []
        assert capacity + 35 not in pair.oracles[peer]
        pair.remove(peer, held[-1])
        pair.exchange(peer, donor, now=2.0, sources=[held[-1]])
        pair.check([peer])
        # Repair pulls rewrite held entries in place: a current one only
        # renews, an older one takes the version, neither moves in line.
        pair.store._version[held[:3]] = 1
        for source in held[:3]:
            pair.repair([peer, donor], source, now=2.0)
        # Over by dozens at one ``now``: a neighbour's full cache of sources
        # the peer lacks, every third patched since (adopted behind).
        theirs = [s for s in range(n - 5, 0, -1) if s not in held][:capacity]
        for source in theirs:
            pair.accept(make_ad(AdType.FULL, source), 2.0, [supplier])
        pair.store._version[theirs[::3]] += 1
        victims = pair.exchange(peer, supplier, now=3.0)
        assert len(victims) >= min(capacity, 30)
        pair.check([peer, supplier])


OPS = st.lists(
    st.tuples(
        st.sampled_from(["full", "stale_full", "patch", "refresh", "repair",
                         "exchange", "remove", "bump"]),
        st.integers(0, 11),  # source / supplier
        st.integers(0, 11),  # peer
        st.integers(0, 4095),  # receiver set, as a bitmask
        st.booleans(),  # does the clock move first?
        st.booleans(),  # topics the peers want?
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), capacity=st.one_of(st.none(), st.integers(1, 5)), ops=OPS)
def test_any_op_sequence_matches_the_oracle(n, capacity, ops):
    # Every third peer also wants what the others do not.
    pair = LockStep(
        n, capacity, [{0, 1} if p % 3 == 0 else {0} for p in range(n)]
    )
    now = 0.0
    for kind, a, b, mask, tick, wanted in ops:
        source, peer = a % n, b % n
        peers = [p for p in range(n) if mask >> p & 1]
        topics = WANTED if wanted else UNWANTED
        now += tick
        version = pair.store.version(source)
        if kind == "bump":
            pair.store._version[source] += 1
        elif kind == "remove":
            pair.remove(peer, source)
        elif kind == "exchange":
            if source != peer:
                pair.exchange(peer, source, now)
        elif kind == "repair":
            # Whoever of the receivers holds the source, behind or current.
            holding = [p for p in peers if source in pair.oracles[p]]
            if holding:
                pair.repair(holding, source, now, topics)
        else:
            ad_type = {"full": AdType.FULL, "stale_full": AdType.FULL,
                       "patch": AdType.PATCH, "refresh": AdType.REFRESH}[kind]
            if kind == "stale_full":
                version = max(0, version - 1)
            pair.accept(make_ad(ad_type, source, version, topics), now, peers)
    pair.check(range(n))


class TestWords:
    def test_layout_and_tick_renewal(self):
        pair = LockStep(4, None)
        state = pair.state
        assert state.entry.dtype == state.stamp.dtype == np.int32
        assert state.seq is None  # nothing evicts, so nothing breaks ties
        pair.accept(make_ad(AdType.FULL, 1, version=3), 5.0, [0, 2])
        pair.accept(make_ad(AdType.FULL, 3), 5.0, [0])
        assert state.entry[0, 1] == 3 << 15 | topic_bits(WANTED) << 1
        assert state.entry[0, 2] == -1 and state.stamp[0, 2] == np.iinfo(np.int32).max
        assert state.stamp[[0, 2, 0], [1, 1, 3]].tolist() == [1, 1, 1]
        # A refresh from further on marks the gap and moves the tick alone.
        pair.accept(make_ad(AdType.REFRESH, 1, version=4), 9.0, [0, 2, 3])
        assert state.entry[0, 1] == 3 << 15 | topic_bits(WANTED) << 1 | 1
        assert state.stamp[[0, 2, 0], [1, 1, 3]].tolist() == [2, 2, 1]
        assert StateRow(state, 0).entry(1).cached_at == 9.0
        assert state.ages(10.0).tolist() == [1.0, 5.0, 1.0]
        assert state.held_mask().sum() == state.occupancy.sum() == 3
        assert np.argwhere(state.behind_mask()).tolist() == [[0, 1], [2, 1]]
        assert state.stats()["pool_bytes"] == 4 * 4 * 8

    def test_insertion_numbers_in_a_bounded_cache(self):
        pair = LockStep(4, 3)
        state = pair.state
        assert state.seq.dtype == np.uint32
        pair.accept(make_ad(AdType.FULL, 1, version=3), 5.0, [0, 2])
        pair.accept(make_ad(AdType.FULL, 3), 5.0, [0])
        # Same ``now``, same tick; insertion numbers in store order.
        assert state.seq[[0, 2, 0], [1, 1, 3]].tolist() == [0, 1, 2]
        # Renewing or overwriting an entry keeps its number ...
        pair.accept(make_ad(AdType.REFRESH, 1, version=4), 9.0, [0, 2, 3])
        pair.accept(make_ad(AdType.FULL, 1, version=4), 9.0, [0])
        assert state.stamp[0, 1] == 2 and state.seq[0, 1] == 0
        # ... only a new insert draws one.
        pair.remove(0, 1)
        pair.accept(make_ad(AdType.FULL, 1, version=4), 9.0, [0])
        assert state.seq[0, 1] == 3
        assert np.argwhere(state.behind_mask()).tolist() == [[2, 1]]
        assert state.stats()["pool_bytes"] == 4 * 4 * 12

    def test_a_field_that_would_overflow_is_a_named_error(self, monkeypatch):
        state = LockStep(4, 2).state
        one = np.array([0])
        with pytest.raises(OverflowError, match="version"):
            state.accept(make_ad(AdType.REFRESH, 1, version=65_536), 1.0, one)
        state.accept(make_ad(AdType.FULL, 1, version=65_535), 1.0, one)
        assert state.versions(0, 1) == 65_535
        with pytest.raises(OverflowError, match="topic class beyond the 14"):
            state.accept(make_ad(AdType.FULL, 2, topics=frozenset({0, 14})), 1.0, one)
        with pytest.raises(OverflowError, match="version"):
            state.accept_repair(one, 1, 65_536, 1, 1.0)
        with pytest.raises(OverflowError, match="topic class"):
            state.accept_repair(one, 1, 1, 1 << 14, 1.0)
        monkeypatch.setattr(state_module, "_TICK_MAX", 2)
        state.accept(make_ad(AdType.REFRESH, 1), 2.0, one)
        with pytest.raises(OverflowError, match="clock ticks"):
            state.accept(make_ad(AdType.REFRESH, 1), 3.0, one)
        state._next_seq = np.iinfo(np.uint32).max - 1
        with pytest.raises(OverflowError, match="insertion counter"):
            state.accept(make_ad(AdType.FULL, 2), 2.0, np.array([0, 1, 3]))
        assert not state.held_mask(sources=2).any()
        assert state.occupancy.tolist() == [1, 0, 0, 0]


class TestClockNeverRunsBackwards:
    """Recency is a tick, not a float: a write from the past would be
    stamped as the newest, so it is refused by name."""

    def test_accept(self):
        state = LockStep(4, 2).state
        state.accept(make_ad(AdType.FULL, 1), 5.0, np.array([0, 2]))
        state.accept(make_ad(AdType.REFRESH, 1), 5.0, np.array([0]))  # a tie is fine
        for kind in AdType:
            with pytest.raises(SimulationError, match="t=4.5.*last write at t=5.0"):
                state.accept(make_ad(kind, 1), 4.5, np.array([0]))
        assert StateRow(state, 0).entry(1).cached_at == 5.0

    def test_accept_snapshot(self):
        """A neighbour's or the source's copy: a repair pull of a held
        entry, an adoption of an absent one."""
        pair = LockStep(4, 2)
        pair.accept(make_ad(AdType.FULL, 1), 5.0, [0, 2])
        pair.accept(make_ad(AdType.FULL, 3), 5.0, [2])
        with pytest.raises(SimulationError, match="never\\s+runs backwards"):
            pair.state.accept_repair(np.array([0]), 1, 0, 0, 4.0)
        with pytest.raises(SimulationError, match="never\\s+runs backwards"):
            pair.state.exchange(0, np.array([2]), pair.state.held_mask([2]), 4.0)
        assert 3 not in StateRow(pair.state, 0)
        pair.check(range(4))

    def test_exchange_path(self):
        algo = _small_asap()
        ad = make_ad(AdType.FULL, 0)
        algo._merge_ad(ad, 5.0, np.arange(1, 12))
        algo._ads_request(3, 5.0)
        with pytest.raises(SimulationError, match="runs backwards"):
            algo._ads_request(4, 4.0)
        with pytest.raises(SimulationError, match="runs backwards"):
            algo.state.exchange(4, np.array([3]), algo.state.held_mask([3]), 4.0)
        algo._ads_request(4, 5.0)
