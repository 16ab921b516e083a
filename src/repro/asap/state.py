"""The ads cache of every node as one dense peer x source relation (III-B/C).

A node "selectively stores interesting ads received from other peers": an
ad is cached only when its topic set intersects the node's interests.  The
paper's cache is one relation, ``(node, source) -> (version, topics,
cached_at, behind)``, and :class:`AdsState` stores it as exactly that:
``n x n`` arrays indexed ``[peer, source]``.  Measured fill is 30-46 % of
all pairs, so dense cells (21 bytes) are smaller than any per-pair index,
a node's repository is a row, a source's cacher set is a column, and every
protocol step is a masked read or write.

Version merging follows the paper: a **full** ad replaces the entry
outright; a **patch** applies only as the successor version (a gap leaves
the entry *behind*); a **refresh** renews recency and detects missed
patches; a neighbour's **snapshot** (ads-request reply, repair pull) is a
full ad at the neighbour's version that never downgrades.  A behind entry
is still usable -- lookups evaluate it at its recorded version via the
store's patch history -- and failed confirmations are how stale entries are
ultimately retired.  ``behind`` is stored, not derived from versions: a
source that changes content while offline bumps the store and marks nobody.

With a capacity bound the least recently refreshed entry is evicted; ties
on ``cached_at`` (a bootstrap ads exchange stamps hundreds of entries with
one ``now``) go to the entry inserted first, which ``seq`` records.

The memory is Theta(n^2) whatever the capacity, so peer counts whose state
would not fit :data:`MAX_STATE_BYTES` are refused up front.

The plain object model this is checked against op-for-op lives in
``tests/oracles/repository.py``; whole-run behaviour is frozen by
``tests/golden/run_fingerprints.json``.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.store import SourceFilterStore
from repro.workload.interests import topic_bits

__all__ = [
    "AdsState",
    "BYTES_PER_PAIR",
    "CachedAd",
    "MAX_STATE_BYTES",
    "RepositoryView",
    "require_state_fits",
]

#: version + topics_code + cached_at + behind + seq.
BYTES_PER_PAIR = 4 + 4 + 8 + 1 + 4

#: The peak-RSS bar of the scale-up gate (``benchmarks/bench_scaleup.py``):
#: about 20,000 peers.
MAX_STATE_BYTES = 8 * 2**30

_ABSENT = -1
_SEQ_LIMIT = np.iinfo(np.uint32).max


def require_state_fits(n_peers: int) -> None:
    """Refuse a peer count whose dense ads state exceeds the memory bar."""
    need = n_peers * n_peers * BYTES_PER_PAIR
    if need > MAX_STATE_BYTES:
        raise ValueError(
            f"ASAP keeps a dense peer x source ads state: {n_peers} peers "
            f"need {need:,} bytes, over the supported {MAX_STATE_BYTES:,} "
            f"(at most {math.isqrt(MAX_STATE_BYTES // BYTES_PER_PAIR)} peers)"
        )


class CachedAd(NamedTuple):
    """One cached ad as read from the state (a copy, not a live view)."""

    source: int
    version: int
    topics: FrozenSet[int]
    cached_at: float


Evicted = List[Tuple[int, int]]  # (peer, source) pairs, in eviction order


class AdsState:
    """Every node's interest-filtered, version-merging ads cache.

    ``interest_bits[peer]`` is the peer's caching filter as a topic bitmask
    (its own interests; a super peer's also cover its leaves').  All merge
    operations take index *arrays*; the per-node scalar surface is
    :class:`RepositoryView`, the same code with one-element arrays.
    """

    __slots__ = (
        "n", "capacity", "store", "interest_bits", "version", "topics_code",
        "cached_at", "behind", "seq", "occupancy", "code_bits", "_next_seq",
        "_code_of", "_topics",
    )

    def __init__(
        self,
        n: int,
        interest_bits: np.ndarray,
        store: SourceFilterStore,
        capacity: Optional[int] = None,
    ) -> None:
        require_state_fits(n)
        self.n = n
        self.capacity = capacity
        self.store = store
        self.interest_bits = interest_bits
        self.version = np.full((n, n), _ABSENT, dtype=np.int32)
        self.topics_code = np.zeros((n, n), dtype=np.int32)
        self.cached_at = np.zeros((n, n), dtype=np.float64)
        self.behind = np.zeros((n, n), dtype=bool)
        self.seq = np.zeros((n, n), dtype=np.uint32)
        self.occupancy = np.zeros(n, dtype=np.int64)
        self._next_seq = 0
        # Interned topic sets: ads re-use a small population of frozensets
        # (the semantic classes of each source's content).
        self._code_of: Dict[FrozenSet[int], int] = {}
        self._topics: List[FrozenSet[int]] = []
        self.code_bits = np.zeros(64, dtype=np.int64)  # topic bitmask per code

    # ------------------------------------------------------------ topics
    def intern_topics(self, topics: FrozenSet[int]) -> int:
        """Code for a topic set; one code per distinct frozenset."""
        code = self._code_of.get(topics)
        if code is None:
            code = len(self._topics)
            self._topics.append(frozenset(topics))
            self._code_of[self._topics[code]] = code
            if code == len(self.code_bits):
                self.code_bits = np.concatenate(
                    [self.code_bits, np.zeros_like(self.code_bits)]
                )
            self.code_bits[code] = topic_bits(topics)
        return code

    def topics_of(self, code: int) -> FrozenSet[int]:
        return self._topics[code]

    # ------------------------------------------------------------- views
    def holders(self, source: int) -> np.ndarray:
        """The source's cachers (ascending peer ids): one column."""
        return np.flatnonzero(self.version[:, source] >= 0)

    def stats(self) -> Dict[str, int]:
        """State size.  ``rows_*``/``free_list_depth``/``pool_*`` are the
        names ``benchmarks/e2e/traced.py`` reads; dense cells are never
        allocated or recycled, so allocated == live and the free list is
        empty by construction."""
        live = int(self.occupancy.sum())
        return {
            "rows_allocated": live,
            "rows_live": live,
            "free_list_depth": 0,
            "pool_rows": self.n * self.n,
            "pool_bytes": self.n * self.n * BYTES_PER_PAIR,
            "topic_sets_interned": len(self._topics),
        }

    # ------------------------------------------------------------- merge
    def accept(
        self, ad: Ad, now: float, peers: np.ndarray
    ) -> Tuple[np.ndarray, Evicted]:
        """Merge a received ad into the caches of ``peers`` (distinct ids).

        Returns ``(stored, evicted)``: per peer, whether the ad created or
        updated an entry, and the entries evicted to make room.
        """
        src = ad.source
        held = self.version[peers, src] >= 0
        if ad.ad_type is AdType.FULL:
            # The interest filter decides whether to START caching a
            # source; updates to an entry already held are always relevant
            # (e.g. a source whose topic set shrank to empty must still
            # reach its cachers, or they would stay silently stale).
            code = self.intern_topics(ad.topics)
            wanted = (self.interest_bits[peers] & self.code_bits[code]) != 0
            stored = (held | wanted) & (peers != src)
            return stored, self._store(peers[stored], src, ad.version, code, now)

        # Patches and refreshes are meaningless without a base entry.
        cachers = peers[held]
        cached = self.version[cachers, src]
        newer = ad.version > cached
        if ad.ad_type is AdType.PATCH:
            successor = cachers[cached + 1 == ad.version]
            self.behind[cachers[newer], src] = True  # a gap: cannot merge
            self.cached_at[cachers[newer], src] = now
            self.version[successor, src] = ad.version
            self.topics_code[successor, src] = self.intern_topics(ad.topics)
            self.behind[successor, src] = ad.version < self.store._version[src]
            # Older patches carry nothing new.
        else:  # REFRESH: renew recency; detect missed patches.
            self.cached_at[cachers, src] = now
            self.behind[cachers[newer], src] = True
        return held, []

    def accept_snapshot(
        self,
        peer: int,
        sources: np.ndarray,
        versions: np.ndarray,
        codes: np.ndarray,
        now: float,
    ) -> Tuple[np.ndarray, Evicted]:
        """Merge entries ``peer`` obtained from a neighbour or the source.

        Each is semantically a full ad at the *supplier's* cached version
        (which may itself be behind the source's current filter); an entry
        the peer already holds at that version or later is only renewed.
        """
        wanted = (self.code_bits[codes] & self.interest_bits[peer]) != 0
        wanted &= sources != peer
        stored = wanted & (self.version[peer, sources] < versions)
        self.cached_at[peer, sources[wanted & ~stored]] = now
        return stored, self._store(
            peer, sources[stored], versions[stored], codes[stored], now
        )

    def _store(self, peers, sources, versions, codes, now: float) -> Evicted:
        """Create or overwrite the entries at ``[peers, sources]``.

        One of ``peers``/``sources`` is an index array, the other an id
        (one ad to many receivers, or many ads to one receiver).  Every
        entry is stamped ``now``, which under the engine's monotone clock
        is >= any ``cached_at`` already present -- so evicting after the
        whole write picks the victims a store-evict-store-evict sequence
        would.
        """
        fresh = self.version[peers, sources] < 0
        self.version[peers, sources] = versions
        self.topics_code[peers, sources] = codes
        self.cached_at[peers, sources] = now
        self.behind[peers, sources] = versions < self.store._version[sources]
        k = int(np.count_nonzero(fresh))
        if k == 0:
            return []
        if self._next_seq + k > _SEQ_LIMIT:
            raise OverflowError("ads-cache insertion counter exhausted")
        # Keep the id an id: only the index array is narrowed to the fresh
        # entries, which take insertion numbers in its order.
        if isinstance(peers, np.ndarray):
            peers = peers[fresh]
            self.occupancy[peers] += 1  # distinct receivers of one ad
            last = sources
        else:
            sources = sources[fresh]
            self.occupancy[peers] += k
            peers = np.array([peers])
            last = sources[-1]
        self.seq[peers, sources] = np.arange(
            self._next_seq, self._next_seq + k, dtype=np.uint32
        )
        self._next_seq += k
        if self.capacity is None:
            return []
        crowded = np.unique(peers[self.occupancy[peers] > self.capacity])
        if crowded.size == 0:
            return []
        # Never the entry just stored (the last one, for a batch).
        return self._evict(crowded, protect=int(last))

    def _evict(self, crowded: np.ndarray, protect: int) -> Evicted:
        """Drop the over-capacity peers' least recently refreshed entries.

        Ties on ``cached_at`` go to the earliest insert.  Caches are within
        capacity between operations, so after one :meth:`_store` every
        crowded peer is over by the same count (one receiver per ad, or a
        single receiver) and their held entries gather into a rectangle.
        """
        excess = int(self.occupancy[crowded[0]]) - self.capacity
        rows = crowded[:, None]
        held = np.nonzero(self.version[crowded] >= 0)[1].reshape(len(crowded), -1)
        cached_at = self.cached_at[rows, held]
        cached_at[held == protect] = np.inf
        oldest = np.lexsort((self.seq[rows, held], cached_at))[:, :excess]
        victims = np.take_along_axis(held, oldest, axis=1)
        self.version[rows, victims] = _ABSENT
        self.behind[rows, victims] = False
        self.occupancy[crowded] -= excess
        return [
            (peer, source)
            for peer, sources in zip(crowded.tolist(), victims.tolist())
            for source in sources
        ]

    def remove(self, peer: int, source: int) -> None:
        """Drop an entry (eviction, or a failed confirmation)."""
        if self.version[peer, source] >= 0:
            self.version[peer, source] = _ABSENT
            self.behind[peer, source] = False
            self.occupancy[peer] -= 1

    def mark_missed(self, source: int, reached: np.ndarray) -> None:
        """A patch went out: cachers it did not reach now lag the source."""
        missed = self.version[:, source] >= 0
        missed[reached] = False
        self.behind[missed, source] = True

    # ------------------------------------------------------------ lookup
    def lookup(
        self, peer: int, positions: np.ndarray, current_match: np.ndarray
    ) -> np.ndarray:
        """Mask of sources whose ad cached at ``peer`` matches all positions.

        ``current_match`` is the store's vectorised current-filter match
        over all sources.  Up-to-date entries are decided by it directly;
        behind entries are evaluated exactly at their cached version via
        the store's patch history (a handful of sources at most), with the
        current answer as a hint that lets the store skip the bit gather
        when no later patch touches the queried positions.
        """
        behind = self.behind[peer]
        hits = (self.version[peer] >= 0) & current_match & ~behind
        for source in np.flatnonzero(behind).tolist():
            hits[source] = self.store.match_at_version(
                source,
                int(self.version[peer, source]),
                positions,
                current=bool(current_match[source]),
            )
        return hits


class RepositoryView:
    """One node's ads repository: row ``owner`` of an :class:`AdsState`."""

    __slots__ = ("state", "owner")

    def __init__(self, state: AdsState, owner: int) -> None:
        self.state = state
        self.owner = owner

    def __len__(self) -> int:
        return int(self.state.occupancy[self.owner])

    def __contains__(self, source: int) -> bool:
        return bool(self.state.version[self.owner, source] >= 0)

    def sources(self) -> List[int]:
        """Cached sources in insertion order."""
        held = np.flatnonzero(self.state.version[self.owner] >= 0)
        return held[np.argsort(self.state.seq[self.owner, held])].tolist()

    def entry(self, source: int) -> Optional[CachedAd]:
        state, owner = self.state, self.owner
        if source not in self:
            return None
        return CachedAd(
            source=source,
            version=int(state.version[owner, source]),
            topics=state.topics_of(int(state.topics_code[owner, source])),
            cached_at=float(state.cached_at[owner, source]),
        )

    @property
    def behind(self) -> FrozenSet[int]:
        """Cached sources known to have patched past this cache."""
        return frozenset(np.flatnonzero(self.state.behind[self.owner]).tolist())

    def accept(self, ad: Ad, now: float) -> Tuple[bool, List[int]]:
        stored, evicted = self.state.accept(ad, now, np.array([self.owner]))
        return bool(stored[0]), [source for _, source in evicted]

    def accept_snapshot(
        self, source: int, version: int, topics: FrozenSet[int], now: float
    ) -> Tuple[bool, List[int]]:
        stored, evicted = self.state.accept_snapshot(
            self.owner,
            np.array([source]),
            np.array([version]),
            np.array([self.state.intern_topics(topics)]),
            now,
        )
        return bool(stored[0]), [source for _, source in evicted]

    def mark_behind(self, source: int) -> None:
        """The source patched past us without reaching this cache."""
        if source in self:
            self.state.behind[self.owner, source] = True

    def remove(self, source: int) -> None:
        self.state.remove(self.owner, source)

    def lookup(
        self, positions: np.ndarray, current_match: np.ndarray
    ) -> List[int]:
        """Sorted sources whose cached ad matches all query-term positions."""
        return np.flatnonzero(
            self.state.lookup(self.owner, positions, current_match)
        ).tolist()
