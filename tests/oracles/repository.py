"""Ads-cache oracle: one object per cached ad (paper Sections III-B/III-C).

The plain model one row of the dense :class:`~repro.asap.state.AdsState`
is checked against op for op -- same contract, same LRU tie-breaks, and,
for a bounded cache, the same insertion-ordered iteration; never imported
by ``src/repro``.
:class:`StateRow` reads such a row in this model's terms.

A node "selectively stores interesting ads received from other peers": an ad
is cached only when its topic set intersects the node's interests.  The
repository keys entries by source node and keeps, per entry, the version of
the source's filter the cache reflects.  Version merging follows the paper:

* a **full** ad replaces the entry outright;
* a **patch** ad applies only when it is the successor version (v = cached
  version + 1); a gap means missed patches and leaves the entry *behind*;
* a **refresh** ad renews liveness/recency; a version mismatch again marks
  the entry behind.

A *behind* entry is still usable: lookups evaluate it against its recorded
version via the store's exact patch-history reconstruction.  Confirmation
failures (offline source, false positive) are how stale entries are
ultimately retired, exactly as in the paper.

Optional capacity bound with LRU eviction (by last refresh time) supports
the cache-size ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.store import SourceFilterStore

from tests.oracles.store import match_at_version_reference

__all__ = ["AdsRepository", "CacheEntry", "StateRow", "snapshot"]

#: A dense entry is ``version << 15 | class mask << 1 | behind``.
_CLASSES = 14


@dataclass(slots=True)
class CacheEntry:
    """One cached ad: which source, at which filter version, which topics."""

    source: int
    version: int
    topics: FrozenSet[int]
    cached_at: float


class AdsRepository:
    """Interest-filtered, version-merging ads cache of a single node."""

    def __init__(
        self,
        owner: int,
        interests: Set[int],
        store: SourceFilterStore,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.owner = owner
        self.interests = set(interests)
        self.store = store
        self.capacity = capacity
        self.entries: Dict[int, CacheEntry] = {}
        self.behind: Set[int] = set()

    # -------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, source: int) -> bool:
        return source in self.entries

    def sources(self) -> Iterable[int]:
        return self.entries.keys()

    def entry(self, source: int) -> Optional[CacheEntry]:
        return self.entries.get(source)

    def version(self, source: int) -> int:
        """The cached version of ``source``; -1 when it is not cached."""
        entry = self.entries.get(source)
        return -1 if entry is None else entry.version

    def interested_in(self, topics: FrozenSet[int]) -> bool:
        """Nonempty intersection between ad topics and owner interests."""
        return bool(self.interests & topics)

    # --------------------------------------------------------------- accept
    def accept(self, ad: Ad, now: float) -> Tuple[bool, List[int]]:
        """Process a received ad.

        Returns ``(stored, evicted)``: whether the ad created/updated an
        entry, and which sources were evicted to make room.
        """
        if ad.source == self.owner:
            return False, []
        entry = self.entries.get(ad.source)
        # The interest filter decides whether to START caching a source;
        # updates to an entry we already hold are always relevant (e.g. a
        # removal patch from a source whose topic set shrank to empty must
        # still reach us, or the cache would stay silently stale).
        if entry is None and not self.interested_in(ad.topics):
            return False, []

        if ad.ad_type is AdType.FULL:
            self.entries[ad.source] = CacheEntry(
                source=ad.source,
                version=ad.version,
                topics=ad.topics,
                cached_at=now,
            )
            self._sync_behind(ad.source, ad.version)
            return True, self._evict(protect=ad.source)

        if entry is None:
            # Patches and refreshes are meaningless without a base entry.
            return False, []

        if ad.ad_type is AdType.PATCH:
            if ad.version == entry.version + 1:
                entry.version = ad.version
                entry.topics = ad.topics
                entry.cached_at = now
                self._sync_behind(ad.source, entry.version)
            elif ad.version > entry.version:
                self.behind.add(ad.source)
                entry.cached_at = now
            # Older patches carry nothing new.
            return True, []

        # REFRESH: renew recency; detect missed patches via the version.
        entry.cached_at = now
        if ad.version > entry.version:
            self.behind.add(ad.source)
        return True, []

    def accept_snapshot(
        self,
        source: int,
        version: int,
        topics: FrozenSet[int],
        now: float,
    ) -> Tuple[bool, List[int]]:
        """Merge an entry obtained from a neighbour's ads-request reply.

        Semantically a full ad at the *neighbour's* cached version (which
        may itself be behind the source's current filter).
        """
        if source == self.owner or not self.interested_in(topics):
            return False, []
        entry = self.entries.get(source)
        if entry is not None and entry.version >= version:
            entry.cached_at = now
            return False, []
        self.entries[source] = CacheEntry(
            source=source, version=version, topics=topics, cached_at=now
        )
        self._sync_behind(source, version)
        return True, self._evict(protect=source)

    def _sync_behind(self, source: int, version: int) -> None:
        if version < self.store.version(source):
            self.behind.add(source)
        else:
            self.behind.discard(source)

    def mark_behind(self, source: int) -> None:
        """The source patched past us without reaching this cache."""
        if source in self.entries:
            self.behind.add(source)

    def remove(self, source: int) -> None:
        """Drop an entry (typically after a failed confirmation)."""
        self.entries.pop(source, None)
        self.behind.discard(source)

    def _evict(self, protect: int) -> List[int]:
        """LRU-evict past capacity, never evicting the just-stored entry."""
        if self.capacity is None or len(self.entries) <= self.capacity:
            return []
        evicted: List[int] = []
        while len(self.entries) > self.capacity:
            victim = min(
                (e for s, e in self.entries.items() if s != protect),
                key=lambda e: e.cached_at,
                default=None,
            )
            if victim is None:
                break
            self.entries.pop(victim.source, None)
            self.behind.discard(victim.source)
            evicted.append(victim.source)
        return evicted

    # --------------------------------------------------------------- lookup
    def lookup(
        self, positions: np.ndarray, current_match: np.ndarray
    ) -> List[int]:
        """Sources whose cached ad matches all query-term positions.

        ``current_match`` is the store's vectorised current-filter match
        over all sources (the product's also answers for superseded
        versions, past index ``n``; unread here).  Up-to-date entries are
        decided by it directly; behind entries are evaluated exactly at
        their cached version by replaying the store's patch history.
        """
        hits: List[int] = []
        matching_ids = np.nonzero(current_match)[0]
        # Iterate the smaller collection.
        if len(matching_ids) <= len(self.entries):
            for s in matching_ids:
                s = int(s)
                if s in self.entries and s not in self.behind and s != self.owner:
                    hits.append(s)
        else:
            for s in self.entries:
                if current_match[s] and s not in self.behind and s != self.owner:
                    hits.append(s)
        for s in self.behind:
            entry = self.entries.get(s)
            if entry is None:
                continue
            if match_at_version_reference(self.store, s, entry.version, positions):
                hits.append(s)
        return sorted(set(hits))


class StateRow:
    """Row ``owner`` of an :class:`~repro.asap.state.AdsState`, read the way
    an :class:`AdsRepository` is.  Read-only: tests write through the state's
    own array calls."""

    def __init__(self, state, owner: int) -> None:
        self.state = state
        self.owner = owner

    def __len__(self) -> int:
        return int(self.state.occupancy[self.owner])

    def __contains__(self, source: int) -> bool:
        return bool(self.state.held_mask(self.owner, source))

    @property
    def capacity(self) -> Optional[int]:
        return self.state.capacity

    def sources(self) -> List[int]:
        """Cached sources: in insertion order where the cache is bounded
        (its tie-break), ascending where no insertion number is kept."""
        held = np.flatnonzero(self.state.held_mask(self.owner))
        if self.state.seq is None:
            return held.tolist()
        return held[np.argsort(self.state.seq[self.owner, held])].tolist()

    def version(self, source: int) -> int:
        return int(self.state.versions(self.owner, source))

    def entry(self, source: int) -> Optional[CacheEntry]:
        state = self.state
        word = int(state.entry[self.owner, source])
        if word < 0:
            return None
        return CacheEntry(
            source=source,
            version=word >> (_CLASSES + 1),
            topics=frozenset(c for c in range(_CLASSES) if (word >> (c + 1)) & 1),
            cached_at=state._times[int(state.stamp[self.owner, source])],
        )

    @property
    def behind(self) -> FrozenSet[int]:
        return frozenset(
            np.flatnonzero(self.state.behind_mask(self.owner)).tolist()
        )

    def lookup(self, match: np.ndarray) -> List[int]:
        """Sorted sources whose cached ad matches; ``match`` is the store's
        ``match_current`` of the query positions."""
        return np.flatnonzero(self.state.lookup(self.owner, match)).tolist()


def snapshot(repo):
    """Comparable state of either repository class: entries in iteration
    order plus the behind set.  Only a bounded cache's order is state (its
    eviction tie-break); an unbounded one's entries go by source."""
    order = repo.sources() if repo.capacity is not None else sorted(repo.sources())
    entries = ((s, repo.entry(s)) for s in order)
    return (
        [(s, e.version, tuple(sorted(e.topics)), e.cached_at) for s, e in entries],
        sorted(repo.behind),
    )
