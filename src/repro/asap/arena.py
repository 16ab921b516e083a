"""Pooled struct-of-arrays storage for every node's ads cache (paper III-B).

A node "selectively stores interesting ads received from other peers": an
ad is cached only when its topic set intersects the node's interests.  One
object per cached ad is the memory wall two orders of magnitude above paper
scale (~270 bytes per (peer, source) pair; a warmed-up 100k-peer cell holds
tens of millions of pairs), so the per-pair *state* lives in flat numpy
arrays -- version, interned topic-set code and last-refresh timestamp, 16
bytes per pair -- indexed by rows handed out from a compact free-list.
Each :class:`ArenaRepository` keeps only an insertion-ordered source -> row
dict plus its ``behind`` set; LRU tie-breaks, lookup iteration and digest
set arithmetic all follow that dict's order.

Version merging follows the paper: a **full** ad replaces the entry
outright; a **patch** applies only as the successor version (a gap leaves
the entry *behind*); a **refresh** renews recency and detects missed
patches.  A behind entry is still usable -- lookups evaluate it at its
recorded version via the store's patch history -- and failed confirmations
are how stale entries are ultimately retired.

Topic sets are interned: ads re-use a small population of frozensets (the
semantic classes of each source's content), so one ``int32`` code per pair
replaces a pointer to a frozenset.  Timestamps stay ``float64`` -- they take
part in LRU comparisons and must round-trip exactly.

This is the only ads-cache implementation in the product.  The plain
object model it is checked against op-for-op lives in
``tests/oracles/repository.py``; whole-run behaviour is frozen by
``tests/golden/run_fingerprints.json``.

:class:`CacherIndex` is the matching inverse index: ``cachers[source]`` as
a packed per-source bitset over nodes (n/8 bytes) instead of a Python set
(~60 bytes per member), with the set-like surface the protocol uses.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.store import SourceFilterStore

__all__ = ["AdsArena", "ArenaRepository", "ArenaEntry", "CacherIndex", "CacherSet"]


class AdsArena:
    """Pooled (peer, source) cache-entry state shared by all repositories."""

    __slots__ = (
        "version",
        "topics_code",
        "cached_at",
        "_free",
        "_top",
        "_code_of",
        "_topics_list",
    )

    def __init__(self, initial_rows: int = 1024) -> None:
        n = max(int(initial_rows), 16)
        self.version = np.zeros(n, dtype=np.int32)
        self.topics_code = np.zeros(n, dtype=np.int32)
        self.cached_at = np.zeros(n, dtype=np.float64)
        self._free: List[int] = []  # recycled rows, LIFO
        self._top = 0  # next never-used row
        self._code_of: Dict[FrozenSet[int], int] = {}
        self._topics_list: List[FrozenSet[int]] = []

    # ------------------------------------------------------------- rows
    def _grow(self) -> None:
        n = len(self.version)
        new = n * 2
        for name in ("version", "topics_code", "cached_at"):
            arr = getattr(self, name)
            out = np.zeros(new, dtype=arr.dtype)
            out[:n] = arr
            setattr(self, name, out)

    def alloc(self) -> int:
        """Hand out a row: recycled from the free-list, else fresh."""
        if self._free:
            return self._free.pop()
        if self._top >= len(self.version):
            self._grow()
        row = self._top
        self._top += 1
        return row

    def release(self, row: int) -> None:
        self._free.append(row)

    def reserve(self, k: int) -> None:
        """Grow the pool until ``k`` allocs cannot trigger a reallocation.

        Callers that hoist the array attributes around a bounded alloc
        burst (the batched protocol loops) reserve first: ``_grow``
        replaces the arrays, which would strand the hoisted handles.
        """
        need = self._top + max(int(k) - len(self._free), 0)
        while need > len(self.version):
            self._grow()

    # ------------------------------------------------------------ topics
    def intern_topics(self, topics: FrozenSet[int]) -> int:
        """Code for a topic set; one code per distinct frozenset."""
        code = self._code_of.get(topics)
        if code is None:
            fs = frozenset(topics)
            code = len(self._topics_list)
            self._topics_list.append(fs)
            self._code_of[fs] = code
        return code

    def topics_of(self, code: int) -> FrozenSet[int]:
        return self._topics_list[code]

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        """Arena utilisation: pool size, live rows, free-list depth."""
        return {
            "rows_allocated": int(self._top),
            "rows_live": int(self._top - len(self._free)),
            "free_list_depth": len(self._free),
            "pool_rows": int(len(self.version)),
            "pool_bytes": int(
                self.version.nbytes + self.topics_code.nbytes + self.cached_at.nbytes
            ),
            "topic_sets_interned": len(self._topics_list),
        }


class ArenaEntry:
    """Read-only view of one cached ad, backed by its arena row.

    ``version``/``topics``/``cached_at`` read through to the arrays with
    exact values (timestamps stay float64 end to end).
    """

    __slots__ = ("_arena", "_row", "source")

    def __init__(self, arena: AdsArena, row: int, source: int) -> None:
        self._arena = arena
        self._row = row
        self.source = source

    @property
    def version(self) -> int:
        return int(self._arena.version[self._row])

    @property
    def topics(self) -> FrozenSet[int]:
        return self._arena.topics_of(int(self._arena.topics_code[self._row]))

    @property
    def cached_at(self) -> float:
        return float(self._arena.cached_at[self._row])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArenaEntry(source={self.source}, version={self.version}, "
            f"topics={sorted(self.topics)}, cached_at={self.cached_at})"
        )


class ArenaRepository:
    """Interest-filtered, version-merging ads cache of a single node.

    Entries live as arena rows keyed by an insertion-ordered source -> row
    dict; eviction tie-breaks and lookup order follow that dict's order.
    An optional capacity bound with LRU eviction (by last refresh time)
    supports the cache-size ablation.
    """

    __slots__ = (
        "owner", "interests", "store", "capacity", "arena", "_slot",
        "behind", "_order_src", "_order_row", "_order_n",
    )

    def __init__(
        self,
        owner: int,
        interests: Set[int],
        store: SourceFilterStore,
        arena: AdsArena,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.owner = owner
        self.interests = set(interests)
        self.store = store
        self.capacity = capacity
        self.arena = arena
        self._slot: Dict[int, int] = {}
        self.behind: Set[int] = set()
        # Capped repos keep an insertion-ordered numpy mirror of the slot
        # dict (sources + their rows) so the eviction victim scan is one
        # gather + argmin instead of a Python walk.  Dict semantics are
        # preserved exactly -- re-storing an existing source keeps its
        # position, drop + re-insert moves it to the end -- so the victim
        # is the first minimal ``cached_at`` in insertion order.  Unbounded
        # repos (the paper's primary configuration) skip the mirror.
        if capacity is not None:
            self._order_src = np.empty(capacity + 8, dtype=np.int64)
            self._order_row = np.empty(capacity + 8, dtype=np.int64)
        else:
            self._order_src = None
            self._order_row = None
        self._order_n = 0

    # -------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, source: int) -> bool:
        return source in self._slot

    def sources(self) -> Iterable[int]:
        return self._slot.keys()

    def entry(self, source: int) -> Optional[ArenaEntry]:
        row = self._slot.get(source)
        if row is None:
            return None
        return ArenaEntry(self.arena, row, source)

    def interested_in(self, topics: FrozenSet[int]) -> bool:
        """Nonempty intersection between ad topics and owner interests."""
        return bool(self.interests & topics)

    # ------------------------------------------------------------- storage
    def store_entry(
        self, source: int, version: int, topics: FrozenSet[int], now: float
    ) -> None:
        """Create or overwrite the entry for ``source`` (no behind logic)."""
        arena = self.arena
        row = self._slot.get(source)
        if row is None:
            row = arena.alloc()
            self._slot[source] = row
            if self._order_src is not None:
                self._order_append(source, row)
        arena.version[row] = version
        arena.topics_code[row] = arena.intern_topics(topics)
        arena.cached_at[row] = now

    def _drop(self, source: int) -> bool:
        row = self._slot.pop(source, None)
        if row is None:
            return False
        if self._order_src is not None:
            self._order_remove(source)
        self.arena.release(row)
        return True

    # ------------------------------------------------- insertion-order mirror
    def _order_append(self, source: int, row: int) -> None:
        n = self._order_n
        if n == len(self._order_src):
            self._order_src = np.resize(self._order_src, 2 * n)
            self._order_row = np.resize(self._order_row, 2 * n)
        self._order_src[n] = source
        self._order_row[n] = row
        self._order_n = n + 1

    def _order_remove(self, source: int) -> None:
        n = self._order_n
        srcs = self._order_src
        idx = int(np.nonzero(srcs[:n] == source)[0][0])
        srcs[idx : n - 1] = srcs[idx + 1 : n]
        rows = self._order_row
        rows[idx : n - 1] = rows[idx + 1 : n]
        self._order_n = n - 1

    # --------------------------------------------------------------- accept
    def accept(self, ad: Ad, now: float) -> Tuple[bool, List[int]]:
        """Process a received ad.

        Returns ``(stored, evicted)``: whether the ad created/updated an
        entry, and which sources were evicted to make room.
        """
        if ad.source == self.owner:
            return False, []
        row = self._slot.get(ad.source)
        # The interest filter decides whether to START caching a source;
        # updates to an entry we already hold are always relevant (e.g. a
        # removal patch from a source whose topic set shrank to empty must
        # still reach us, or the cache would stay silently stale).
        if row is None and not self.interested_in(ad.topics):
            return False, []

        arena = self.arena
        if ad.ad_type is AdType.FULL:
            self.store_entry(ad.source, ad.version, ad.topics, now)
            self._sync_behind(ad.source, ad.version)
            return True, self._evict(protect=ad.source)

        if row is None:
            # Patches and refreshes are meaningless without a base entry.
            return False, []

        if ad.ad_type is AdType.PATCH:
            held = int(arena.version[row])
            if ad.version == held + 1:
                arena.version[row] = ad.version
                arena.topics_code[row] = arena.intern_topics(ad.topics)
                arena.cached_at[row] = now
                self._sync_behind(ad.source, ad.version)
            elif ad.version > held:
                self.behind.add(ad.source)
                arena.cached_at[row] = now
            # Older patches carry nothing new.
            return True, []

        # REFRESH: renew recency; detect missed patches via the version.
        arena.cached_at[row] = now
        if ad.version > int(arena.version[row]):
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
        row = self._slot.get(source)
        if row is not None and int(self.arena.version[row]) >= version:
            self.arena.cached_at[row] = now
            return False, []
        self.store_entry(source, version, topics, now)
        self._sync_behind(source, version)
        return True, self._evict(protect=source)

    def _sync_behind(self, source: int, version: int) -> None:
        if version < self.store.version(source):
            self.behind.add(source)
        else:
            self.behind.discard(source)

    def mark_behind(self, source: int) -> None:
        """The source patched past us without reaching this cache."""
        if source in self._slot:
            self.behind.add(source)

    def remove(self, source: int) -> None:
        """Drop an entry (typically after a failed confirmation)."""
        self._drop(source)
        self.behind.discard(source)

    def _evict(self, protect: int) -> List[int]:
        """LRU-evict past capacity, never evicting the just-stored entry.

        The victim scan runs over the insertion-ordered mirror arrays: one
        ``cached_at`` gather plus ``argmin``, whose first-occurrence rule
        breaks ties by insertion order.
        """
        if self.capacity is None or len(self._slot) <= self.capacity:
            return []
        cached_at = self.arena.cached_at
        evicted: List[int] = []
        while len(self._slot) > self.capacity:
            n = self._order_n
            srcs = self._order_src[:n]
            ts = cached_at[self._order_row[:n]]
            shield = np.nonzero(srcs == protect)[0]
            if shield.size:
                if n == 1:
                    break
                ts[shield[0]] = np.inf
            victim = int(srcs[np.argmin(ts)])
            self._drop(victim)
            self.behind.discard(victim)
            evicted.append(victim)
        return evicted

    # --------------------------------------------------------------- lookup
    def lookup(
        self, positions: np.ndarray, current_match: np.ndarray
    ) -> List[int]:
        """Sources whose cached ad matches all query-term positions.

        ``current_match`` is the store's vectorised current-filter match
        over all sources.  Up-to-date entries are decided by it directly;
        behind entries are evaluated exactly at their cached version via the
        store's patch history (a handful of sources at most).
        """
        hits: List[int] = []
        slot = self._slot
        behind = self.behind
        matching_ids = np.nonzero(current_match)[0]
        # Iterate the smaller collection.
        if len(matching_ids) <= len(slot):
            for s in matching_ids:
                s = int(s)
                if s in slot and s not in behind and s != self.owner:
                    hits.append(s)
        else:
            for s in slot:
                if current_match[s] and s not in behind and s != self.owner:
                    hits.append(s)
        version = self.arena.version
        for s in behind:
            row = slot.get(s)
            if row is None:
                continue
            # The current-filter answer is already computed for every
            # source; passing it lets the store skip the bit gather when no
            # later patch touches the queried positions (value-identical).
            if self.store.match_at_version(
                s, int(version[row]), positions, current=bool(current_match[s])
            ):
                hits.append(s)
        return sorted(set(hits))


class CacherSet:
    """Set-like view of one source's cachers, backed by a packed bitset.

    Storage is a ``bytearray`` (n/8 bytes): single-node operations are
    plain Python int/byte arithmetic (~10x cheaper than numpy scalar
    indexing on this hot path), while bulk operations go through a zero-
    copy ``np.frombuffer`` view.
    """

    __slots__ = ("_bits", "n_nodes")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._bits = bytearray((n_nodes + 7) // 8)

    # ------------------------------------------------------------ mutation
    def add(self, node: int) -> None:
        self._bits[node >> 3] |= 1 << (node & 7)

    def discard(self, node: int) -> None:
        self._bits[node >> 3] &= ~(1 << (node & 7))

    def update(self, nodes: Iterable[int]) -> None:
        idx = np.asarray(nodes if isinstance(nodes, (list, np.ndarray)) else list(nodes), dtype=np.int64)
        if len(idx) == 0:
            return
        view = np.frombuffer(self._bits, dtype=np.uint8)
        np.bitwise_or.at(view, idx >> 3, (1 << (idx & 7)).astype(np.uint8))

    # ------------------------------------------------------------- queries
    def __contains__(self, node: int) -> bool:
        return bool(self._bits[node >> 3] & (1 << (node & 7)))

    def _members(self) -> np.ndarray:
        return np.flatnonzero(
            np.unpackbits(np.frombuffer(self._bits, dtype=np.uint8), bitorder="little")[
                : self.n_nodes
            ]
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._members().tolist())

    def __len__(self) -> int:
        return len(self._members())

    def __bool__(self) -> bool:
        return any(self._bits)

    def difference(self, other) -> Set[int]:
        return {n for n in self._members().tolist() if n not in other}

    def __sub__(self, other) -> Set[int]:
        return self.difference(other)


class CacherIndex:
    """``defaultdict(set)``-compatible inverse index: source -> cacher bitset.

    Bitset rows materialise lazily on first access, so only sources that
    ever gained a cacher pay the n/8 bytes.
    """

    __slots__ = ("n_nodes", "_rows")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._rows: Dict[int, CacherSet] = {}

    def __getitem__(self, source: int) -> CacherSet:
        row = self._rows.get(source)
        if row is None:
            row = CacherSet(self.n_nodes)
            self._rows[source] = row
        return row

    def __contains__(self, source: int) -> bool:
        return source in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def items(self) -> Iterator[Tuple[int, CacherSet]]:
        return iter(self._rows.items())

    def keys(self):
        return self._rows.keys()

    def values(self):
        return self._rows.values()
