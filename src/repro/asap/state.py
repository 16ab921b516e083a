"""The ads cache of every node as one dense peer x source relation (III-B/C).

A node "selectively stores interesting ads received from other peers": an
ad is cached only when its topic set intersects the node's interests.  The
paper's cache is one relation, ``(node, source) -> (version, topics,
recency, behind)``, and :class:`AdsState` stores a pair in 8 bytes, one
``int32`` in each of two ``n x n`` arrays indexed ``[peer, source]``:

``entry``
    ``version << 15 | class mask << 1 | behind``, ``-1`` when absent.  The
    mask is the ad's topic set, one bit per semantic class, so the interest
    filter is one AND.  ``entry >= 0`` is "held", ``entry & 1 == 0`` "held
    and not behind", and a cached version is compared against
    ``ad.version << 15`` without unpacking a cell.
``stamp``
    The tick of the entry's last write (the index of its ``now`` among the
    distinct write times), ``INT32_MAX`` when absent: ascending is the
    least-recently-refreshed order.

With a capacity bound the entry with the smallest (stamp, insertion number)
is evicted: a row ``argmin`` per crowded receiver of one ad.  An ads
exchange searches no row: what it adopts ranks after every entry the
requester holds, so through one exchange the row is a FIFO that drops its
head (:meth:`AdsState.exchange`).  The ``uint32`` insertion numbers
(``seq``; an overwritten entry keeps its own) break ties on time, such as
the hundreds of entries a bootstrap exchange stores at one ``now``; only a
bounded cache allocates them, 12 bytes a pair.  Versions above 65,535,
classes beyond the 14 and ticks that reach ``INT32_MAX`` raise
:class:`OverflowError` by name.  Measured fill is 30-46 % of all pairs, so
dense cells are smaller than any per-pair index, a node's repository is a
row, a source's cacher set a column, and every merge rule one gather and
one or two scatters.

Version merging follows the paper: a **full** ad replaces the entry
outright; a **patch** applies only as the successor version (a gap leaves
the entry *behind*); a **refresh** renews recency and detects missed
patches; the **ads-request replies** start caching the neighbours'
entries at the neighbours' versions, every reply of one request in one
call (:meth:`AdsState.exchange`); and a **repair pull** brings a held
entry up to the source's full ad, never downgrading
(:meth:`AdsState.accept_repair`).  A behind entry is still usable --
lookups read the filter column the store keeps for its recorded version --
and failed confirmations are how stale entries are ultimately retired.
``behind`` is stored, not derived from versions: a source that changes
content while offline bumps the store and marks nobody.

Ticks order writes only under a clock that never runs backwards, so a
write whose ``now`` precedes the last one raises
:class:`~repro.sim.engine.SimulationError`.  The memory is Theta(n^2)
whatever the capacity, and ``entry`` and ``stamp`` are committed when they
are built (neither "absent" is zero), so peer counts whose state would not
fit :data:`MAX_STATE_BYTES` are refused up front.

The plain object model this is checked against op-for-op lives in
``tests/oracles/repository.py``; whole-run behaviour is frozen by
``tests/golden/run_fingerprints.json``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.store import SourceFilterStore
from repro.sim.engine import SimulationError
from repro.workload.interests import N_CLASSES, topic_bits

__all__ = [
    "AdsState",
    "BYTES_PER_PAIR",
    "MAX_STATE_BYTES",
    "require_state_fits",
]

#: entry + stamp; a bounded cache adds 4 for its insertion numbers.
BYTES_PER_PAIR = 4 + 4

#: The peak-RSS bar of the scale-up gate (``benchmarks/bench_scaleup.py``):
#: 32,768 peers unbounded, 26,754 bounded.
MAX_STATE_BYTES = 8 * 2**30

_CLASS_BITS = N_CLASSES  # 14
_SHIFT = _CLASS_BITS + 1  # where an entry's version starts
_VERSION_MAX = np.iinfo(np.int32).max >> _SHIFT  # 65,535
_ABSENT = -1  # entry of a pair that caches nothing
_NEVER = np.iinfo(np.int32).max  # its stamp: after every held entry's
_TICK_MAX = _NEVER - 1
_SEQ_LIMIT = np.iinfo(np.uint32).max
#: Sign bit | behind bit: ``cell & _HELD_BEHIND == 1`` iff held and behind.
_HELD_BEHIND = np.int32(-(2**31) + 1)

_ALL = slice(None)


def require_state_fits(n_peers: int, capacity: Optional[int] = None) -> None:
    """Refuse a peer count whose dense ads state exceeds the memory bar;
    ``capacity`` is the cell's cache bound (``None``: unbounded)."""
    per_pair = BYTES_PER_PAIR + (0 if capacity is None else 4)
    need = n_peers * n_peers * per_pair
    if need > MAX_STATE_BYTES:
        cache = "an unbounded" if capacity is None else "a bounded"
        raise ValueError(
            f"ASAP keeps a dense peer x source ads state: {n_peers} peers "
            f"need {need:,} bytes at {per_pair} a pair, over the supported "
            f"{MAX_STATE_BYTES:,} (at most "
            f"{math.isqrt(MAX_STATE_BYTES // per_pair)} peers with {cache} "
            f"ads cache)"
        )


Evicted = List[Tuple[int, int]]  # (peer, source) pairs, in eviction order


class AdsState:
    """Every node's interest-filtered, version-merging ads cache.

    ``interest_bits[peer]`` is the peer's caching filter as a topic bitmask
    (its own interests; a super peer's also cover its leaves').  All merge
    operations take index *arrays*; one node's repository is row ``peer``,
    and a scalar call is the same code with a one-element array.
    """

    __slots__ = (
        "n", "capacity", "store", "interest_bits", "entry", "stamp", "seq",
        "occupancy", "_times", "_next_seq",
    )

    def __init__(
        self,
        n: int,
        interest_bits: np.ndarray,
        store: SourceFilterStore,
        capacity: Optional[int] = None,
    ) -> None:
        require_state_fits(n, capacity)
        self.n = n
        self.capacity = capacity
        self.store = store
        self.interest_bits = interest_bits
        self.entry = np.full((n, n), _ABSENT, dtype=np.int32)
        self.stamp = np.full((n, n), _NEVER, dtype=np.int32)
        self.seq = None if capacity is None else np.zeros((n, n), dtype=np.uint32)
        self.occupancy = np.zeros(n, dtype=np.int64)
        # Distinct write times, ascending; a stamp indexes them.
        self._times: List[float] = [-math.inf]
        self._next_seq = 0

    # ------------------------------------------------------------- views
    def held_mask(self, peers=_ALL, sources=_ALL) -> np.ndarray:
        """Which of ``[peers, sources]`` (default: every pair) are cached."""
        return self.entry[peers, sources] >= 0

    def behind_mask(self, peers=_ALL, sources=_ALL) -> np.ndarray:
        """Which of ``[peers, sources]`` are cached and lag their source."""
        return (self.entry[peers, sources] & _HELD_BEHIND) == 1

    def versions(self, peers, sources):
        """Cached versions at ``[peers, sources]``; -1 where nothing is."""
        return self.entry[peers, sources] >> _SHIFT

    def ages(self, now: float) -> np.ndarray:
        """Seconds since each held entry was last refreshed, row-major."""
        times = np.asarray(self._times)
        return now - times[self.stamp[self.entry >= 0]]

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
            "pool_bytes": sum(
                a.nbytes for a in (self.entry, self.stamp, self.seq) if a is not None
            ),
        }

    # ------------------------------------------------------------- merge
    def _tick(self, now: float) -> int:
        """The tick of a write at ``now``: its index in the write times."""
        times = self._times
        if now > times[-1]:
            if len(times) > _TICK_MAX:  # every stamp stays below _NEVER
                raise OverflowError("ads-cache clock ticks exhausted")
            times.append(now)
        elif now != times[-1]:
            raise SimulationError(
                f"ads state written at t={now}, before its last write at "
                f"t={times[-1]}: recency stamps need a clock that never "
                f"runs backwards"
            )
        return len(times) - 1

    def _pack(self, version: int, topics: int, source: int) -> int:
        """The entry of ``source``'s ad at ``version`` over the classes
        ``topics`` (a mask); whether it lags is judged against the store,
        never carried over."""
        if version > _VERSION_MAX:
            raise OverflowError("ad version does not fit an ads-cache entry")
        if topics >> _CLASS_BITS:
            raise OverflowError(
                f"ad topic class beyond the {_CLASS_BITS} an ads-cache entry holds"
            )
        behind = version < self.store._version[source]
        return version << _SHIFT | topics << 1 | int(behind)

    def accept(
        self, ad: Ad, now: float, peers: np.ndarray
    ) -> Tuple[np.ndarray, Evicted]:
        """Merge a received ad into the caches of ``peers`` (distinct ids).

        Returns ``(stored, evicted)``: per peer, whether the ad created or
        updated an entry, and the entries evicted to make room.
        """
        src = ad.source
        word = self._pack(ad.version, topic_bits(ad.topics), src)
        tick = self._tick(now)
        words = self.entry[peers, src]
        held = words >= 0
        if ad.ad_type is AdType.FULL:
            # Updates to an entry already held are always relevant (e.g. a
            # source whose topic set shrank to empty must still reach its
            # cachers, or they would stay silently stale); whether to
            # START caching a source is the fresh-insert arm's decision.
            cachers = peers[held]
            self.entry[cachers, src] = word
            self.stamp[cachers, src] = tick
            fresh = ~held & (peers != src)
            started, evicted = self._insert(peers[fresh], src, word, tick)
            held[fresh] = started
            return held, evicted

        # Patches and refreshes are meaningless without a base entry.
        cachers = peers[held]
        cached = words[held]
        newer = cached < (ad.version << _SHIFT)  # the ad outruns the cached copy
        if ad.ad_type is AdType.PATCH:
            lagging = cachers[newer]
            self.entry[lagging, src] = cached[newer] | 1  # a gap: cannot merge
            self.stamp[lagging, src] = tick
            successor = cachers[newer & (cached >= ((ad.version - 1) << _SHIFT))]
            self.entry[successor, src] = word
            # Older patches carry nothing new.
        else:  # REFRESH: renew recency; detect missed patches.
            self.stamp[cachers, src] = tick
            lagging = cachers[newer]
            if lagging.size:
                self.entry[lagging, src] |= 1
        return held, []

    def accept_repair(
        self, peers: np.ndarray, source: int, version: int, topics: int, now: float
    ) -> None:
        """``source`` answered the repair pulls of ``peers``, which all hold
        it, with its full ad at ``version`` over the class mask ``topics``.
        Each peer the topics still interest renews the entry's recency and,
        where its copy is older, takes the version (never a downgrade); a
        peer they no longer interest keeps its entry as it is."""
        word = self._pack(version, topics, source)
        wanted = peers[self._wants(peers, word)]
        self.stamp[wanted, source] = self._tick(now)
        stale = wanted[self.entry[wanted, source] < (version << _SHIFT)]
        self.entry[stale, source] = word

    def _wants(self, peers, words) -> np.ndarray:
        """The interest filter: do the class masks of the held entry
        ``words`` meet the peers' interests?"""
        return ((words >> 1) & self.interest_bits[peers]) != 0

    def _insert(
        self, peers: np.ndarray, source: int, word: int, tick: int
    ) -> Tuple[np.ndarray, Evicted]:
        """Start caching ``source``'s ``word`` at the ``peers`` (distinct
        ids), which do not hold it and are not it (nobody caches itself).

        Returns which were interesting enough to store and what that
        evicted.  The new entries take the next insertion numbers in array
        order.
        """
        stored = self._wants(peers, word)
        peers = peers[stored]
        if len(peers) == 0:
            return stored, []
        numbers = None if self.seq is None else self._numbers(len(peers))
        self.occupancy[peers] += 1
        self.entry[peers, source] = word
        self.stamp[peers, source] = tick
        if numbers is None:
            return stored, []
        self.seq[peers, source] = numbers
        return stored, self._evict(peers)

    def _numbers(self, k: int) -> np.ndarray:
        """The next ``k`` insertion numbers of a bounded cache."""
        if self._next_seq + k > _SEQ_LIMIT:
            raise OverflowError("ads-cache insertion counter exhausted")
        self._next_seq += k
        return np.arange(self._next_seq - k, self._next_seq)

    def _rank(self, peers, sources=_ALL) -> np.ndarray:
        """``[peers, sources]`` as eviction keys: stamp << 32 | insertion
        number."""
        stamps = self.stamp[peers, sources].astype(np.int64)
        return stamps << 32 | self.seq[peers, sources]

    def _oldest(self, peers: np.ndarray) -> np.ndarray:
        """Each row's first victim.  The stamps decide it unless a row's
        smallest stamp is tied, which a crowded receiver of one ad seldom
        has, and only such rows read the insertion numbers."""
        rows = self.stamp[peers]
        first = rows.argmin(axis=1)[:, None]
        low = np.take_along_axis(rows, first, axis=1)[:, 0]
        np.put_along_axis(rows, first, _NEVER, axis=1)
        victims = first[:, 0]
        tied = np.flatnonzero(rows.min(axis=1) == low)
        if tied.size:
            victims[tied] = self._rank(peers[tied]).argmin(axis=1)
        return victims

    def _evict(self, peers: np.ndarray) -> Evicted:
        """Drop the least recently refreshed entry of each of the ``peers``
        one :meth:`_insert` left over capacity, crowded peers ascending.
        Caches are within capacity between operations, so each receiver of
        one ad is over by exactly its new entry."""
        crowded = np.sort(peers[self.occupancy[peers] > self.capacity])
        if crowded.size == 0:
            return []
        victims = self._oldest(crowded)
        self.entry[crowded, victims] = _ABSENT
        self.stamp[crowded, victims] = _NEVER
        self.occupancy[crowded] -= 1
        return list(zip(crowded.tolist(), victims.tolist()))

    def exchange(
        self, peer: int, suppliers: np.ndarray, offered: np.ndarray, now: float
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """The ads exchange: ``peer`` starts caching what the replies of
        the ``suppliers`` (distinct, not ``peer``) carry, in that order.

        ``offered[j]`` masks the sources supplier ``j`` holds and would
        send; its reply carries those ``peer`` lacks when it arrives and
        whose class mask, as the supplier caches it, meets ``peer``'s
        interests.  The cells go through as they are, but for the behind
        bit.  Returns the sources each reply adopted (ascending) and those
        evicted from ``peer``'s row (in eviction order).

        An adopted entry takes the newest tick and the next insertion
        numbers, so it ranks after every entry ``peer`` held: through one
        exchange the row is a FIFO, its held entries in (stamp, insertion
        number) order, then each reply's sources.  After each reply the
        FIFO drops its head down to the capacity, so a later supplier may
        re-offer a source an earlier reply evicted.  Unbounded, each source
        comes from the first reply that carries it.
        """
        if len(suppliers) == 0:
            return [], np.empty(0, dtype=np.intp)
        tick = self._tick(now)
        held, head = int(self.occupancy[peer]), 0
        outside = self.entry[peer] < 0  # not in the FIFO
        bounded = self.capacity is not None
        if bounded:
            fifo = np.flatnonzero(~outside)
            fifo = fifo[np.argsort(self._rank(peer, fifo))]
        outside[peer] = False  # nobody caches itself
        adopted, cells = [], []
        for supplier, offer in zip(suppliers.tolist(), offered):
            novel = np.flatnonzero(offer & outside)
            words = self.entry[supplier, novel]
            wanted = self._wants(peer, words)
            fresh = novel[wanted]
            outside[fresh] = False
            adopted.append(fresh)
            cells.append(words[wanted])
            if bounded:
                # Every adoption takes a number, evicted or not.
                self.seq[peer, fresh] = self._numbers(len(fresh))
                fifo = np.concatenate([fifo, fresh])
                if len(fifo) - head > self.capacity:
                    outside[fifo[head : len(fifo) - self.capacity]] = True
                    head = len(fifo) - self.capacity

        new = np.concatenate(adopted)  # every adoption, in FIFO order
        evicted = new[:0]
        if head:
            evicted = fifo[:head]
            self.entry[peer, evicted] = _ABSENT
            self.stamp[peer, evicted] = _NEVER
        dropped = max(head - held, 0)  # adoptions evicted again
        kept, cells = new[dropped:], np.concatenate(cells)[dropped:]
        behind = cells < (self.store._version[kept] << _SHIFT)
        self.entry[peer, kept] = (cells & ~1) | behind
        self.stamp[peer, kept] = tick
        self.occupancy[peer] += len(new) - head
        return adopted, evicted

    def remove(self, peer: int, source: int) -> None:
        """Drop an entry (a failed confirmation)."""
        if self.entry[peer, source] >= 0:
            self.entry[peer, source] = _ABSENT
            self.stamp[peer, source] = _NEVER
            self.occupancy[peer] -= 1

    def mark_missed(self, source: int, reached: np.ndarray) -> None:
        """A patch went out: cachers it did not reach now lag the source."""
        missed = self.entry[:, source] >= 0
        missed[reached] = False
        self.entry[missed, source] |= 1

    # ------------------------------------------------------------ lookup
    def lookup(self, peers, match: np.ndarray) -> np.ndarray:
        """Mask of sources whose ad cached at ``peers`` matches the query:
        a row for one peer, one row per peer for an array of them.

        ``match`` is the store's answer for the query's positions over
        every filter column (:meth:`SourceFilterStore.match_current`).  An
        up-to-date entry reads its source's current column, a behind entry
        the column that keeps the version it cached: one gather however
        many lag -- 227 per lookup on the paper's ASAP(RW) cell
        (``BENCH_SCALEUP.json``; ``--probes`` reports a run's total as
        ``staleness.behind``).
        """
        rows = self.entry[peers]
        flags = rows & _HELD_BEHIND  # 0: held and current, 1: held and behind
        hits = (flags == 0) & match[: self.n]
        # Row-major positions: a flat scan, several times faster than
        # ``np.nonzero`` of the rows.
        behind = np.flatnonzero(flags == 1)
        if behind.size:
            versions = rows.reshape(-1)[behind] >> _SHIFT
            columns = self.store.columns_of(behind % self.n, versions)
            hits.reshape(-1)[behind] = match[columns]
        return hits
