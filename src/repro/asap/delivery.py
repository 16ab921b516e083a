"""Ad delivery over the overlay: flooding, random walk, or GSA forwarding.

The paper derives three ASAP schemes by the mechanism that carries ads to
potential consumers (Section IV-A):

* **ASAP(FLD)** -- ads flood with TTL 6, like queries in Gnutella;
* **ASAP(RW)**  -- 5 walkers carry the ad; the delivery's total message
  budget is ``|T(ad)| * M0`` with budget unit M0 = 3,000 (the total-budget
  limit of Gkantsidis et al. [12] the paper adopts);
* **ASAP(GSA)** -- budget-limited walk with one-hop replication.

A forwarder computes which nodes *received* the ad and charges the ledger
for every transmission (each hop carries the whole ad).  Walk-based
deliveries take tens of simulated seconds, so their bytes are booked per
second along the walk's actual timeline -- this is what makes
ASAP's background load appear smooth in the Figure 10 reproduction rather
than spiking at delivery start.

ASAP(FLD) floods 64 at a time: which peers a flood reaches and what it
costs depend only on the epoch's live CSR and the source, so a delivery
that finds no flood computed for its source on the current CSR runs one
bit-parallel pass (:func:`repro.sim.kernels.flood_words`) for it and the
next 63 sources the protocol's schedule says are due, and every later
delivery in the epoch reads its own bit.

ASAP(RW) and ASAP(GSA) walks draw *keyed* uniforms (:func:`walk_draws`), a
pure function of the run's walk key, the source, its delivery ordinal and
the ``(walkers, per_walker)`` shape, so an ASAP(RW) walk can be computed
ahead of its event: the forwarder walks the ads due next in one
:func:`repro.sim.kernels.rw_delivery_batch`, each taken at its own event.
ASAP(GSA) steps the carried rows one step at a time.  The per-step loops
over the CSR arrays live in ``tests/oracles/delivery.py``, fed the same
keyed draws; ``tests/test_walk_kernels_differential.py`` asserts each
forwarder reproduces its loop bit-for-bit.
"""

from __future__ import annotations

import abc
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.asap.ads import Ad
from repro.network.overlay import Overlay
from repro.sim import kernels
from repro.sim.metrics import BandwidthLedger
from repro.sim.random import stable_hash32

__all__ = [
    "AdForwarder",
    "DeliveryReport",
    "FloodAdForwarder",
    "GsaAdForwarder",
    "RandomWalkAdForwarder",
    "make_forwarder",
    "walk_draws",
    "walk_key",
]


class DeliveryReport(NamedTuple):
    """Outcome of one ad delivery: ``visited``, the nodes that received the
    ad, ascending, the source excluded -- the order receivers' repair pulls
    are booked in -- and the ``messages`` it took and their ``bytes``."""

    visited: np.ndarray
    messages: int = 0
    bytes: float = 0.0


def _undelivered() -> DeliveryReport:
    """The report of a delivery whose source is offline."""
    return DeliveryReport(np.empty(0, dtype=np.int64))


#: What a forwarder's ``schedule(now, count)`` returns: ``(nodes, times,
#: budgets)``, the live nodes next due to send an ad, soonest first, the
#: time each is due and the message budget its ad will walk with.
Schedule = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _nothing_due(now: float, count: int) -> Schedule:
    none = np.empty(0, dtype=np.int64)
    return none, np.empty(0), none


def walk_key(seed_seq: np.random.SeedSequence) -> int:
    """The 128-bit key of a run's ad walks, derived from ``seed_seq`` (the
    ``algorithm`` stream's) and never drawn from it: its entropy, with its
    spawn key extended by ``stable_hash32("ad-walks")``."""
    seq = np.random.SeedSequence(
        seed_seq.entropy,
        spawn_key=(*seed_seq.spawn_key, stable_hash32("ad-walks")),
    )
    low, high = seq.generate_state(2, np.uint64).tolist()
    return low | high << 64


#: The one bit generator behind :func:`walk_draws` and a state of it with
#: an empty buffer, which every call writes its key and counter into and
#: then sets whole, so nothing carries over between calls (the simulator
#: runs no threads) and no call builds a state dict of its own.
_PHILOX = np.random.Philox(key=0)
_STATE = _PHILOX.state
_COUNTER, _KEY = _STATE["state"]["counter"], _STATE["state"]["key"]
_SHIFT = np.uint64(11)


def walk_draws(
    key: int, source: int, ordinal: int, walkers: int, per_walker: int
) -> np.ndarray:
    """The ``(walkers, per_walker)`` uniforms of ``source``'s walked
    delivery number ``ordinal`` (from 0) under walk ``key``: Philox4x64
    keyed by ``key``, ``(ordinal, source)`` in its counter's high words,
    the first ``walkers * per_walker`` raw outputs row by row as
    ``(raw >> 11) * 2**-53``.  A pure function of its arguments, defined
    on the raw stream NumPy keeps stable, not on a distribution method.
    """
    _KEY[0] = key & 0xFFFFFFFFFFFFFFFF
    _KEY[1] = key >> 64
    _COUNTER[2] = ordinal
    _COUNTER[3] = source
    _PHILOX.state = _STATE
    raw = _PHILOX.random_raw(walkers * per_walker)
    raw >>= _SHIFT
    return (raw * 2.0**-53).reshape(walkers, per_walker)


class AdForwarder(abc.ABC):
    """Carries ads from a source across the live overlay.

    :attr:`_ahead` maps each source to a delivery computed ahead on the
    current CSR (:class:`~repro.sim.kernels.Ahead`); a join or leave
    drops it.
    """

    def __init__(
        self,
        overlay: Overlay,
        ledger: BandwidthLedger,
        key: int,
    ) -> None:
        self.overlay = overlay
        self.ledger = ledger
        # The run's walk key (:func:`walk_key`); walks draw only from it.
        self.key = key
        # The run's repro.obs.Instrumentation (AsapSearch.attach sets it).
        self.obs = None
        # ``schedule(now, count)``: up to ``count`` live nodes next due to
        # send an ad on the protocol's schedule (see :data:`Schedule`).
        # AsapSearch sets it; forwarders read it to pick companions.
        self.schedule: Callable[[float, int], Schedule] = _nothing_due
        self._ahead = kernels.Ahead()

    @abc.abstractmethod
    def deliver(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> DeliveryReport:
        """Disseminate ``ad`` starting at ``now``; returns who received it.

        ``budget`` overrides the forwarder's default message budget (used
        e.g. to give refresh ads a smaller budget than full/patch ads).
        """

    def default_budget(self, ad: Ad) -> int:
        """Total message budget for one delivery of ``ad``."""
        return int(self.topic_budget(len(ad.topics)))

    def topic_budget(self, n_topics):
        """The default budget of an ad with ``n_topics`` topics (an int or
        an array of them)."""
        return np.maximum(n_topics, 1)  # overridden by budgeted forwarders

    def _finish(
        self,
        ad: Ad,
        now: float,
        visited: np.ndarray,
        first_second: int,
        counts: np.ndarray,
        budget: Optional[int] = None,
    ) -> DeliveryReport:
        """The tail of every delivery: charge the ledger ``counts[i]`` hops
        in second ``first_second + i`` (each hop carried the whole ad) in
        one write, build the report, tell the instrumentation.  ``budget``
        is the effective message cap of a walk delivery."""
        n_messages, ad_size = int(counts.sum()), ad.size_bytes()
        if n_messages:
            self.ledger.add(
                ad.category, first_second, counts * float(ad_size), n_messages
            )
        report = DeliveryReport(visited, n_messages, float(n_messages * ad_size))
        if self.obs is not None:
            self.obs.ad_delivered(self.kind, ad, now, report, first_second, budget)
        return report


class FloodAdForwarder(AdForwarder):
    """ASAP(FLD): the ad floods with a TTL, reaching almost everyone.

    Who a flood reaches and what it costs depend only on the epoch's live
    CSR and the source, so floods run 64 to a pass of the bit-parallel
    kernel (:func:`repro.sim.kernels.flood_words`).  A delivery whose
    source has no word on the current CSR floods it together with up to 63
    companions: the next sources due on :attr:`schedule`; a flood is the
    source's, whatever ad it carries.  Each delivery reads only
    its own bit (:func:`~repro.sim.kernels.flood_receivers`); the words
    are dropped when the overlay hands out a new CSR.  Which companions
    share a pass changes how many passes a run makes, never a result.
    """

    kind = "fld"

    def __init__(self, *args, ttl: int = 6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        self.ttl = ttl

    def deliver(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> DeliveryReport:
        source = ad.source
        if not self.overlay.is_live(source):
            return _undelivered()
        csr, flood = self._ahead.take(self.overlay, source)
        if flood is None:
            flood = self._flood(csr, source, now)
        visited, n_messages = kernels.flood_receivers(csr, *flood, source)
        # The whole flood lands in the second it starts.
        return self._finish(ad, now, visited, int(now), np.array([n_messages]))

    def _flood(
        self, csr: kernels.WalkCsr, source: int, now: float
    ) -> Tuple[np.ndarray, int]:
        """One pass: ``source`` on bit 0, then the next sources due that
        have no word yet; the companions' ``(words, bit)`` are kept for
        their own deliveries."""
        flooded = self._ahead
        due = self.schedule(now, kernels.WORD_BITS + len(flooded))[0].tolist()
        sources = [source, *(s for s in due if s != source and s not in flooded)]
        del sources[kernels.WORD_BITS :]
        words = kernels.flood_words(csr, sources, self.ttl)
        flooded.update((s, (words, bit)) for bit, s in enumerate(sources) if bit)
        return words, 0


class _WalkForwarderBase(AdForwarder):
    """Shared machinery for budgeted walk-based forwarders."""

    def __init__(
        self,
        *args,
        walkers: int = 5,
        budget_unit: int = 3000,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if walkers < 1:
            raise ValueError("need at least one walker")
        if budget_unit < 1:
            raise ValueError("budget_unit must be >= 1")
        self.walkers = walkers
        self.budget_unit = budget_unit
        # Walked deliveries per source so far: the next one's ordinal.
        self.sent = [0] * self.overlay.n

    def topic_budget(self, n_topics):
        """Paper: total budget = number of ad topics x budget unit M0."""
        return np.maximum(n_topics, 1) * self.budget_unit

    def _start(self, ad: Ad, budget: Optional[int]) -> Tuple[int, int]:
        """``(per_walker, ordinal)`` of a walked delivery of ``ad``, which
        it counts."""
        total_budget = budget if budget is not None else self.default_budget(ad)
        ordinal = self.sent[ad.source]
        self.sent[ad.source] = ordinal + 1
        return max(1, total_budget // self.walkers), ordinal


class RandomWalkAdForwarder(_WalkForwarderBase):
    """ASAP(RW): walkers carry the ad; every visited node receives it.

    A walk reads only the epoch's :class:`~repro.sim.kernels.WalkCsr` and
    its keyed uniforms, so it can be walked before its event: a delivery
    with no walk computed for it walks itself and the next ads due on
    :attr:`schedule` before the overlay's next planned join or leave
    (which drops the walks not yet taken) or the replay's end, as many as
    fit a chunk (:func:`~repro.sim.kernels.lockstep_fits`), in one
    :func:`~repro.sim.kernels.rw_delivery_batch`.
    A walk computed ahead goes only to the delivery it was walked as --
    same CSR, key, ordinal, ``per_walker`` and ``now`` -- and is kept as
    per-second step counts, charged at the delivering ad's own size.
    Which ads share a batch changes how many batches run, never a result.
    """

    kind = "rw"

    def deliver(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> DeliveryReport:
        source = ad.source
        if not self.overlay.is_live(source):
            return _undelivered()
        per_walker, ordinal = self._start(ad, budget)
        csr, walk = self._ahead.take(self.overlay, source)
        want = (self.key, ordinal, per_walker, now)
        if walk is None or walk[0] != want:
            walk = self._walk(csr, source, want)
        _, visited, _, first_second, counts = walk
        return self._finish(
            ad, now, visited, first_second, counts,
            budget=self.walkers * per_walker,
        )

    def _walk(self, csr: kernels.WalkCsr, source: int, want: tuple) -> tuple:
        """Walk ``source``'s delivery ``want`` in one batch with the ads
        due before the next planned churn or end that have nothing
        computed, as many as fit a chunk; keep theirs in :attr:`_ahead`."""
        key, ordinal, per_walker, now = want
        walkers, n, ahead = self.walkers, csr.n, self._ahead
        total = walkers * per_walker
        # A companion takes a visited row and at least ``walkers`` draws.
        room = (kernels.LOCKSTEP_CHUNK_BYTES - 8 * total - n - 1) // (
            n + 1 + 8 * walkers
        )
        due = self.schedule(now, max(0, room) + len(ahead))
        k = int(np.count_nonzero(due[1] < self.overlay.next_churn(now)))
        batch = [(source, ordinal, per_walker, now)]
        for s, t, b in zip(*(column[:k].tolist() for column in due)):
            if s == source or s in ahead:
                continue
            steps = max(1, b // walkers)
            total += walkers * steps
            if not kernels.lockstep_fits(len(batch) + 1, total, n):
                break
            batch.append((s, self.sent[s], steps, t))
        sources, ordinals, steps, nows = zip(*batch)
        draws = np.concatenate([
            walk_draws(key, s, o, walkers, w).reshape(-1)
            for s, o, w in zip(sources, ordinals, steps)
        ])
        walks = kernels.rw_delivery_batch(csr, sources, steps, walkers, draws, nows)
        for a in range(1, len(sources)):
            ahead[sources[a]] = ((key, ordinals[a], steps[a], nows[a]), *walks[a])
        return (want, *walks[0])


class GsaAdForwarder(_WalkForwarderBase):
    """ASAP(GSA): walkers replicate the ad to each visited node's neighbours.

    ``deliver`` is one plain per-step loop per walker over its draw row and
    the epoch's carried rows (:class:`~repro.sim.kernels.WalkCsr`): a step
    takes edge ``k = int(u * dgf[node])`` of ``nbr[node]`` at latency
    ``nbr_lat[node][k]``, then pushes the ad to the neighbours of the new
    node this delivery has not reached, in row order, at most the
    walker's remaining budget of them.  Walker *w+1* skips what walker *w*
    reached (one bytearray visited table per delivery), so the walkers
    are not independent lanes; and a delivery is small (a refresh walk is
    a dozen steps), so the loop stays per step.

    Draw sizing: a delivery takes at most ``per_walker`` walk steps per
    walker (each step consumes at least one unit of that walker's budget),
    so the ``(walkers, per_walker)`` draw matrix can never be out-run and
    every uniform is consumed at most once.
    """

    kind = "gsa"

    def deliver(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> DeliveryReport:
        if not self.overlay.is_live(ad.source):
            return _undelivered()
        per_walker, ordinal = self._start(ad, budget)
        csr = self.overlay.walk_csr()
        nbr, dgf, nbr_lat = csr.nbr, csr.dgf, csr.nbr_lat
        source = ad.source
        visited = bytearray(csr.n)
        # Per step: the second it lands in and the hops it sent.
        seconds, hops = [], []
        draws = walk_draws(self.key, source, ordinal, self.walkers, per_walker)
        for row in draws.tolist():
            node = source
            elapsed_ms = 0.0
            remaining = per_walker
            for u in row:
                d = dgf[node]
                if not d:
                    break  # stranded on a node with no live neighbours
                k = int(u * d)
                elapsed_ms += nbr_lat[node][k]
                node = nbr[node][k]
                visited[node] = 1
                remaining -= 1
                # One-hop replication from the visited node, skipping nodes
                # this delivery already reached (budget buys distinct
                # coverage).
                n_push = 0
                for p in nbr[node]:
                    if n_push >= remaining:
                        break
                    if visited[p] or p == source:
                        continue
                    visited[p] = 1
                    n_push += 1
                remaining -= n_push
                seconds.append(int(now + elapsed_ms / 1000.0))
                hops.append(1 + n_push)
                if not remaining:
                    break
        visited[source] = 0
        visited_ids = np.nonzero(np.frombuffer(visited, dtype=np.uint8))[0]
        return self._finish(
            ad, now, visited_ids, *kernels.second_counts(seconds, hops),
            budget=self.walkers * per_walker,
        )


def make_forwarder(
    kind: str,
    overlay: Overlay,
    ledger: BandwidthLedger,
    key: int,
    ttl: int = 6,
    walkers: int = 5,
    budget_unit: int = 3000,
) -> AdForwarder:
    """Build a forwarder by the paper's scheme name: fld | rw | gsa."""
    if kind == "fld":
        return FloodAdForwarder(overlay, ledger, key, ttl=ttl)
    if kind == "rw":
        return RandomWalkAdForwarder(
            overlay, ledger, key, walkers=walkers, budget_unit=budget_unit
        )
    if kind == "gsa":
        return GsaAdForwarder(
            overlay, ledger, key, walkers=walkers, budget_unit=budget_unit
        )
    raise ValueError(f"unknown forwarder kind {kind!r}; choose fld, rw or gsa")
