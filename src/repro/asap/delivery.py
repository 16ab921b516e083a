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
deliveries take tens of simulated seconds, so their bytes are bucketed into
the per-second ledger along the walk's actual timeline -- this is what makes
ASAP's background load appear smooth in the Figure 10 reproduction rather
than spiking at delivery start.

ASAP(FLD) floods 64 at a time: which peers a flood reaches and what it
costs depend only on the epoch's live CSR and the source, so a delivery
that finds no flood computed for its source on the current CSR runs one
bit-parallel pass (:func:`repro.sim.kernels.flood_words`) for it and the
next 63 sources the protocol's schedule says are due, and every later
delivery in the epoch reads its own bit.

The walk-based forwarders run on the shared walk kernels
(:mod:`repro.sim.kernels`).  A single ASAP(RW) delivery steps over the
epoch's carried plain-list rows with vectorised latency/bucket/visited
post-processing; the warm-up's full ads, which ASAP(RW) knows ahead of
time, are stepped together in lockstep
(:meth:`RandomWalkAdForwarder.plan_full_ads`) and handed out one per
event.  ASAP(GSA) steps the same rows one step at a time.  The per-step
loops over the CSR arrays live in ``tests/oracles/delivery.py``; the
differential tests (``tests/test_walk_kernels_differential.py``) assert
each forwarder reproduces its loop bit-for-bit (visited sets, message
counts, per-second ledger buckets, RNG state).
"""

from __future__ import annotations

import abc
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.network.overlay import Overlay
from repro.sim import kernels
from repro.sim.engine import SimulationError
from repro.sim.metrics import BandwidthLedger

__all__ = [
    "AdForwarder",
    "DeliveryReport",
    "FloodAdForwarder",
    "GsaAdForwarder",
    "RandomWalkAdForwarder",
    "make_forwarder",
]


class DeliveryReport:
    """Outcome of one ad delivery.

    ``visited_arr`` holds the nodes that received the ad, ascending, the
    source excluded.  ``visited`` is the same ids as a frozenset, built on
    first read from ``visited_arr``'s list -- the list every delivery
    built its set from, so the set iterates in the same order whenever it
    is built, and that order is the order receivers' repair pulls are
    booked in.  Iterating a report iterates ``visited``.
    """

    __slots__ = ("visited_arr", "messages", "bytes", "_visited")

    def __init__(
        self,
        visited: Optional[frozenset] = None,
        messages: int = 0,
        bytes: float = 0.0,
        visited_arr: Optional[np.ndarray] = None,
    ) -> None:
        if visited_arr is None:
            visited_arr = np.array(sorted(visited or ()), dtype=np.int64)
        self.visited_arr = visited_arr
        self.messages = messages
        self.bytes = bytes
        self._visited = visited

    @property
    def visited(self) -> frozenset:
        if self._visited is None:
            self._visited = frozenset(self.visited_arr.tolist())
        return self._visited

    def __iter__(self) -> Iterator[int]:
        return iter(self.visited)


def _nothing_due(now: float, count: int) -> np.ndarray:
    return np.empty(0, dtype=np.int64)


class AdForwarder(abc.ABC):
    """Carries ads from a source across the live overlay."""

    def __init__(
        self,
        overlay: Overlay,
        ledger: BandwidthLedger,
        rng: np.random.Generator,
    ) -> None:
        self.overlay = overlay
        self.ledger = ledger
        self.rng = rng
        # The run's repro.obs.Instrumentation (AsapSearch.attach sets it).
        self.obs = None
        # ``schedule(now, count)``: up to ``count`` live nodes next due to
        # disseminate on the protocol's schedule, soonest first.
        # AsapSearch sets it; floods read it to pick companions.
        self.schedule: Callable[[float, int], np.ndarray] = _nothing_due

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
        return max(1, len(ad.topics))  # overridden by budgeted forwarders

    def plan_full_ads(
        self,
        events: Iterable[Tuple[float, int, int]],
        make_ad: Callable[[int], Optional[Ad]],
    ) -> None:
        """Announce the warm-up's scheduled full ads.

        ``events`` are the engine's ``(time, seq, source)`` of the events
        that will each deliver ``make_ad(source)`` with the default budget.
        A forwarder whose deliveries do not depend on each other may compute
        them together (see :class:`RandomWalkAdForwarder`); the default
        ignores the announcement.
        """

    def _finish(
        self,
        ad: Ad,
        now: float,
        visited_arr: np.ndarray,
        n_messages: int,
        ad_size: float,
        buckets: Dict[int, float],
        budget: Optional[int] = None,
    ) -> DeliveryReport:
        """The tail of every delivery: charge the ledger the per-second
        ``buckets`` (each of the ``n_messages`` hops carried the whole
        ad), build the report, tell the instrumentation.  ``budget`` is the
        effective message cap of a walk delivery."""
        if n_messages and not buckets:
            raise AssertionError("messages without bytes")
        for second, nbytes in buckets.items():
            self.ledger.record(second + 0.5, ad.category, nbytes, messages=0)
        if buckets:
            # Message count recorded once; bytes live in the buckets above.
            self.ledger.record(
                min(buckets) + 0.5, ad.category, 0.0, messages=n_messages
            )
        report = DeliveryReport(
            messages=n_messages,
            bytes=float(n_messages * ad_size),
            visited_arr=visited_arr,
        )
        if self.obs is not None:
            self.obs.ad_delivered(self.kind, ad, now, report, buckets, budget)
        return report


class FloodAdForwarder(AdForwarder):
    """ASAP(FLD): the ad floods with a TTL, reaching almost everyone.

    Who a flood reaches and what it costs depend only on the epoch's live
    CSR and the source, so floods run 64 to a pass of the bit-parallel
    kernel (:func:`repro.sim.kernels.flood_words`).  A delivery whose
    source has no word on the current CSR floods it together with up to 63
    companions: the next sources due on :attr:`schedule`, most of which
    will flood before the next join or leave.  Each delivery reads only
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
        self._csr: Optional[kernels.WalkCsr] = None
        # Floods computed on ``_csr`` and not yet delivered: source ->
        # (words of its pass, its bit).
        self._flooded: Dict[int, Tuple[np.ndarray, int]] = {}

    def deliver(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> DeliveryReport:
        source = ad.source
        if not self.overlay.is_live(source):
            return DeliveryReport(visited=frozenset(), messages=0, bytes=0.0)
        csr = self.overlay.walk_csr()
        if csr is not self._csr:
            self._csr, self._flooded = csr, {}
        flood = self._flooded.pop(source, None)
        if flood is None:
            flood = self._flood(csr, source, now)
        visited_arr, n_messages = kernels.flood_receivers(csr, *flood, source)
        ad_size = ad.size_bytes()
        # The whole flood lands in the second it starts.
        buckets = {int(now): float(n_messages * ad_size)} if n_messages else {}
        return self._finish(ad, now, visited_arr, n_messages, ad_size, buckets)

    def _flood(
        self, csr: kernels.WalkCsr, source: int, now: float
    ) -> Tuple[np.ndarray, int]:
        """One pass: ``source`` on bit 0, then the next sources due that
        have no word yet; the companions' words are kept for their own
        deliveries."""
        flooded = self._flooded
        due = self.schedule(now, kernels.WORD_BITS + len(flooded)).tolist()
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

    def default_budget(self, ad: Ad) -> int:
        """Paper: total budget = number of ad topics x budget unit M0."""
        return max(1, len(ad.topics)) * self.budget_unit


@dataclass(slots=True)
class _PlannedWalk:
    """One ad of a stepped chunk, waiting for its event."""

    source: int
    now: float
    per_walker: int
    ad_size: float
    walk: Tuple[np.ndarray, int, Dict[int, float]]  # rw_delivery's result


class RandomWalkAdForwarder(_WalkForwarderBase):
    """ASAP(RW): walkers carry the ad; every visited node receives it.

    A walk reads the epoch's :class:`~repro.sim.kernels.WalkCsr` and its
    uniforms, never cache state, so deliveries that are *known ahead of
    time* need not be walked one by one: :meth:`plan_full_ads` registers
    the warm-up's full-ad events, and the first of them to reach
    :meth:`deliver` draws and steps a whole chunk of the ads after it with
    :func:`repro.sim.kernels.rw_delivery_batch`.  Each ad's ledger
    record, trace event and report still happen at its own event, inside
    its own :meth:`deliver`.  Every other delivery (refresh, patch, join)
    takes the per-event kernel: it interleaves with queries and ads
    requests that read the merged state, so there is nothing to step it
    with.
    """

    kind = "rw"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Registered full-ad events not yet stepped, last to fire first.
        self._plan: List[Tuple[float, int, int]] = []
        self._make_ad: Optional[Callable[[int], Optional[Ad]]] = None
        # The stepped chunk: walks in event order, the CSR they ran on and
        # the RNG state the chunk's draw left behind.
        self._stepped: Deque[_PlannedWalk] = deque()
        self._stepped_csr: Optional[kernels.WalkCsr] = None
        self._stepped_rng: Optional[dict] = None
        self._draws = np.empty(0)

    def plan_full_ads(
        self,
        events: Iterable[Tuple[float, int, int]],
        make_ad: Callable[[int], Optional[Ad]],
    ) -> None:
        self._plan = sorted(events, reverse=True)
        self._make_ad = make_ad

    def deliver(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> DeliveryReport:
        if not self.overlay.is_live(ad.source):
            return DeliveryReport(visited=frozenset(), messages=0, bytes=0.0)
        total_budget = budget if budget is not None else self.default_budget(ad)
        per_walker = max(1, total_budget // self.walkers)
        ad_size = ad.size_bytes()
        csr = self.overlay.walk_csr()
        plan = self._plan
        while plan and plan[-1][0] < now:
            plan.pop()  # its event fired without a delivery (source gone)
        if (
            not self._stepped
            and plan
            and plan[-1][0] == now
            and plan[-1][2] == ad.source
            and ad.ad_type is AdType.FULL
            and budget is None
        ):
            self._step_chunk(csr)
        if self._stepped:
            visited_arr, n_messages, buckets = self._take_stepped(
                csr, ad, now, per_walker, ad_size
            )
        else:
            draws = self.rng.random((self.walkers, per_walker))
            visited_arr, n_messages, buckets = kernels.rw_delivery(
                csr, ad.source, draws, now, ad_size
            )
        return self._finish(
            ad, now, visited_arr, n_messages, ad_size, buckets,
            budget=self.walkers * per_walker,
        )

    def _step_chunk(self, csr: kernels.WalkCsr) -> None:
        """Draw and step the next chunk of planned ads, in event order.

        The chunk's uniforms are one flat ``rng.random`` -- the
        ``(walkers, per_walker)`` blocks the ads' own deliveries would have
        drawn one after the other, provided nothing else draws from the
        algorithm stream before the chunk's last event, which
        :meth:`_take_stepped` checks.
        """
        plan = self._plan
        sources: List[int] = []
        times: List[float] = []
        per_walkers: List[int] = []
        ad_sizes: List[float] = []
        total = 0
        while plan:
            when, _, source = plan[-1]
            ad = self._make_ad(source) if self.overlay.is_live(source) else None
            if ad is not None:  # else its own delivery would draw nothing
                per_walker = max(1, self.default_budget(ad) // self.walkers)
                grown = total + self.walkers * per_walker
                if sources and not kernels.lockstep_fits(
                    len(sources) + 1, grown, csr.n
                ):
                    break
                total = grown
                sources.append(source)
                times.append(when)
                per_walkers.append(per_walker)
                ad_sizes.append(ad.size_bytes())
            plan.pop()
        if len(self._draws) < total:
            self._draws = np.empty(total)
        draws = self._draws[:total]
        self.rng.random(out=draws)
        walks = kernels.rw_delivery_batch(
            csr, sources, per_walkers, self.walkers, draws, times, ad_sizes
        )
        self._stepped.extend(
            map(_PlannedWalk, sources, times, per_walkers, ad_sizes, walks)
        )
        self._stepped_csr = csr
        self._stepped_rng = self.rng.bit_generator.state
        if not plan:
            self._draws = np.empty(0)  # the window is over: release the buffer

    def _take_stepped(
        self,
        csr: kernels.WalkCsr,
        ad: Ad,
        now: float,
        per_walker: int,
        ad_size: float,
    ) -> Tuple[np.ndarray, int, Dict[int, float]]:
        """The stepped walk of this delivery, if it still is this delivery's.

        While a chunk is outstanding its uniforms are already drawn, so the
        only delivery that may happen is the chunk's next ad, on the
        overlay and content the chunk was stepped on, with nothing drawn
        from the algorithm stream since.
        """
        planned = self._stepped.popleft()
        if (planned.source, planned.now) != (ad.source, now):
            cause = (
                "another delivery came first (expected the full ad of "
                f"{planned.source} at t={planned.now})"
            )
        elif csr is not self._stepped_csr:
            cause = "the overlay changed (join/leave)"
        elif (planned.per_walker, planned.ad_size) != (per_walker, ad_size):
            cause = "the ad's topics, size or budget changed"
        elif self.rng.bit_generator.state != self._stepped_rng:
            cause = "the algorithm RNG stream was drawn from"
        else:
            return planned.walk
        raise SimulationError(
            f"delivering source {ad.source} at t={now}: the warm-up full ads "
            f"were walked ahead as one chunk, and before its last event {cause}."
            "  The chunk's uniforms are already drawn, so the run cannot go on "
            "as the per-event schedule would; keep the warm-up window free of "
            "churn, content change and other draws from the algorithm stream."
        )


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
            return DeliveryReport(visited=frozenset(), messages=0, bytes=0.0)
        total_budget = budget if budget is not None else self.default_budget(ad)
        per_walker = max(1, total_budget // self.walkers)
        ad_size = ad.size_bytes()
        csr = self.overlay.walk_csr()
        nbr, dgf, nbr_lat = csr.nbr, csr.dgf, csr.nbr_lat
        source = ad.source
        visited = bytearray(csr.n)
        buckets: Dict[int, float] = defaultdict(float)
        n_messages = 0
        draws = self.rng.random((self.walkers, per_walker))
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
                n_messages += 1
                remaining -= 1
                second = int(now + elapsed_ms / 1000.0)
                buckets[second] += ad_size
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
                if n_push > 0:
                    n_messages += n_push
                    remaining -= n_push
                    buckets[second] += n_push * ad_size
                if not remaining:
                    break
        visited[source] = 0
        visited_ids = np.nonzero(np.frombuffer(visited, dtype=np.uint8))[0]
        return self._finish(
            ad, now, visited_ids, n_messages, ad_size, buckets,
            budget=self.walkers * per_walker,
        )


def make_forwarder(
    kind: str,
    overlay: Overlay,
    ledger: BandwidthLedger,
    rng: np.random.Generator,
    ttl: int = 6,
    walkers: int = 5,
    budget_unit: int = 3000,
) -> AdForwarder:
    """Build a forwarder by the paper's scheme name: fld | rw | gsa."""
    if kind == "fld":
        return FloodAdForwarder(overlay, ledger, rng, ttl=ttl)
    if kind == "rw":
        return RandomWalkAdForwarder(
            overlay, ledger, rng, walkers=walkers, budget_unit=budget_unit
        )
    if kind == "gsa":
        return GsaAdForwarder(
            overlay, ledger, rng, walkers=walkers, budget_unit=budget_unit
        )
    raise ValueError(f"unknown forwarder kind {kind!r}; choose fld, rw or gsa")
