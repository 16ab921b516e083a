"""The instrumentation seam: the simulator reports actions, sinks record them.

Everything the paper measures is byte and message accounting per traffic
class, so every observer of a run has to agree with the
:class:`~repro.sim.metrics.BandwidthLedger` on what an action cost.  The
protocol therefore tells one object what happened -- with the numbers it
just computed for the ledger -- and that object decides, once, what row an
action is and which peer, link and window telemetry charges.

An :class:`Instrumentation` bundles up to three sinks, each optional:

* an :class:`~repro.obs.actions.ActionLog` (exact, one table row per
  action; the audit, the fingerprint and ``--trace`` read it);
* a :class:`~repro.obs.telemetry.Telemetry` accumulator (a table of charges);
* a :class:`~repro.obs.profile.Profiler` (host time per engine event).

Its methods are the simulator's **actions**.  Every host -- a
:class:`~repro.search.base.SearchAlgorithm`, its
:class:`~repro.asap.delivery.AdForwarder`, the runner's trace handler --
carries one ``obs`` attribute, ``None`` unless a run is observed, and a
site reads ``if obs is not None: obs.<action>(...)``; the engine takes the
same object as its dispatch observer.  Unobserved, a site costs one
attribute load and one branch, and nothing in this package runs.

Within an action telemetry is fed in a fixed order (requester, then each
responder and its link; neighbours in the order they were asked), so its
charge tables hold the same rows in the same order on every run.  The rows
an action appends, rendered, are frozen by the golden run fingerprints
(``tests/golden/run_fingerprints.json``); an action may not add, drop or
reorder one.
"""

from __future__ import annotations

import math
import operator
import time
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.actions import (
    CATEGORIES, CHURN, CONFIRM_COUNTS, CONTENT, DELIVERY, DTYPES, EXCHANGE,
    FORWARDERS, QUERY, REPAIR, SCOPES, ActionLog,
)
from repro.asap.ads import AdType
from repro.obs.profile import Profiler
from repro.obs.telemetry import Telemetry

__all__ = ["Instrumentation"]

_NO_CONFIRM = (0, (0,) * len(CONFIRM_COUNTS))
_AD_TYPES = tuple(AdType)  # the order of actions.AD_TYPES


class Instrumentation:
    """The one object a run's hosts report to; see the module docstring."""

    def __init__(
        self,
        log: Optional[ActionLog] = None,
        telemetry: Optional[Telemetry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.log = log
        self.telemetry = telemetry
        self.profiler = profiler
        # The id of the query span being recorded (0 outside one): the
        # parent of every action it causes.
        self._open = 0
        # Confirmation classes of the ASAP search in flight, kept between
        # ``confirmation`` actions; ``confirm_stats`` closes them into
        # ``(record id, counts)`` for the query row.
        self._confirm = dict.fromkeys(CONFIRM_COUNTS, 0)
        self._confirmed = _NO_CONFIRM

    # ------------------------------------------------------ engine dispatch
    def event_begin(self, event) -> None:
        if self.profiler is not None:
            self.profiler.event_begin(event)

    def event_end(self, event) -> None:
        if self.profiler is not None:
            self.profiler.event_end(event)
        if self.telemetry is not None:
            self.telemetry.record_engine_event(event.time)

    # ---------------------------------------------------------------- search
    def query(self, algorithm, requester: int, terms: Sequence[str], now: float):
        """One search request: runs ``algorithm._search_impl`` and records it.

        The one action that brackets host code, because everything the
        search reports on the way (``ads_exchange``, ``repairs``,
        ``confirm_stats``) happens inside its span.  The row carries the
        outcome's message and byte costs and the exact per-category ledger
        movement the request caused -- the audit's conservation check sums
        these deltas, plus the top-level ad actions, against the ledger's
        own totals.
        """
        log = self.log
        if log is None:
            return algorithm._search_impl(requester, terms, now)
        span = self._open = log.take_id()
        ledger = algorithm.ledger
        before = ledger.byte_totals()
        t0 = time.perf_counter()
        outcome = algorithm._search_impl(requester, terms, now)
        dur_s = time.perf_counter() - t0
        delta = tuple(map(operator.sub, ledger.byte_totals(), before))
        confirm_id, counts = self._confirmed
        self._open, self._confirmed = 0, _NO_CONFIRM
        cost = outcome.cost_bytes
        log.algorithm = algorithm.name
        log.add(QUERY, (
            now, int(requester), len(terms), outcome.success, outcome.local_hit,
            outcome.messages, cost, isinstance(cost, int), outcome.results,
            outcome.response_time_ms if outcome.success else math.nan,
            delta, confirm_id, counts, dur_s,
        ), span)
        return outcome

    def query_traffic(
        self,
        now: float,
        requester: int,
        query_bytes: float,
        replies: Iterable[Tuple[int, float]] = (),
        direct: bool = False,
    ) -> None:
        """What a baseline search put on the wire.

        The requester is charged the query traffic it set off; each
        ``(responder, bytes)`` of ``replies`` pays for its response, and
        for the link to the requester when the reply travels ``direct``
        (the walks) rather than back along the query path (the floods).
        """
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.record_peer_bytes(now, requester, query_bytes)
        for responder, nbytes in replies:
            telemetry.record_peer_bytes(now, responder, nbytes)
            if direct:
                telemetry.record_link(now, responder, requester, nbytes)

    def confirmation(
        self,
        now: float,
        requester: int,
        source: int,
        nbytes: float,
        outcome: Union[str, Callable[[int], str]],
    ) -> None:
        """One content confirmation ``requester -> source`` of ``nbytes``.

        ``outcome`` is the class the attempt ends in: ``"confirmed"``,
        ``"failed_dead"``, or -- for a live source whose content did not
        match -- a callable ``source -> "failed_bloom_fp" | "failed_split"``,
        run only when a log keeps the classes.
        """
        if self.log is not None:
            counts = self._confirm
            counts["attempted"] += 1
            counts[outcome if isinstance(outcome, str) else outcome(source)] += 1
        if self.telemetry is not None:
            self.telemetry.record_confirmation(now, requester, int(source), nbytes)

    def confirm_stats(self, now: float) -> None:
        """An ASAP search finished confirming (with zero attempts too).

        Rendered as the last child of the query span: it ties the span's
        confirmation bytes back to individual attempts and feeds the
        measured Bloom false-positive rate.
        """
        if self.log is not None:
            self._confirmed = (self.log.take_id(), tuple(self._confirm.values()))
            self._confirm = dict.fromkeys(CONFIRM_COUNTS, 0)

    # ---------------------------------------------------------- ad lifecycle
    def ad_delivered(
        self, kind: str, ad, now: float, report, first_second: int,
        budget: Optional[int],
    ) -> None:
        """The ``kind`` forwarder (``fld`` / ``rw`` / ``gsa``) delivered ``ad``.

        Telemetry books it where the ledger did -- in ``first_second``, with
        the report's bytes -- and charges the advertising source.
        ``budget`` is the *effective* message cap (``walkers * max(1,
        total_budget // walkers)``; ``None`` for floods) the audit checks.
        """
        if self.telemetry is not None and report.messages:
            self.telemetry.record_delivery(first_second + 0.5, int(ad.source), report.bytes)
        if self.log is not None:
            self.log.add(DELIVERY, (
                self._open, now, FORWARDERS.index(kind), int(ad.source),
                _AD_TYPES.index(ad.ad_type), len(ad.topics),
                len(report.visited), report.messages, report.bytes,
                -1 if budget is None else budget,
            ))

    def ads_exchange(
        self, now: float, node: int, scope: str,
        served: Sequence[Tuple[int, float, object]], messages: int,
        cost_bytes: float, request_bytes: float,
    ) -> None:
        """``node`` asked its neighbours for ads (``bootstrap`` or ``query``).

        ``served`` holds, in the order they were asked, each neighbour with
        the request + reply bytes of its exchange and the array of sources
        the requester adopted from its reply; the serving neighbour pays
        for the reply it assembled.  The byte split lets the audit book
        request and reply to their ledger categories.  All the replies are
        adopted in one pass (``AdsState.exchange``), through which a capped
        requester's cache is a FIFO: each reply appends the sources it
        carries that the FIFO lacks, then the head drops down to the
        capacity.  A later neighbour can therefore re-offer a source an
        earlier reply evicted, so the row counts *distinct* new sources.
        """
        telemetry = self.telemetry
        if telemetry is not None:
            for neighbor, nbytes, _ in served:
                telemetry.record_ads_request(now, int(neighbor), nbytes)
        if self.log is not None:
            adopted = np.sort(np.concatenate([sources for _, _, sources in served] or [[]]))
            distinct = len(adopted) - int(np.count_nonzero(adopted[1:] == adopted[:-1]))
            self.log.add(EXCHANGE, (
                self._open, now, int(node), SCOPES.index(scope), len(served),
                distinct, messages, cost_bytes, request_bytes,
            ))

    def repairs(
        self, now: float, nodes: np.ndarray, source: int, request_bytes: float,
        replies: np.ndarray, categories: Sequence,
    ) -> None:
        """Each of ``nodes`` pulled the versions it missed from ``source``:
        ``replies[i]`` bytes in ledger category ``categories[i]`` (patch or
        full ad; ``None`` when the source shares nothing any more and sent
        none).  The source serves each repair and is charged for it."""
        source = int(source)
        telemetry = self.telemetry
        if telemetry is not None:
            for nbytes in np.asarray(replies, dtype=float).tolist():
                telemetry.record_repair(now, source, request_bytes + nbytes)
        if self.log is not None:
            rows = np.empty(len(nodes), dtype=DTYPES[REPAIR])
            rows["parent"], rows["t"], rows["node"] = self._open, now, nodes
            rows["source"], rows["request_bytes"], rows["reply_bytes"] = (
                source, request_bytes, replies,
            )
            rows["reply_category"] = [
                -1 if category is None else CATEGORIES.index(category)
                for category in categories
            ]
            self.log.add_rows(REPAIR, rows)

    # ----------------------------------------------------------------- churn
    def churn(self, now: float, node: int, joined: bool, live: int) -> None:
        """``node`` came online or left; ``live`` peers remain."""
        if self.log is not None:
            self.log.add(CHURN, (now, int(node), joined, live))
        if self.telemetry is not None:
            self.telemetry.record_churn(now, joined)

    def content_changed(
        self, now: float, node: int, doc_id: int, added: bool
    ) -> None:
        """``node`` started or stopped sharing document ``doc_id``."""
        if self.log is not None:
            self.log.add(CONTENT, (now, int(node), int(doc_id), added))
