"""The instrumentation seam: the simulator reports actions, sinks record them.

Everything the paper measures is byte and message accounting per traffic
class, so every observer of a run has to agree with the
:class:`~repro.sim.metrics.BandwidthLedger` on what an action cost.  The
protocol therefore tells one object what happened -- with the numbers it
just computed for the ledger -- and that object decides, once, what a trace
record looks like and which peer, link and window telemetry charges.

An :class:`Instrumentation` bundles up to three sinks, each optional:

* a :class:`~repro.obs.trace.Tracer` (exact, one record per action);
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
charge tables hold the same rows in the same order on every run.  Trace
records and their attributes are frozen by the golden run fingerprints
(``tests/golden/run_fingerprints.json``); an action may not add, drop or
reorder one.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

from repro.obs.profile import Profiler
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer

__all__ = ["Instrumentation", "TRACE_RECORDS"]

#: Every ``(category, name)`` record the seam writes, and so everything a
#: trace can hold.  A query span is named after the algorithm that ran it.
#: docs/OBSERVABILITY.md's record table is compared with this set by test.
TRACE_RECORDS = frozenset(
    {
        ("query", "<algorithm>"),
        ("query", "confirm_stats"),
        ("ad", "deliver.fld"),
        ("ad", "deliver.rw"),
        ("ad", "deliver.gsa"),
        ("ad", "ads_request"),
        ("ad", "repair"),
        ("churn", "join"),
        ("churn", "leave"),
        ("churn", "content_add"),
        ("churn", "content_remove"),
    }
)

_CONFIRM_COUNTERS = (
    "attempted",
    "confirmed",
    "failed_dead",
    "failed_bloom_fp",
    "failed_split",
)


class Instrumentation:
    """The one object a run's hosts report to; see the module docstring."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.tracer = tracer
        self.telemetry = telemetry
        self.profiler = profiler
        # Confirmation classes of the ASAP search in flight, kept between
        # ``confirmation`` actions and written out by ``confirm_stats``.
        self._confirm = dict.fromkeys(_CONFIRM_COUNTERS, 0)

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
        """One search request: runs ``algorithm._search_impl`` and reports it.

        The one action that brackets host code, because everything the
        search reports on the way (``ads_request``, ``confirm_stats``) nests
        inside its span.  The span carries the outcome's message and byte
        costs and the exact per-category ledger movement the request caused
        -- the auditor's conservation check sums these deltas, plus the
        top-level ad-lifecycle events, against the ledger's own totals.
        """
        tracer = self.tracer
        if tracer is None:
            outcome = algorithm._search_impl(requester, terms, now)
        else:
            with tracer.span(
                "query", algorithm.name, now,
                requester=int(requester), terms=len(terms),
            ) as span:
                before = algorithm.ledger.category_totals()
                outcome = algorithm._search_impl(requester, terms, now)
                after = algorithm.ledger.category_totals()
                span.annotate(
                    success=outcome.success,
                    messages=outcome.messages,
                    cost_bytes=outcome.cost_bytes,
                    results=outcome.results,
                    local_hit=outcome.local_hit,
                    response_time_ms=(
                        outcome.response_time_ms if outcome.success else None
                    ),
                    ledger_delta={
                        cat.value: moved
                        for cat, total in after.items()
                        if (moved := total - before.get(cat, 0.0)) != 0.0
                    },
                )
        if self.telemetry is not None:
            self.telemetry.record_query(now, int(requester), outcome)
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
        match -- a callable ``source -> "failed_bloom_fp" | "failed_split"``.
        Telling the two apart walks every document the source shares, so
        the callable runs only when a tracer keeps the classes.
        """
        if self.tracer is not None:
            counts = self._confirm
            counts["attempted"] += 1
            counts[outcome if isinstance(outcome, str) else outcome(source)] += 1
        if self.telemetry is not None:
            self.telemetry.record_confirmation(now, requester, int(source), nbytes)

    def confirm_stats(self, now: float) -> None:
        """An ASAP search finished confirming (with zero attempts too).

        Written as the last child of the query span: it ties the span's
        confirmation bytes back to individual attempts and feeds the
        measured Bloom false-positive rate.
        """
        if self.tracer is not None:
            self.tracer.event("query", "confirm_stats", now, **self._confirm)
            self._confirm = dict.fromkeys(_CONFIRM_COUNTERS, 0)

    # ---------------------------------------------------------- ad lifecycle
    def ad_delivered(
        self, kind: str, ad, now: float, report, first_second: int,
        budget: Optional[int],
    ) -> None:
        """The ``kind`` forwarder (``fld`` / ``rw`` / ``gsa``) delivered ``ad``.

        ``first_second`` is the first second the ledger charged it in.
        Telemetry books the delivery where the ledger booked it -- in that
        second, with the report's bytes -- and charges the advertising
        source.  ``budget`` is the delivery's *effective* message cap
        (``walkers * max(1, total_budget // walkers)``, which exceeds a
        nominal budget smaller than the walker count; ``None`` for floods);
        the auditor checks ``messages <= budget``.
        """
        if self.telemetry is not None and report.messages:
            self.telemetry.record_delivery(
                first_second + 0.5, int(ad.source), report.bytes
            )
        if self.tracer is not None:
            self.tracer.event(
                "ad",
                f"deliver.{kind}",
                now,
                source=int(ad.source),
                ad_type=ad.ad_type.value,
                topics=len(ad.topics),
                visited=len(report.visited_arr),
                messages=report.messages,
                bytes=report.bytes,
                budget=budget,
            )

    def ads_exchange(
        self,
        now: float,
        node: int,
        scope: str,
        served: Sequence[Tuple[int, float, object]],
        messages: int,
        cost_bytes: float,
        request_bytes: float,
    ) -> None:
        """``node`` asked its neighbours for ads (``bootstrap`` or ``query``).

        ``served`` holds, in the order they were asked, each neighbour with
        the request + reply bytes of its exchange and the array of sources
        the requester adopted from its reply; the serving neighbour pays
        for the reply it assembled.  The byte split lets the auditor book
        request and reply to their ledger categories.  A capped requester
        can be re-offered a source it evicted within the same request, so
        the record counts *distinct* new sources.
        """
        telemetry = self.telemetry
        if telemetry is not None:
            for neighbor, nbytes, _ in served:
                telemetry.record_ads_request(now, int(neighbor), nbytes)
        if self.tracer is not None:
            adopted = set()
            for _, _, sources in served:
                adopted.update(sources.tolist())
            self.tracer.event(
                "ad",
                "ads_request",
                now,
                node=int(node),
                scope=scope,
                neighbors=len(served),
                new_sources=len(adopted),
                messages=messages,
                cost_bytes=cost_bytes,
                request_bytes=request_bytes,
                reply_bytes=cost_bytes - request_bytes,
            )

    def repair(
        self,
        now: float,
        node: int,
        source: int,
        request_bytes: float,
        reply_bytes: float,
        reply_category,
    ) -> None:
        """``node`` pulled the versions it missed from ``source``.

        ``reply_category`` is the ledger category of the reply (patch or
        full ad), ``None`` when the source shares nothing any more and sent
        none.  The source serves the repair and is charged for it -- for
        the request alone when it had nothing to reply with.
        """
        if self.telemetry is not None:
            self.telemetry.record_repair(
                now, int(source), request_bytes + float(reply_bytes)
            )
        if self.tracer is not None:
            self.tracer.event(
                "ad",
                "repair",
                now,
                node=int(node),
                source=int(source),
                request_bytes=request_bytes,
                reply_bytes=float(reply_bytes),
                reply_category=(
                    None if reply_category is None else reply_category.value
                ),
            )

    # ----------------------------------------------------------------- churn
    def churn(self, now: float, node: int, joined: bool, live: int) -> None:
        """``node`` came online or left; ``live`` peers remain."""
        if self.tracer is not None:
            self.tracer.event(
                "churn", "join" if joined else "leave", now,
                node=int(node), live=live,
            )
        if self.telemetry is not None:
            self.telemetry.record_churn(now, joined)

    def content_changed(
        self, now: float, node: int, doc_id: int, added: bool
    ) -> None:
        """``node`` started or stopped sharing document ``doc_id``."""
        if self.tracer is not None:
            self.tracer.event(
                "churn", "content_add" if added else "content_remove", now,
                node=int(node), doc_id=int(doc_id),
            )
