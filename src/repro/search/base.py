"""Shared search-algorithm interface and the message-size model.

Every algorithm (baselines and ASAP variants) implements
:class:`SearchAlgorithm`: a ``search`` method returning a
:class:`SearchOutcome` per query, plus churn/content hooks the trace runner
invokes.  Bandwidth flows through the shared :class:`BandwidthLedger`; the
per-search cost and the global load series both derive from it.

The paper reports bandwidth but never tabulates message sizes, so the
``*_BYTES`` constants below are our documented size model (DESIGN.md
section 2) -- every byte the simulator accounts for is computed from these
constants plus the Bloom-filter wire sizes.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.network.overlay import Overlay
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.workload.content import ContentIndex

__all__ = ["SearchAlgorithm", "SearchOutcome"]


#: Bytes per message type (DESIGN.md section 2).  Whole numbers: the ledger
#: books per-second counts times these sizes and sums its array in any
#: order (``BandwidthLedger.add``), which whole sizes keep exact.
QUERY_BYTES = 100  # Gnutella-style header + search terms
QUERY_RESPONSE_BYTES = 80
CONFIRMATION_REQUEST_BYTES = 80
CONFIRMATION_REPLY_BYTES = 80
ADS_REQUEST_BYTES = 60
AD_HEADER_BYTES = 24  # identity + topics + version + type


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """What one search request cost and returned.

    ``response_time_ms`` is meaningful only when ``success`` is true (the
    paper averages response time over successful requests only).
    ``cost_bytes``/``messages`` cover the search process itself: query
    traffic for baselines; confirmation + ads-request traffic for ASAP
    (Figure 6's accounting).
    """

    success: bool
    response_time_ms: float
    messages: int
    cost_bytes: float
    results: int  # distinct nodes confirmed/responding with a match
    local_hit: bool = False  # resolved from the requester's own shared docs

    def __post_init__(self) -> None:
        if self.success and not math.isfinite(self.response_time_ms):
            raise ValueError("successful search needs a finite response time")
        if self.messages < 0 or self.cost_bytes < 0 or self.results < 0:
            raise ValueError("negative search cost")


class SearchAlgorithm(abc.ABC):
    """Base class: shared state, ledger plumbing and default hooks."""

    #: Human-readable name used in result tables (overridden per class).
    name: str = "base"

    #: Ledger categories that count toward this algorithm's system load.
    load_categories: frozenset = frozenset(
        {TrafficCategory.QUERY, TrafficCategory.QUERY_RESPONSE}
    )

    def __init__(
        self,
        overlay: Overlay,
        content: ContentIndex,
        ledger: BandwidthLedger,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.overlay = overlay
        self.content = content
        self.ledger = ledger
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # The run's repro.obs.Instrumentation; None while nobody observes.
        self.obs = None

    # ------------------------------------------------------------ interface
    def search(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        """Execute one search request issued at simulation time ``now``.

        This is a template method: the per-algorithm logic lives in
        :meth:`_search_impl`.  An observed run (see :meth:`attach`) resolves
        the request through its instrumentation, which wraps it in a
        ``query`` span and counts its outcome; unobserved, the wrapper is
        one attribute load and one branch.
        """
        obs = self.obs
        if obs is None:
            return self._search_impl(requester, terms, now)
        return obs.query(self, requester, terms, now)

    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        """Algorithm-specific search logic; concrete classes override this.

        Not ``@abstractmethod`` so that legacy subclasses overriding
        :meth:`search` directly keep working (they bypass tracing).
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _search_impl()"
        )

    def attach(self, obs) -> None:
        """Report this algorithm's actions to ``obs``, a
        :class:`repro.obs.Instrumentation` (subclasses pass it on to their
        components); ``None`` detaches."""
        self.obs = obs

    def warmup(self, engine, start: float, duration: float) -> None:
        """Pre-trace preparation (ASAP's initial ad dissemination).

        Baselines need none; the default is a no-op.
        """

    def plan_queries(self, times, requesters) -> None:
        """When the replay will search and from which nodes; an algorithm
        that computes searches ahead reads it, the default ignores it."""

    def on_join(self, node: int, now: float) -> None:
        """Called after ``node`` came online (overlay already updated)."""

    def on_leave(self, node: int, now: float) -> None:
        """Called after ``node`` went offline (overlay already updated)."""

    def on_content_change(self, node: int, doc, added: bool, now: float) -> None:
        """Called after the content index applied a document add/remove."""

    # -------------------------------------------------------------- helpers
    def _matching_live_nodes(
        self, holders: np.ndarray, exclude: Optional[int] = None
    ) -> np.ndarray:
        """The live ones of ``holders`` (a search's
        ``content.nodes_matching(terms)``), ``exclude`` left out, ascending."""
        live = holders[self.overlay.live_mask[holders]]
        return live[live != exclude] if exclude is not None else live

    @staticmethod
    def _local_hit(requester: int, holders: np.ndarray) -> bool:
        """Does the requester already share a matching document, i.e. is it
        one of ``holders`` (a search's ``content.nodes_matching(terms)``)?"""
        at = int(holders.searchsorted(requester))
        return at < len(holders) and int(holders[at]) == requester

    @staticmethod
    def _local_outcome() -> SearchOutcome:
        """A request satisfied from the requester's own shared content."""
        return SearchOutcome(
            success=True,
            response_time_ms=0.0,
            messages=0,
            cost_bytes=0.0,
            results=1,
            local_hit=True,
        )

    @staticmethod
    def _failure(messages: int, cost_bytes: float) -> SearchOutcome:
        return SearchOutcome(
            success=False,
            response_time_ms=math.inf,
            messages=messages,
            cost_bytes=cost_bytes,
            results=0,
        )
