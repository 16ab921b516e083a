"""A small, fast discrete-event simulation kernel.

The experiments in this reproduction are trace-driven: most of the heavy
numerical work (flood reachability, walk sampling) happens inside vectorised
handlers, while this engine supplies the ordered control plane -- trace
events, ad-refresh timers and churn interleaving all flow through a single
priority queue keyed on ``(time, sequence)`` so ties break deterministically
in scheduling order.

Design notes
------------
* Events are plain callables.  There is no coroutine machinery; handlers that
  need to continue later simply schedule a follow-up event.  This keeps the
  kernel small, trivially testable, and fast (no generator overhead).
* Cancellation is lazy: a cancelled :class:`Event` stays in the queue but is
  skipped when popped.  This is the standard O(1)-cancel heap idiom.
* The heap holds ``(time, seq, event)`` tuples, so every sift compares two
  floats (or, on a tie, two ints) in C; ``seq`` is unique, so the event
  itself is never compared.
* The clock is a float in **seconds** (the paper's load series is per-second;
  latencies are milliseconds and converted at the boundary).
* One loop: :meth:`SimulationEngine.run` and :meth:`SimulationEngine.step`
  share a single pop--skip-cancelled--dispatch path (``_dispatch_next``).
  Same-timestamp events fire one at a time in ``seq`` order, so an event
  cancelled by an earlier same-time event is skipped when popped -- not
  counted as processed, no observer hooks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Event", "SimulationEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling into the past, running twice...)."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    tie-breaker so two events at the same timestamp fire in the order they
    were scheduled.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    # Set by the engine so lazy cancellation can keep its live-event count
    # exact without scanning the queue; cleared once the event is popped
    # for dispatch (a cancel after that point must not touch the counter).
    _on_cancel: Optional[Callable[[], None]] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._on_cancel is not None:
                self._on_cancel()


class SimulationEngine:
    """Discrete-event engine with a float clock in seconds."""

    # ``scheduler`` stays only because benchmarks/e2e/traced.py:197 passes it.
    def __init__(self, scheduler: str = "heap") -> None:
        if scheduler != "heap":
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; the engine is a binary heap"
            )
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0
        # Lazily-cancelled events still sitting in the queue.  The live
        # (dispatchable) count is ``queued - cancelled``, so the dispatch
        # loop never touches a counter on the hot path.
        self._cancelled_in_heap = 0
        # One bound-method object reused by every scheduled event.
        self._cancel_hook = self._note_cancel
        # Observer with event_begin(event)/event_end(event); None keeps the
        # dispatch loop on its unobserved fast path (a single branch).
        self._observer: Optional[Any] = None

    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1

    # --------------------------------------------------------------- observer
    @property
    def observer(self) -> Optional[Any]:
        """The installed dispatch observer (None when unobserved)."""
        return self._observer

    def set_observer(self, observer: Optional[Any]) -> None:
        """Install (or, with None, remove) a dispatch observer.

        The observer's ``event_begin(event)`` / ``event_end(event)`` are
        called around every executed event.  An observed run installs its
        :class:`repro.obs.Instrumentation` here; when no observer is
        installed the dispatch loop pays one branch and nothing else.
        """
        if observer is not None and (
            not callable(getattr(observer, "event_begin", None))
            or not callable(getattr(observer, "event_end", None))
        ):
            raise SimulationError(
                "observer must provide event_begin(event) and event_end(event)"
            )
        self._observer = observer

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_live(self) -> int:
        """Live (non-cancelled) queued events, tracked in O(1).

        Lazily-cancelled events stay in the queue until popped; this count
        excludes them, so progress reporting and the profiler see the true
        remaining work rather than the raw queue depth.
        """
        return len(self._heap) - self._cancelled_in_heap

    @property
    def pending_events(self) -> int:
        """Raw queue depth, *including* lazily-cancelled events."""
        return len(self._heap)

    # -------------------------------------------------------------- schedule
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        Raises :class:`SimulationError` if ``time`` precedes the current
        clock -- causality violations are always bugs in the caller.
        """
        if math.isnan(time):
            raise SimulationError("cannot schedule at NaN time")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        seq = next(self._seq)
        event = Event(
            time=time,
            seq=seq,
            callback=callback,
            name=name,
            _on_cancel=self._cancel_hook,
        )
        heapq.heappush(self._heap, (time, seq, event))
        return event

    # -------------------------------------------------------------- dispatch
    def _peek_live(self) -> Optional[Event]:
        """The next live event, dropping lazily-cancelled heads on the way.

        Cancelled heads are dropped *before* the caller checks ``until``.
        Returns None when no live event remains.
        """
        heap = self._heap
        while heap:
            event = heap[0][2]
            if not event.cancelled:
                return event
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return None

    def _dispatch_next(self, until: Optional[float]) -> bool:
        """Pop and execute the next live event unless it lies past ``until``.

        The one dispatch path behind :meth:`run` and :meth:`step`.  Returns
        False when nothing (eligible) remains.
        """
        event = self._peek_live()
        if event is None or (until is not None and event.time > until):
            return False
        heapq.heappop(self._heap)
        event._on_cancel = None  # popped: a late cancel is a no-op
        self._now = event.time
        self._processed += 1
        observer = self._observer
        if observer is None:
            event.callback()
        else:
            observer.event_begin(event)
            event.callback()
            observer.event_end(event)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Execute events in ``(time, seq)`` order.

        Runs until the queue is exhausted, or until the clock would pass
        ``until`` (events at exactly ``until`` are executed).  Returns the
        final clock value.  Re-entrant calls are rejected.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        try:
            while self._dispatch_next(until):
                pass
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain."""
        return self._dispatch_next(None)


def ms(milliseconds: float) -> float:
    """Convert milliseconds to the engine's second-based clock."""
    return milliseconds / 1000.0
