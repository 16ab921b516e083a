"""Trace event types and the trace container.

A trace is a time-ordered list of four event kinds (Section IV-B, step 4):
queries, content changes (document addition/removal), node joins and node
departures.  Events are plain frozen dataclasses; the simulation runner
dispatches on type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple, Union

__all__ = [
    "ContentChangeEvent",
    "JoinEvent",
    "LeaveEvent",
    "QueryEvent",
    "Trace",
    "TraceEvent",
]


@dataclass(frozen=True)
class QueryEvent:
    """A search request issued by ``node`` for documents matching ``terms``.

    ``target_doc`` records which document the generator sampled the terms
    from -- useful for diagnostics; algorithms never see it.
    """

    time: float
    node: int
    terms: Tuple[str, ...]
    target_doc: int

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a query needs at least one term")


@dataclass(frozen=True)
class ContentChangeEvent:
    """``node`` starts (``added=True``) or stops sharing ``doc_id``."""

    time: float
    node: int
    doc_id: int
    added: bool


@dataclass(frozen=True)
class JoinEvent:
    """A previously offline node comes online."""

    time: float
    node: int


@dataclass(frozen=True)
class LeaveEvent:
    """A live node goes offline."""

    time: float
    node: int


TraceEvent = Union[QueryEvent, ContentChangeEvent, JoinEvent, LeaveEvent]


@dataclass
class Trace:
    """A time-ordered event sequence plus bookkeeping the runner needs."""

    events: List[TraceEvent]
    duration: float

    def __post_init__(self) -> None:
        times = [e.time for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace events must be sorted by time")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def n_queries(self) -> int:
        return sum(1 for e in self.events if isinstance(e, QueryEvent))

    @property
    def n_joins(self) -> int:
        return sum(1 for e in self.events if isinstance(e, JoinEvent))

    @property
    def n_leaves(self) -> int:
        return sum(1 for e in self.events if isinstance(e, LeaveEvent))

    def queries(self) -> List[QueryEvent]:
        return [e for e in self.events if isinstance(e, QueryEvent)]
