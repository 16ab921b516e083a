"""Structured event tracing for the simulation stack.

A :class:`Tracer` builds typed trace records -- point **events** and
nested **spans** -- and hands each to its own sinks; on disk a trace is
JSONL, one record per line.  The tracer is itself a sink of the seam: the
simulator never calls it directly but reports its actions
(query, ad delivery, ads exchange, repair, churn) to the run's
:class:`~repro.obs.instrument.Instrumentation`, which writes the records
listed in :data:`~repro.obs.instrument.TRACE_RECORDS`.  An untraced run
holds no tracer at all, so there is no disabled mode to pay for.  The
design goals:

1. **Deterministic structure.**  Record ids are a simple counter and span
   nesting is an explicit ``parent``/``depth`` chain, so under the engine's
   deterministic ``(time, seq)`` event ordering two runs of the same seed
   produce structurally identical traces (wall-clock durations differ, the
   tree does not).
2. **Streamed, never kept.**  Each record goes to the tracer's sinks the
   moment it completes -- a JSONL file (:func:`jsonl_writer`), the
   auditor's fold (:class:`~repro.obs.audit.TraceFold`) -- and nowhere
   else, so a traced run's memory does not grow with its trace.

Record schema (one JSON object per line)::

    {"schema": 1, "kind": "event"|"span", "cat": str, "name": str,
     "t": float, "id": int, "parent": int|null, "depth": int,
     "dur_s": float|null,   # wall-clock duration, spans only
     "attrs": {...}}        # site-specific annotations

``t`` is simulation time in seconds; ``dur_s`` is host wall-clock time
spent inside the span (profiling signal, not simulated latency).

``schema`` versions the record format so downstream consumers
(:mod:`repro.obs.audit`, ``report analyze``) can evolve it safely:
readers ignore unknown keys, and records without a ``schema`` key parse
as version 0 (the PR 1 format, which differs from v1 only by the absence
of the field).
"""

from __future__ import annotations

import gzip
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Union,
)

__all__ = [
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceRecord",
    "Tracer",
    "jsonl_writer",
    "open_text_maybe_gzip",
    "read_trace",
    "read_trace_lines",
]

#: Current trace record format version (see module docstring).
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace record (a point event or a completed span)."""

    kind: str  # "event" | "span"
    category: str  # engine | ad | query | churn | ...
    name: str
    t: float  # simulation time (seconds) at record start
    id: int
    parent: Optional[int]  # enclosing span id, None at top level
    depth: int  # nesting depth (0 = top level)
    dur_s: Optional[float] = None  # wall-clock duration (spans only)
    attrs: Dict[str, Any] = field(default_factory=dict)
    schema: int = TRACE_SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": self.schema,
                "kind": self.kind,
                "cat": self.category,
                "name": self.name,
                "t": self.t,
                "id": self.id,
                "parent": self.parent,
                "depth": self.depth,
                "dur_s": self.dur_s,
                "attrs": self.attrs,
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(line: str) -> "TraceRecord":
        # Unknown keys are ignored on purpose (forward compatibility);
        # a missing "schema" key marks the pre-versioning v0 format.
        d = json.loads(line)
        return TraceRecord(
            kind=d["kind"],
            category=d["cat"],
            name=d["name"],
            t=d["t"],
            id=d["id"],
            parent=d["parent"],
            depth=d["depth"],
            dur_s=d.get("dur_s"),
            attrs=d.get("attrs", {}),
            schema=d.get("schema", 0),
        )


class Span:
    """An open span; closes (and emits its record) on context-manager exit.

    ``annotate(**attrs)`` attaches attributes any time before exit; the
    emitted record carries the union of construction-time and annotated
    attributes.
    """

    __slots__ = ("_tracer", "category", "name", "t", "id", "parent", "depth", "attrs", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        category: str,
        name: str,
        t: float,
        id: int,
        parent: Optional[int],
        depth: int,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.category = category
        self.name = name
        self.t = t
        self.id = id
        self.parent = parent
        self.depth = depth
        self.attrs = attrs
        self._t0 = tracer._clock()

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close_span(self, exc_type)


class Tracer:
    """Builds trace records and hands each, as it completes, to every sink.

    Parameters
    ----------
    sinks:
        Callables fed each record in emission order: :func:`jsonl_writer`
        for a trace file, the auditor's
        :meth:`~repro.obs.audit.TraceFold.feed`, a list's ``append``.  The
        tracer keeps no record itself; an audited ``run_experiment``
        appends its fold to ``self.sinks``.
    clock:
        Wall-clock source for span durations (injectable for deterministic
        tests); defaults to :func:`time.perf_counter`.
    """

    def __init__(
        self,
        *sinks: Callable[[TraceRecord], Any],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.sinks: List[Callable[[TraceRecord], Any]] = list(sinks)
        self._clock = clock
        self._next_id = 1
        self._stack: List[Span] = []  # open spans, innermost last

    # -------------------------------------------------------------- recording
    def event(self, category: str, name: str, t: float, **attrs: Any) -> TraceRecord:
        """Record a point event at simulation time ``t``."""
        parent = self._stack[-1].id if self._stack else None
        record = TraceRecord(
            kind="event",
            category=category,
            name=name,
            t=t,
            id=self._take_id(),
            parent=parent,
            depth=len(self._stack),
            attrs=attrs,
        )
        self._emit(record)
        return record

    def span(self, category: str, name: str, t: float, **attrs: Any) -> Span:
        """Open a span at simulation time ``t``; use as a context manager."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            self,
            category=category,
            name=name,
            t=t,
            id=self._take_id(),
            parent=parent,
            depth=len(self._stack),
            attrs=attrs,
        )
        self._stack.append(span)
        return span

    def _close_span(self, span: Span, exc_type) -> None:
        if not self._stack or self._stack[-1] is not span:
            # Out-of-order close (a bug at the instrumentation site): pop
            # down to the span if present, so the tracer stays usable.
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
        if self._stack:
            self._stack.pop()
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        record = TraceRecord(
            kind="span",
            category=span.category,
            name=span.name,
            t=span.t,
            id=span.id,
            parent=span.parent,
            depth=span.depth,
            dur_s=self._clock() - span._t0,
            attrs=span.attrs,
        )
        self._emit(record)

    # --------------------------------------------------------------- plumbing
    def _take_id(self) -> int:
        i = self._next_id
        self._next_id = i + 1
        return i

    def _emit(self, record: TraceRecord) -> None:
        for sink in self.sinks:
            sink(record)


def jsonl_writer(fh: TextIO) -> Callable[[TraceRecord], Any]:
    """A sink writing each record to the text file ``fh`` as one JSONL line."""
    return lambda record: fh.write(record.to_json() + "\n")


def read_trace_lines(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """Parse JSONL lines into trace records, lazily (blank lines skipped)."""
    return (TraceRecord.from_json(ln) for ln in lines if ln.strip())


def open_text_maybe_gzip(path: Union[str, Path], mode: str = "r") -> TextIO:
    """Open ``path`` as text, through gzip on a ``.gz`` suffix.

    The single chokepoint for every trace reader and writer, so ``.jsonl``
    and ``.jsonl.gz`` are interchangeable everywhere.  Written gzip carries
    ``mtime=0`` and no file name in its header, so the same records give
    the same bytes on every run.
    """
    path = Path(path)
    if path.suffix != ".gz":
        return io.open(path, mode)
    if "r" in mode:
        return gzip.open(path, mode + "t")
    raw = open(path, mode + "b")
    gz = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
    gz.myfileobj = raw  # closed with the GzipFile, as a file it opened itself
    return io.TextIOWrapper(gz)


def read_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Yield the records of a JSONL trace file (``.jsonl`` or ``.jsonl.gz``)
    one at a time; the file stays open until the last one is read."""
    with open_text_maybe_gzip(path) as fh:
        yield from read_trace_lines(fh)
