"""Structured event tracing for the simulation stack.

A :class:`Tracer` collects typed trace records -- point **events** and
nested **spans** -- and serialises them as JSONL, one record per line.  It
is a sink: the simulator never calls it directly but reports its actions
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
2. **Streamable.**  Records can be mirrored to a file object as they are
   produced (``stream=...``), so multi-minute runs need not hold the trace
   in memory (``keep=False`` drops the in-memory copy).

Record schema (one JSON object per line)::

    {"schema": 1, "kind": "event"|"span", "cat": str, "name": str,
     "t": float, "id": int, "parent": int|null, "depth": int,
     "dur_s": float|null,   # wall-clock duration, spans only
     "attrs": {...}}        # site-specific annotations

``t`` is simulation time in seconds; ``dur_s`` is host wall-clock time
spent inside the span (profiling signal, not simulated latency).

``schema`` versions the record format so downstream consumers
(:mod:`repro.obs.analyze`, :mod:`repro.obs.audit`) can evolve it safely:
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
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Union

__all__ = [
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceRecord",
    "Tracer",
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
    """Collects trace records; see the module docstring for the schema.

    Parameters
    ----------
    stream:
        Optional text file object; every record is written to it as one
        JSONL line the moment it completes.
    keep:
        Keep records in ``self.records`` (default).  Disable for long runs
        that only need the stream.
    clock:
        Wall-clock source for span durations (injectable for deterministic
        tests); defaults to :func:`time.perf_counter`.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        keep: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.records: List[TraceRecord] = []
        self._stream = stream
        self._keep = keep
        self._clock = clock
        self._next_id = 1
        self._stack: List[Span] = []  # open spans, innermost last
        self._counts: Dict[str, int] = {}  # per-category, tracked even when keep=False

    @property
    def keep(self) -> bool:
        """Whether records are retained in ``self.records``."""
        return self._keep

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
        self._counts[record.category] = self._counts.get(record.category, 0) + 1
        if self._keep:
            self.records.append(record)
        if self._stream is not None:
            self._stream.write(record.to_json() + "\n")

    # ----------------------------------------------------------------- output
    def _require_keep(self, what: str) -> None:
        if not self._keep:
            raise ValueError(
                f"{what} needs in-memory records, but this Tracer was built "
                "with keep=False (stream-only); read the streamed JSONL "
                "instead, or construct the Tracer with keep=True."
            )

    def to_jsonl(self) -> str:
        """The kept records as a JSONL string (requires ``keep=True``)."""
        self._require_keep("to_jsonl()")
        return "".join(r.to_json() + "\n" for r in self.records)

    def dump(self, path: Union[str, Path]) -> None:
        """Write the kept records to ``path`` as JSONL (requires ``keep=True``).

        A ``.gz`` suffix selects transparent gzip compression (large-cell
        traces compress ~20x; every reader in :mod:`repro.obs` accepts
        either form).  ``mtime=0`` and writing through ``fileobj`` (which
        keeps the filename out of the gzip header) make compressed output
        byte-identical across runs of the same seed.
        """
        self._require_keep("dump()")
        path = Path(path)
        if path.suffix == ".gz":
            with open(path, "wb") as raw:
                with gzip.GzipFile(
                    filename="", fileobj=raw, mode="wb", mtime=0
                ) as fh:
                    fh.write(self.to_jsonl().encode())
        else:
            path.write_text(self.to_jsonl())

    def counts_by_category(self) -> Dict[str, int]:
        """Record count per category; tracked even when ``keep=False``."""
        return dict(self._counts)


def read_trace_lines(lines: Iterable[str]) -> List[TraceRecord]:
    """Parse JSONL lines into trace records (blank lines skipped)."""
    return [TraceRecord.from_json(ln) for ln in lines if ln.strip()]


def open_text_maybe_gzip(path: Union[str, Path], mode: str = "r") -> TextIO:
    """Open ``path`` as text, transparently gunzipping on a ``.gz`` suffix.

    The single chokepoint for every trace reader and writer in
    :mod:`repro.obs` (analyze, audit, report), so ``.jsonl`` and
    ``.jsonl.gz`` are interchangeable everywhere.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return io.open(path, mode)


def read_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Load a JSONL trace file written by :meth:`Tracer.dump` or a stream.

    Accepts plain ``.jsonl`` and gzip-compressed ``.jsonl.gz`` files.
    """
    with open_text_maybe_gzip(path) as fh:
        return read_trace_lines(fh)
