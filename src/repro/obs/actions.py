"""One account of an observed run: every action a row of a typed table.

An observed run's :class:`~repro.obs.instrument.Instrumentation` holds an
:class:`ActionLog`.  Each action it is told about appends one row to the
table of its kind -- a query span with its outcome, its ledger delta and
its confirm counts; a delivery; an ads exchange; a repair; a churn event;
a content change -- and one ``(kind, record id)`` row to the sequence that
keeps their interleaving.  Rows arrive as tuples and are packed into numpy
chunks of :data:`CHUNK` rows, so a run of a million actions holds a few
dozen arrays, not a million objects.

Everything else reads the tables: the audit checks, the ``report
analyze`` summary and the run fingerprint are reductions over them
(:mod:`repro.obs.audit`), and a ``--trace`` file is a rendering of them
(:func:`write_trace`), one JSON record per line::

    {"schema": 1, "kind": "event"|"span", "cat": str, "name": str,
     "t": float, "id": int, "parent": int|null, "depth": int,
     "dur_s": float|null,   # host wall clock of a query span
     "attrs": {...}}

Record ids count up in the order records open; a query span takes its id
when the search starts, so the actions it causes (ads exchanges, repairs,
its ``confirm_stats``) are its children (``depth`` 1) and precede it in
the file.  ``t`` is simulation time.  :func:`read_trace` parses a file
back into the tables (plain or ``.gz``; schema 0, the format before the
``schema`` key, or 1; unknown keys and records are skipped), so an
analysed file and a live run are read by the same code.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Union

import numpy as np

from repro.asap.ads import AdType
from repro.sim.metrics import TrafficCategory

__all__ = [
    "ActionLog", "KINDS", "TRACE_RECORDS", "TRACE_SCHEMA_VERSION",
    "open_text_maybe_gzip", "parse_lines", "read_trace", "records",
    "render_lines", "write_trace",
]

#: Version of the rendered record format (see the module docstring).
TRACE_SCHEMA_VERSION = 1

#: Rows buffered as tuples before they are packed into a numpy chunk.
CHUNK = 4096

#: Every ``(category, name)`` record a trace can hold.  A query span is
#: named after the algorithm that ran it.  docs/OBSERVABILITY.md's record
#: table is compared with this set by test.
TRACE_RECORDS = frozenset({
    ("query", "<algorithm>"), ("query", "confirm_stats"),
    ("ad", "deliver.fld"), ("ad", "deliver.rw"), ("ad", "deliver.gsa"),
    ("ad", "ads_request"), ("ad", "repair"),
    ("churn", "join"), ("churn", "leave"),
    ("churn", "content_add"), ("churn", "content_remove"),
})

#: The action kinds, in table order.
KINDS = ("query", "delivery", "exchange", "repair", "churn", "content")
QUERY, DELIVERY, EXCHANGE, REPAIR, CHURN, CONTENT = range(len(KINDS))

#: A query's ledger delta is one column per category, in this order.
CATEGORIES = tuple(TrafficCategory)
FORWARDERS = ("fld", "rw", "gsa")
AD_TYPES = tuple(ad_type.value for ad_type in AdType)
SCOPES = ("bootstrap", "query")
CONFIRM_COUNTS = (
    "attempted", "confirmed", "failed_dead", "failed_bloom_fp", "failed_split"
)

# ``parent`` is the id of the query span an action happened in, 0 outside
# one; ``confirm_id`` the id of a query's confirm_stats record, 0 if none.
# ``cost_int`` keeps whether the search reported its cost as an int.  Ids,
# nodes and counts are int32: a value past it raises, it is not wrapped.
DTYPES = (
    np.dtype([
        ("t", "f8"), ("requester", "i4"), ("terms", "i4"), ("success", "?"),
        ("local_hit", "?"), ("messages", "i4"), ("cost_bytes", "f8"),
        ("cost_int", "?"), ("results", "i4"), ("response_time_ms", "f8"),
        ("ledger_delta", "f8", (len(CATEGORIES),)), ("confirm_id", "i4"),
        ("confirm", "i4", (len(CONFIRM_COUNTS),)), ("dur_s", "f8"),
    ]),
    np.dtype([
        ("parent", "i4"), ("t", "f8"), ("forwarder", "u1"), ("source", "i4"),
        ("ad_type", "u1"), ("topics", "i4"), ("visited", "i4"),
        ("messages", "i4"), ("bytes", "f8"), ("budget", "i4"),
    ]),
    np.dtype([
        ("parent", "i4"), ("t", "f8"), ("node", "i4"), ("scope", "u1"),
        ("neighbors", "i4"), ("new_sources", "i4"), ("messages", "i4"),
        ("cost_bytes", "f8"), ("request_bytes", "f8"),
    ]),
    np.dtype([
        ("parent", "i4"), ("t", "f8"), ("node", "i4"), ("source", "i4"),
        ("request_bytes", "f8"), ("reply_bytes", "f8"), ("reply_category", "i1"),
    ]),
    np.dtype([("t", "f8"), ("node", "i4"), ("joined", "?"), ("live", "i4")]),
    np.dtype([("t", "f8"), ("node", "i4"), ("doc_id", "i4"), ("added", "?")]),
)
SEQUENCE = np.dtype([("kind", "u1"), ("id", "i4")])


class ActionLog:
    """The tables of one observed run; see the module docstring.

    ``algorithm`` names the query spans; ``schemas`` counts the records of
    each schema version a parsed file held (``None`` for a live run).
    """

    def __init__(self) -> None:
        # Per kind: packed chunks, and the rows since the last one.
        self._chunks: List[List[np.ndarray]] = [[] for _ in DTYPES]
        self._rows: List[List[tuple]] = [[] for _ in DTYPES]
        self._kinds, self._ids = array("B"), array("i")  # the sequence
        self._next_id = 1
        self.algorithm: Optional[str] = None
        self.schemas: Optional[Dict[int, int]] = None

    def take_id(self) -> int:
        """The next record id (a query span takes its own when it opens)."""
        record_id = self._next_id
        self._next_id = record_id + 1
        return record_id

    def add(self, kind: int, row: tuple, record_id: int = 0) -> None:
        """Append ``row`` to the ``kind`` table, as record ``record_id``
        (by default the next id)."""
        if not record_id:
            record_id = self._next_id
            self._next_id = record_id + 1
        self._kinds.append(kind)
        self._ids.append(record_id)
        rows = self._rows[kind]
        rows.append(row)
        if len(rows) == CHUNK:
            self._pack(kind)

    def add_rows(self, kind: int, rows: np.ndarray) -> None:
        """Append the ``kind`` rows ``rows`` (an array) as the next records."""
        self._pack(kind)
        self._chunks[kind].append(rows)
        first = self._next_id
        self._next_id = first + len(rows)
        self._kinds.extend(bytes([kind]) * len(rows))
        self._ids.extend(range(first, self._next_id))

    def _pack(self, kind: int) -> None:
        rows = self._rows[kind]
        if rows:
            self._chunks[kind].append(np.array(rows, dtype=DTYPES[kind]))
            rows.clear()

    def table(self, kind: int) -> np.ndarray:
        """Every row of the ``kind`` table so far (kept as its one chunk)."""
        self._pack(kind)
        chunks = self._chunks[kind]
        if len(chunks) != 1:
            chunks[:] = [np.concatenate(chunks or [np.empty(0, DTYPES[kind])])]
        return chunks[0]

    def sequence(self) -> np.ndarray:
        """``(kind, id)`` of every action, in the order it was recorded."""
        sequence = np.empty(len(self._ids), dtype=SEQUENCE)
        sequence["kind"], sequence["id"] = self._kinds, self._ids
        return sequence

    def n_records(self) -> int:
        """Records a rendering holds: one per action, plus confirm_stats."""
        return len(self._ids) + int(np.count_nonzero(self.table(QUERY)["confirm_id"]))


# --------------------------------------------------------------- rendering
def _record(kind, cat, name, t, record_id, parent, attrs, dur_s=None) -> dict:
    return {
        "schema": TRACE_SCHEMA_VERSION, "kind": kind, "cat": cat, "name": name,
        "t": t, "id": record_id, "parent": parent or None,
        "depth": 1 if parent else 0, "dur_s": dur_s, "attrs": attrs,
    }


def _query_records(log: ActionLog, row, record_id: int) -> Iterator[dict]:
    (t, requester, terms, success, local_hit, messages, cost, cost_int,
     results, response_ms, delta, confirm_id, confirm, dur_s) = row
    if confirm_id:
        yield _record("event", "query", "confirm_stats", t, confirm_id, record_id,
                      dict(zip(CONFIRM_COUNTS, confirm.tolist())))
    yield _record("span", "query", log.algorithm, t, record_id, 0, {
        "requester": requester, "terms": terms, "success": success,
        "messages": messages, "cost_bytes": int(cost) if cost_int else cost,
        "results": results, "local_hit": local_hit,
        "response_time_ms": response_ms if success else None,
        "ledger_delta": {
            cat.value: moved
            for cat, moved in zip(CATEGORIES, delta.tolist()) if moved != 0.0
        },
    }, dur_s)


def _delivery_record(row, record_id: int) -> dict:
    (parent, t, forwarder, source, ad_type, topics, visited, messages,
     nbytes, budget) = row
    return _record("event", "ad", f"deliver.{FORWARDERS[forwarder]}", t,
                   record_id, parent, {
        "source": source, "ad_type": AD_TYPES[ad_type], "topics": topics,
        "visited": visited, "messages": messages, "bytes": nbytes,
        "budget": budget if budget >= 0 else None,
    })


def _exchange_record(row, record_id: int) -> dict:
    (parent, t, node, scope, neighbors, new_sources, messages, cost,
     request) = row
    return _record("event", "ad", "ads_request", t, record_id, parent, {
        "node": node, "scope": SCOPES[scope], "neighbors": neighbors,
        "new_sources": new_sources, "messages": messages, "cost_bytes": cost,
        "request_bytes": request, "reply_bytes": cost - request,
    })


def _repair_record(row, record_id: int) -> dict:
    parent, t, node, source, request, reply, category = row
    return _record("event", "ad", "repair", t, record_id, parent, {
        "node": node, "source": source, "request_bytes": request,
        "reply_bytes": reply,
        "reply_category": CATEGORIES[category].value if category >= 0 else None,
    })


def records(log: ActionLog) -> Iterator[dict]:
    """The log's trace records, in the order they were emitted."""
    rows = [iter(log.table(kind).tolist()) for kind in range(len(KINDS))]
    for kind, record_id in log.sequence().tolist():
        row = next(rows[kind])
        if kind == QUERY:
            yield from _query_records(log, row, record_id)
        elif kind == DELIVERY:
            yield _delivery_record(row, record_id)
        elif kind == EXCHANGE:
            yield _exchange_record(row, record_id)
        elif kind == REPAIR:
            yield _repair_record(row, record_id)
        elif kind == CHURN:
            t, node, joined, live = row
            yield _record("event", "churn", "join" if joined else "leave", t,
                          record_id, 0, {"node": node, "live": live})
        else:
            t, node, doc_id, added = row
            yield _record("event", "churn", "content_add" if added else "content_remove",
                          t, record_id, 0, {"node": node, "doc_id": doc_id})


def render_lines(log: ActionLog) -> Iterator[str]:
    """Each trace record as one compact JSON line (no newline)."""
    return (json.dumps(r, separators=(",", ":")) for r in records(log))


def write_trace(log: ActionLog, path: Union[str, Path]) -> None:
    """Render the log to ``path`` as JSONL, gzip-compressed on ``.gz``."""
    with open_text_maybe_gzip(path, "w") as fh:
        for line in render_lines(log):
            fh.write(line + "\n")


# ----------------------------------------------------------------- parsing
def _parse_record(log: ActionLog, d: dict, confirms: Dict[int, tuple]) -> None:
    cat, name, a = d["cat"], d["name"], d.get("attrs") or {}
    t, record_id, parent = d["t"], d["id"], d.get("parent") or 0
    get = a.get
    if cat == "query" and name == "confirm_stats":
        confirms[parent] = (record_id, tuple(get(c, 0) for c in CONFIRM_COUNTS))
    elif cat == "query" and d["kind"] == "span":
        log.algorithm = name
        confirm_id, counts = confirms.pop(record_id, (0, (0,) * len(CONFIRM_COUNTS)))
        delta = get("ledger_delta") or {}
        cost = get("cost_bytes", 0.0)
        response_ms = get("response_time_ms")
        log.add(QUERY, (
            t, get("requester", -1), get("terms", 0), bool(get("success", False)),
            bool(get("local_hit", False)), get("messages", 0), cost,
            isinstance(cost, int), get("results", 0),
            math.nan if response_ms is None else response_ms,
            tuple(delta.get(c.value, 0.0) for c in CATEGORIES), confirm_id, counts,
            d.get("dur_s") or 0.0,
        ), record_id)
    elif cat == "ad" and name.startswith("deliver."):
        budget = get("budget")
        log.add(DELIVERY, (
            parent, t, FORWARDERS.index(name[len("deliver."):]), get("source", -1),
            AD_TYPES.index(get("ad_type", "full")), get("topics", 0),
            get("visited", 0), get("messages", 0), get("bytes", 0.0),
            -1 if budget is None else budget,
        ), record_id)
    elif cat == "ad" and name == "ads_request":
        request = get("request_bytes", 0.0)
        log.add(EXCHANGE, (
            parent, t, get("node", -1), SCOPES.index(get("scope", "bootstrap")),
            get("neighbors", 0), get("new_sources", 0), get("messages", 0),
            get("cost_bytes", request + get("reply_bytes", 0.0)), request,
        ), record_id)
    elif cat == "ad" and name == "repair":
        category = get("reply_category")
        log.add(REPAIR, (
            parent, t, get("node", -1), get("source", -1),
            get("request_bytes", 0.0), get("reply_bytes", 0.0),
            -1 if category is None else CATEGORIES.index(TrafficCategory(category)),
        ), record_id)
    elif cat == "churn" and name in ("join", "leave"):
        log.add(CHURN, (t, get("node", -1), name == "join", get("live", -1)), record_id)
    elif cat == "churn" and name in ("content_add", "content_remove"):
        log.add(CONTENT, (t, get("node", -1), get("doc_id", -1),
                          name == "content_add"), record_id)


def parse_lines(lines: Iterable[str]) -> ActionLog:
    """The tables a trace's JSONL lines render (blank lines skipped)."""
    log = ActionLog()
    schemas: Counter = Counter()
    confirms: Dict[int, tuple] = {}  # parent span id -> its confirm_stats
    for line in lines:
        if line.strip():
            d = json.loads(line)
            schemas[d.get("schema", 0)] += 1
            _parse_record(log, d, confirms)
    log.schemas = dict(schemas)
    return log


def read_trace(path: Union[str, Path]) -> ActionLog:
    """The tables of a JSONL trace file (``.jsonl`` or ``.jsonl.gz``)."""
    with open_text_maybe_gzip(path) as fh:
        return parse_lines(fh)


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
