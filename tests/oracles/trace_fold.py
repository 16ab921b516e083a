"""The streaming trace fold the auditor used to be: the differential.

Before the action tables, an audited run built one trace record per action
and folded each into a :class:`TraceFold` -- totals, per-query arrays and a
rolling blake2b over one canonical ``json.dumps`` per record.  The fold is
kept here, unchanged, as the oracle for :mod:`repro.obs.audit`: fed the
records :func:`repro.obs.actions.render_lines` renders from a run's
tables, it must give every golden ``fingerprints`` row and report every
planted violation exactly as the vectorised audit does.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.asap.protocol import MAX_CONFIRMATIONS
from repro.obs.actions import render_lines
from repro.obs.audit import AD_TYPE_CATEGORY, AuditReport, AuditViolation
from repro.obs.telemetry import quantile_nearest_rank
from repro.search.base import CONFIRMATION_REPLY_BYTES, CONFIRMATION_REQUEST_BYTES
from repro.search.random_walk import WALKERS

__all__ = ["TraceFold", "TraceRecord", "rendered_records"]

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


#: Conservation tolerance: trace and ledger sum the same floats in a
#: different order, so allow tiny drift (absolute bytes + relative).
_ABS_TOL_BYTES = 0.5
_REL_TOL = 1e-6

#: Minimum live-source confirmation attempts before the measured Bloom
#: false-positive rate is statistically meaningful.
_BLOOM_MIN_SAMPLES = 20

#: Measured-FP ceiling: generous multiple of the configured minimum
#: ``(1/2)^k`` because stale (version-behind) entries also fail with an
#: absent term; a rate past this signals broken hashing or accounting.
_BLOOM_MAX_RATE = 0.25


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL_BYTES)


def _stats(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "max": 0.0}
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": quantile_nearest_rank(ordered, 0.50),
        "p90": quantile_nearest_rank(ordered, 0.90),
        "max": float(ordered[-1]),
    }


def _add(totals: Dict[str, float], key: str, value: float) -> None:
    totals[key] = totals.get(key, 0.0) + value


class TraceFold:
    """One pass over a run's trace records; see the module docstring.

    ``config`` (the run's :class:`~repro.simulation.config.RunConfig`)
    enables the budget- and protocol-parameter checks; without it those
    degrade gracefully (delivery budgets are still checked from the trace
    attrs), which is all ``report analyze`` needs.  ``records`` are fed at
    once, in order: ``TraceFold(config, read_trace(path))``.
    """

    def __init__(self, config=None, records: Iterable[TraceRecord] = ()) -> None:
        self.config = config
        self._asap = config is not None and config.is_asap
        # Per-query caps for the walk-based baselines (+1 for the direct reply).
        self._query_cap: Optional[int] = None
        if config is not None and config.algorithm == "random_walk":
            self._query_cap = WALKERS * config.rw_ttl + 1
        elif config is not None and config.algorithm == "gsa":
            self._query_cap = WALKERS * max(1, config.gsa_budget // WALKERS) + 1
        self._hash = hashlib.blake2b(digest_size=16)
        self._schemas: Dict[int, int] = {}
        # confirm_stats counts by parent span id, until that span closes.
        self._confirm_waiting: Dict[int, Dict[str, int]] = {}
        # Per query, in span order: what query_resolution and the quantiles read.
        self._span_ids = array("q")
        self._success = array("b")
        self._messages = array("q")
        self._cost = array("d")
        self._results = array("q")
        self._response_ms = array("d")  # successful queries only
        self._resolution = {"hit": 0, "local": 0, "miss": 0}
        # Bytes per attribution rule, kept apart so category_bytes() lists
        # query categories first, as report analyze always has.
        self._query_bytes: Dict[str, float] = {}
        self._delivery_bytes: Dict[str, float] = {}
        self._exchange_bytes: Dict[str, float] = {}
        self._delivery_times: Dict[int, array] = {}  # source -> delivery times
        self._by_type = dict.fromkeys(AD_TYPE_CATEGORY, 0)
        self._deliveries = 0
        self._exchanges = {"repairs": 0, "ads_requests": 0}
        self._confirm_totals: Dict[str, int] = {}
        self._churn: Dict[str, int] = {}
        self._live: Optional[int] = None
        # Violations found on the way, per check, in the order found.
        self._query_overruns: List[AuditViolation] = []
        self._delivery_overruns: List[AuditViolation] = []
        self._confirm_findings: List[AuditViolation] = []
        self._churn_findings: List[AuditViolation] = []
        for record in records:
            self.feed(record)

    # ---------------------------------------------------------------- feeding
    def feed(self, r: TraceRecord) -> None:
        """Fold in the next record; a :class:`~repro.obs.trace.Tracer` sink."""
        attrs = {k: v for k, v in r.attrs.items() if k != "dur_s"}
        self._hash.update(
            json.dumps(
                [r.kind, r.category, r.name, r.t, r.id, r.parent, r.depth, attrs],
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
            + b"\n"
        )
        self._schemas[r.schema] = self._schemas.get(r.schema, 0) + 1
        stats = self._confirm_waiting.pop(r.id, None) if r.kind == "span" else None
        if r.category == "query":
            if r.kind == "event" and r.name == "confirm_stats":
                if r.parent is not None:
                    self._confirm_waiting[r.parent] = dict(r.attrs)
            elif r.kind == "span":
                self._query(r, stats)
        elif r.category == "ad" and r.name.startswith("deliver."):
            self._delivery(r)
        elif r.category == "ad" and r.name in ("repair", "ads_request"):
            self._exchange(r)
        elif r.category == "churn":
            self._churn_event(r)

    def _query(self, r: TraceRecord, stats: Optional[Dict[str, int]]) -> None:
        a = r.attrs
        success = bool(a.get("success", False))
        messages = int(a.get("messages", 0))
        self._span_ids.append(r.id)
        self._success.append(success)
        self._messages.append(messages)
        self._cost.append(float(a.get("cost_bytes", 0.0)))
        self._results.append(int(a.get("results", 0)))
        response_ms = a.get("response_time_ms")
        if success and response_ms is not None:
            self._response_ms.append(response_ms)
        if a.get("local_hit", False):
            self._resolution["local"] += 1
        else:
            self._resolution["hit" if success else "miss"] += 1
        ledger_delta = a.get("ledger_delta") or {}
        for cat, delta in ledger_delta.items():
            _add(self._query_bytes, cat, delta)
        stats = stats or {}
        for key, value in stats.items():
            self._confirm_totals[key] = self._confirm_totals.get(key, 0) + value
        cap = self._query_cap
        if cap is not None and messages > cap:
            self._query_overruns.append(
                AuditViolation(
                    check="walk_budget",
                    message=(
                        f"query span {r.id} sent {messages} "
                        f"messages, exceeding the walk budget of {cap}"
                    ),
                    details={"span_id": r.id, "messages": messages, "budget": cap},
                )
            )
        if self._asap:
            self._check_confirmations(r.id, stats, ledger_delta)

    def _check_confirmations(
        self, span_id: int, stats: Dict[str, int], ledger_delta: Dict[str, float]
    ) -> None:
        found = self._confirm_findings
        attempted = stats.get("attempted", 0)
        dead = stats.get("failed_dead", 0)
        resolved = (
            stats.get("confirmed", 0)
            + dead
            + stats.get("failed_bloom_fp", 0)
            + stats.get("failed_split", 0)
        )
        if attempted != resolved:
            found.append(
                AuditViolation(
                    check="confirmation_discipline",
                    message=(
                        f"query span {span_id}: {attempted} confirmation "
                        f"attempts but {resolved} classified outcomes"
                    ),
                    details={"span_id": span_id, **stats},
                )
            )
            return
        max_attempts = 2 * MAX_CONFIRMATIONS  # two confirm rounds
        if attempted > max_attempts:
            found.append(
                AuditViolation(
                    check="confirmation_discipline",
                    message=(
                        f"query span {span_id} attempted {attempted} "
                        f"confirmations, above the two-round cap of "
                        f"{max_attempts}"
                    ),
                    details={"span_id": span_id, "attempted": attempted,
                             "cap": max_attempts},
                )
            )
        # Super-peer leaf routing charges its extra leaf<->super hop to the
        # confirmation category, so the exact byte tie-in only holds for the
        # flat protocol.
        if self.config.is_superpeer:
            return
        expected = (
            attempted * float(CONFIRMATION_REQUEST_BYTES)
            + (attempted - dead) * float(CONFIRMATION_REPLY_BYTES)
        )
        observed = ledger_delta.get("confirmation", 0.0)
        if not _close(expected, observed):
            found.append(
                AuditViolation(
                    check="confirmation_discipline",
                    message=(
                        f"query span {span_id}: {observed:.1f} "
                        f"confirmation bytes moved but the confirm "
                        f"accounting explains {expected:.1f} B -- "
                        "confirmation traffic without a cached ad"
                    ),
                    details={
                        "span_id": span_id,
                        "observed_bytes": observed,
                        "expected_bytes": expected,
                        **stats,
                    },
                )
            )

    def _delivery(self, r: TraceRecord) -> None:
        a = r.attrs
        source = int(a.get("source", -1))
        ad_type = a.get("ad_type", "full")
        messages = int(a.get("messages", 0))
        budget = a.get("budget")
        self._deliveries += 1
        if ad_type in self._by_type:
            self._by_type[ad_type] += 1
        self._delivery_times.setdefault(source, array("d")).append(r.t)
        if r.parent is None:
            _add(
                self._delivery_bytes,
                AD_TYPE_CATEGORY[ad_type],
                float(a.get("bytes", 0.0)),
            )
        if budget is not None and messages > budget:
            self._delivery_overruns.append(
                AuditViolation(
                    check="walk_budget",
                    message=(
                        f"{ad_type} ad delivery from source {source} at "
                        f"t={r.t:.1f} sent {messages} messages, exceeding "
                        f"its effective budget of {budget}"
                    ),
                    details={
                        "source": source,
                        "t": r.t,
                        "messages": messages,
                        "budget": budget,
                    },
                )
            )

    def _exchange(self, r: TraceRecord) -> None:
        a = r.attrs
        repair = r.name == "repair"
        self._exchanges["repairs" if repair else "ads_requests"] += 1
        if r.parent is not None:
            return
        _add(self._exchange_bytes, "ads_request", float(a.get("request_bytes", 0.0)))
        reply_bytes = float(a.get("reply_bytes", 0.0))
        if not repair:
            _add(self._exchange_bytes, "ads_reply", reply_bytes)
        elif a.get("reply_category") is not None:
            _add(self._exchange_bytes, a["reply_category"], reply_bytes)

    def _churn_event(self, r: TraceRecord) -> None:
        kind = r.name
        self._churn[kind] = self._churn.get(kind, 0) + 1
        live = r.attrs.get("live")
        if kind not in ("join", "leave") or live is None:
            return
        prev = self._live
        if prev is not None:
            expected = prev + (1 if kind == "join" else -1)
            if live != expected:
                node = int(r.attrs.get("node", -1))
                self._churn_findings.append(
                    AuditViolation(
                        check="churn_consistency",
                        message=(
                            f"{kind} of node {node} at t={r.t:.1f} "
                            f"reports {live} live peers; expected "
                            f"{expected} after {prev}"
                        ),
                        details={
                            "t": r.t,
                            "node": node,
                            "kind": kind,
                            "live": live,
                            "expected": expected,
                        },
                    )
                )
        self._live = live

    # ---------------------------------------------------------------- summary
    def category_bytes(self) -> Dict[str, float]:
        """Per-category byte totals derived purely from the trace: query
        deltas, then top-level deliveries, then top-level exchanges."""
        totals = dict(self._query_bytes)
        for part in (self._delivery_bytes, self._exchange_bytes):
            for cat, nbytes in part.items():
                _add(totals, cat, nbytes)
        return totals

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready lifecycle summary ``report analyze`` prints."""
        # The gap between successive deliveries of one source's ad bounds
        # how stale a cached copy can get before the next full/patch/refresh
        # reaches its consumers.
        gaps: List[float] = []
        for times in self._delivery_times.values():
            ordered = sorted(times)
            gaps.extend(b - a for a, b in zip(ordered, ordered[1:]))
        return {
            "queries": len(self._span_ids),
            "resolution": dict(self._resolution),
            "hops": _stats([float(m) for m in self._messages]),
            "response_time_ms": _stats(self._response_ms),
            "category_bytes": self.category_bytes(),
            "deliveries": {
                "count": self._deliveries,
                "by_type": dict(self._by_type),
                "staleness_window_s": _stats(gaps),
            },
            "exchanges": dict(self._exchanges),
            "confirmations": dict(self._confirm_totals),
            "churn": dict(self._churn),
            "schema_versions": {
                str(k): v for k, v in sorted(self._schemas.items())
            },
        }

    # ------------------------------------------------------------------ audit
    def fingerprint(self, result) -> str:
        """Deterministic digest of the trace fed so far + ``result``'s totals.

        Wall-clock fields (the record's ``dur_s`` and any ``dur_s`` attr)
        are excluded; everything else -- record ids, nesting, simulation
        times, annotations, ledger totals, outcome counts -- is covered.
        """
        h = self._hash.copy()
        totals = {
            cat.value: total for cat, total in result.ledger.category_totals().items()
        }
        h.update(
            json.dumps(
                {
                    "algorithm": result.algorithm,
                    "topology": result.topology,
                    "n_queries": len(result.outcomes),
                    "successes": sum(1 for o in result.outcomes if o.success),
                    "ledger": totals,
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
        )
        return h.hexdigest()

    def audit(self, result) -> AuditReport:
        """Audit the run the fed trace belongs to against its RunResult."""
        findings = {
            "ledger_conservation": self._conservation(result),
            "query_resolution": self._query_resolution(result),
            "walk_budget": self._query_overruns + self._delivery_overruns,
            "confirmation_discipline": (
                list(self._confirm_findings) if self._asap else None
            ),
            "bloom_fp_rate": self._bloom_fp_rate(),
            "churn_consistency": list(self._churn_findings),
        }
        return AuditReport(
            checks={
                name: "skipped" if found is None else "fail" if found else "pass"
                for name, found in findings.items()
            },
            violations=[v for found in findings.values() if found for v in found],
            fingerprint=self.fingerprint(result),
        )

    def _conservation(self, result) -> List[AuditViolation]:
        trace_totals = self.category_bytes()
        ledger_totals = {
            cat.value: total for cat, total in result.ledger.category_totals().items()
        }
        found = []
        for cat in sorted(set(trace_totals) | set(ledger_totals)):
            traced = trace_totals.get(cat, 0.0)
            recorded = ledger_totals.get(cat, 0.0)
            if not _close(traced, recorded):
                found.append(
                    AuditViolation(
                        check="ledger_conservation",
                        message=(
                            f"category {cat!r}: trace-derived {traced:.1f} B != "
                            f"ledger {recorded:.1f} B "
                            f"(delta {recorded - traced:+.1f} B)"
                        ),
                        details={
                            "category": cat,
                            "trace_bytes": traced,
                            "ledger_bytes": recorded,
                        },
                    )
                )
        return found

    def _query_resolution(self, result) -> List[AuditViolation]:
        outcomes = result.outcomes
        n_spans = len(self._span_ids)
        if n_spans != len(outcomes):
            return [
                AuditViolation(
                    check="query_resolution",
                    message=(
                        f"{len(outcomes)} queries replayed but {n_spans} "
                        "query spans in the trace -- a query was resolved "
                        "zero or multiple times"
                    ),
                    details={"outcomes": len(outcomes), "spans": n_spans},
                )
            ]
        found = []
        for i, o in enumerate(outcomes):
            span_id = self._span_ids[i]
            mismatches = {}
            if bool(self._success[i]) != o.success:
                mismatches["success"] = [bool(self._success[i]), o.success]
            if self._messages[i] != o.messages:
                mismatches["messages"] = [self._messages[i], o.messages]
            if not _close(self._cost[i], o.cost_bytes):
                mismatches["cost_bytes"] = [self._cost[i], o.cost_bytes]
            if self._results[i] != o.results:
                mismatches["results"] = [self._results[i], o.results]
            if mismatches:
                found.append(
                    AuditViolation(
                        check="query_resolution",
                        message=(
                            f"query #{i} (span {span_id}): trace annotation "
                            f"disagrees with the collected outcome on "
                            f"{sorted(mismatches)}"
                        ),
                        details={"index": i, "span_id": span_id, **mismatches},
                    )
                )
        return found

    def _bloom_fp_rate(self) -> Optional[List[AuditViolation]]:
        if self.config is not None and not self._asap:
            return None
        totals = self._confirm_totals
        live_attempts = totals.get("attempted", 0) - totals.get("failed_dead", 0)
        if live_attempts < _BLOOM_MIN_SAMPLES:
            return None
        from repro.bloom.hashing import PAPER_K, min_false_positive_rate

        measured = totals.get("failed_bloom_fp", 0) / live_attempts
        configured_min = min_false_positive_rate(PAPER_K)
        if measured <= _BLOOM_MAX_RATE:
            return []
        return [
            AuditViolation(
                check="bloom_fp_rate",
                message=(
                    f"measured Bloom false-positive rate {measured:.1%} over "
                    f"{live_attempts} live confirmations exceeds the "
                    f"{_BLOOM_MAX_RATE:.0%} ceiling (configured minimum "
                    f"is {configured_min:.2%})"
                ),
                details={
                    "measured_rate": measured,
                    "configured_min_rate": configured_min,
                    "ceiling": _BLOOM_MAX_RATE,
                    "live_attempts": live_attempts,
                    "bloom_fp_failures": totals.get("failed_bloom_fp", 0),
                },
            )
        ]


def rendered_records(log) -> List[TraceRecord]:
    """The records the tables of ``log`` render, parsed as the fold reads
    a trace file."""
    return [TraceRecord.from_json(line) for line in render_lines(log)]
