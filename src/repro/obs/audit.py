"""Runtime invariant auditing + deterministic run fingerprints.

:func:`audit_run` cross-checks a completed run's trace against the
simulator's own accounting and returns machine-readable
:class:`AuditViolation` findings instead of asserting -- so a violation
survives pickling across worker processes (like
:class:`~repro.experiments.parallel.CellFailure` does) and can gate CI.

Invariant catalog
-----------------

``ledger_conservation``
    Per-:class:`~repro.sim.metrics.TrafficCategory` byte totals derived
    purely from the trace (query-span ``ledger_delta`` annotations plus
    top-level ad-lifecycle events -- see :mod:`repro.obs.analyze`) must
    equal the :class:`~repro.sim.metrics.BandwidthLedger` totals the
    figures are built from, for every category the ledger holds.
``query_resolution``
    Every replayed query produced exactly one ``query`` span, in replay
    order, whose annotated outcome (success, messages, cost, results)
    matches the :class:`~repro.search.base.SearchOutcome` the run
    collected.
``walk_budget``
    Every walker terminates within its budget: random-walk queries send
    at most ``walkers * ttl`` messages (+1 reply), GSA queries at most
    the effective budget ``walkers * max(1, budget // walkers)`` (+1
    reply), and every walk-based ad delivery stays within the effective
    cap its trace event carries.
``confirmation_discipline``
    Confirmations only happen for cached (delivered) ads: a query span's
    ``confirmation`` byte delta must be exactly explained by the nested
    ``confirm_stats`` accounting (requests to ``attempted`` sources,
    replies from the live ones), and attempts per query are bounded by
    two rounds of ``MAX_CONFIRMATIONS``.
``bloom_fp_rate``
    The measured Bloom false-positive rate (confirm failures on live
    sources where a query term exists in none of the source's documents)
    must stay within a sane multiple of the configured minimum
    ``(1/2)^k``.  Skipped below a minimum sample size.
``churn_consistency``
    The live-count annotations on join/leave events form a consistent
    +/-1 walk.

Fingerprints
------------

:func:`run_fingerprint` digests the trace *structure* (every record
minus wall-clock fields) plus the run's metric totals.  Wall-clock
(``dur_s``) is excluded, so the same (config, seed) produces an
identical fingerprint across serial and parallel execution, across
hosts, and across runs -- any drift means semantics changed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.asap.protocol import MAX_CONFIRMATIONS
from repro.obs.analyze import TraceAnalysis, analyze_trace
from repro.obs.trace import TraceRecord
from repro.search.base import CONFIRMATION_REPLY_BYTES, CONFIRMATION_REQUEST_BYTES
from repro.search.random_walk import WALKERS

__all__ = [
    "AuditReport",
    "AuditViolation",
    "audit_run",
    "run_fingerprint",
]

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


@dataclass(frozen=True)
class AuditViolation:
    """One failed invariant check, with enough detail to act on."""

    check: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"check": self.check, "message": self.message, "details": self.details}


@dataclass
class AuditReport:
    """The outcome of auditing one run."""

    checks: Dict[str, str]  # check name -> "pass" | "fail" | "skipped"
    violations: List[AuditViolation]
    fingerprint: str

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "fingerprint": self.fingerprint,
            "checks": dict(self.checks),
            "violations": [v.to_dict() for v in self.violations],
        }

    def format_table(self) -> str:
        lines = [f"audit: {'PASS' if self.ok else 'FAIL'}  fingerprint={self.fingerprint}"]
        width = max(len(name) for name in self.checks) if self.checks else 0
        for name, status in sorted(self.checks.items()):
            lines.append(f"  {name:<{width}}  {status}")
        for v in self.violations:
            lines.append(f"  ! [{v.check}] {v.message}")
        return "\n".join(lines)


# ---------------------------------------------------------------- fingerprint
def run_fingerprint(records: Sequence[TraceRecord], result) -> str:
    """Deterministic digest of trace structure + metric totals.

    Wall-clock fields (the record's ``dur_s`` and any ``dur_s`` attr) are
    excluded; everything else -- record ids, nesting, simulation times,
    annotations, ledger totals, outcome counts -- is covered.
    """
    h = hashlib.blake2b(digest_size=16)
    for r in records:
        attrs = {k: v for k, v in r.attrs.items() if k != "dur_s"}
        h.update(
            json.dumps(
                [r.kind, r.category, r.name, r.t, r.id, r.parent, r.depth, attrs],
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
        )
        h.update(b"\n")
    totals = {
        cat.value: total for cat, total in result.ledger.category_totals().items()
    }
    successes = sum(1 for o in result.outcomes if o.success)
    h.update(
        json.dumps(
            {
                "algorithm": result.algorithm,
                "topology": result.topology,
                "n_queries": len(result.outcomes),
                "successes": successes,
                "ledger": totals,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    )
    return h.hexdigest()


# --------------------------------------------------------------------- checks
def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL_BYTES)


def _check_conservation(
    analysis: TraceAnalysis, result, violations: List[AuditViolation]
) -> str:
    trace_totals = analysis.category_bytes()
    ledger_totals = {
        cat.value: total for cat, total in result.ledger.category_totals().items()
    }
    status = "pass"
    for cat in sorted(set(trace_totals) | set(ledger_totals)):
        traced = trace_totals.get(cat, 0.0)
        recorded = ledger_totals.get(cat, 0.0)
        if not _close(traced, recorded):
            status = "fail"
            violations.append(
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
    return status


def _check_query_resolution(
    analysis: TraceAnalysis, result, violations: List[AuditViolation]
) -> str:
    queries = analysis.queries
    outcomes = result.outcomes
    if len(queries) != len(outcomes):
        violations.append(
            AuditViolation(
                check="query_resolution",
                message=(
                    f"{len(outcomes)} queries replayed but {len(queries)} "
                    "query spans in the trace -- a query was resolved "
                    "zero or multiple times"
                ),
                details={"outcomes": len(outcomes), "spans": len(queries)},
            )
        )
        return "fail"
    status = "pass"
    for i, (q, o) in enumerate(zip(queries, outcomes)):
        mismatches = {}
        if q.success != o.success:
            mismatches["success"] = [q.success, o.success]
        if q.messages != o.messages:
            mismatches["messages"] = [q.messages, o.messages]
        if not _close(q.cost_bytes, o.cost_bytes):
            mismatches["cost_bytes"] = [q.cost_bytes, o.cost_bytes]
        if q.results != o.results:
            mismatches["results"] = [q.results, o.results]
        if mismatches:
            status = "fail"
            violations.append(
                AuditViolation(
                    check="query_resolution",
                    message=(
                        f"query #{i} (span {q.span_id}): trace annotation "
                        f"disagrees with the collected outcome on "
                        f"{sorted(mismatches)}"
                    ),
                    details={"index": i, "span_id": q.span_id, **mismatches},
                )
            )
    return status


def _check_walk_budget(
    analysis: TraceAnalysis, config, violations: List[AuditViolation]
) -> str:
    status = "pass"
    # Per-query caps for the walk-based baselines (+1 for the direct reply).
    cap = None
    if config is not None and config.algorithm == "random_walk":
        cap = WALKERS * config.rw_ttl + 1
    elif config is not None and config.algorithm == "gsa":
        cap = WALKERS * max(1, config.gsa_budget // WALKERS) + 1
    if cap is not None:
        for q in analysis.queries:
            if q.messages > cap:
                status = "fail"
                violations.append(
                    AuditViolation(
                        check="walk_budget",
                        message=(
                            f"query span {q.span_id} sent {q.messages} "
                            f"messages, exceeding the walk budget of {cap}"
                        ),
                        details={
                            "span_id": q.span_id,
                            "messages": q.messages,
                            "budget": cap,
                        },
                    )
                )
    for d in analysis.deliveries:
        if d.budget is not None and d.messages > d.budget:
            status = "fail"
            violations.append(
                AuditViolation(
                    check="walk_budget",
                    message=(
                        f"{d.ad_type} ad delivery from source {d.source} at "
                        f"t={d.t:.1f} sent {d.messages} messages, exceeding "
                        f"its effective budget of {d.budget}"
                    ),
                    details={
                        "source": d.source,
                        "t": d.t,
                        "messages": d.messages,
                        "budget": d.budget,
                    },
                )
            )
    return status


def _check_confirmation_discipline(
    analysis: TraceAnalysis, result, config, violations: List[AuditViolation]
) -> str:
    if config is None or not config.is_asap:
        return "skipped"
    status = "pass"
    max_attempts = 2 * MAX_CONFIRMATIONS  # two confirm rounds
    req = float(CONFIRMATION_REQUEST_BYTES)
    rep = float(CONFIRMATION_REPLY_BYTES)
    # Super-peer leaf routing charges its extra leaf<->super hop to the
    # confirmation category, so the exact byte tie-in only holds for the
    # flat protocol.
    flat = not config.is_superpeer
    for q in analysis.queries:
        stats = q.confirm_stats or {}
        attempted = stats.get("attempted", 0)
        dead = stats.get("failed_dead", 0)
        resolved = (
            stats.get("confirmed", 0)
            + dead
            + stats.get("failed_bloom_fp", 0)
            + stats.get("failed_split", 0)
        )
        if attempted != resolved:
            status = "fail"
            violations.append(
                AuditViolation(
                    check="confirmation_discipline",
                    message=(
                        f"query span {q.span_id}: {attempted} confirmation "
                        f"attempts but {resolved} classified outcomes"
                    ),
                    details={"span_id": q.span_id, **stats},
                )
            )
            continue
        if attempted > max_attempts:
            status = "fail"
            violations.append(
                AuditViolation(
                    check="confirmation_discipline",
                    message=(
                        f"query span {q.span_id} attempted {attempted} "
                        f"confirmations, above the two-round cap of "
                        f"{max_attempts}"
                    ),
                    details={"span_id": q.span_id, "attempted": attempted,
                             "cap": max_attempts},
                )
            )
        if flat:
            expected = attempted * req + (attempted - dead) * rep
            observed = q.ledger_delta.get("confirmation", 0.0)
            if not _close(expected, observed):
                status = "fail"
                violations.append(
                    AuditViolation(
                        check="confirmation_discipline",
                        message=(
                            f"query span {q.span_id}: {observed:.1f} "
                            f"confirmation bytes moved but the confirm "
                            f"accounting explains {expected:.1f} B -- "
                            "confirmation traffic without a cached ad"
                        ),
                        details={
                            "span_id": q.span_id,
                            "observed_bytes": observed,
                            "expected_bytes": expected,
                            **stats,
                        },
                    )
                )
    return status


def _check_bloom_fp_rate(
    analysis: TraceAnalysis, config, violations: List[AuditViolation]
) -> str:
    if config is not None and not config.is_asap:
        return "skipped"
    totals = analysis.confirm_totals()
    live_attempts = totals.get("attempted", 0) - totals.get("failed_dead", 0)
    if live_attempts < _BLOOM_MIN_SAMPLES:
        return "skipped"
    from repro.bloom.hashing import PAPER_K, min_false_positive_rate

    measured = totals.get("failed_bloom_fp", 0) / live_attempts
    configured_min = min_false_positive_rate(PAPER_K)
    if measured > _BLOOM_MAX_RATE:
        violations.append(
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
        )
        return "fail"
    return "pass"


def _check_churn_consistency(
    analysis: TraceAnalysis, violations: List[AuditViolation]
) -> str:
    prev: Optional[int] = None
    status = "pass"
    for ev in analysis.churn:
        if ev.kind not in ("join", "leave") or ev.live is None:
            continue
        if prev is not None:
            expected = prev + (1 if ev.kind == "join" else -1)
            if ev.live != expected:
                status = "fail"
                violations.append(
                    AuditViolation(
                        check="churn_consistency",
                        message=(
                            f"{ev.kind} of node {ev.node} at t={ev.t:.1f} "
                            f"reports {ev.live} live peers; expected "
                            f"{expected} after {prev}"
                        ),
                        details={
                            "t": ev.t,
                            "node": ev.node,
                            "kind": ev.kind,
                            "live": ev.live,
                            "expected": expected,
                        },
                    )
                )
        prev = ev.live
    return status


# ----------------------------------------------------------------- audit_run
def audit_run(
    records: Sequence[TraceRecord], result, config=None
) -> AuditReport:
    """Audit one completed run: trace records + its RunResult (+ config).

    ``config`` (the run's :class:`~repro.simulation.config.RunConfig`)
    enables the budget- and protocol-parameter checks; without it those
    degrade gracefully (delivery budgets still checked from trace attrs).
    """
    analysis = analyze_trace(records)
    violations: List[AuditViolation] = []
    checks = {
        "ledger_conservation": _check_conservation(analysis, result, violations),
        "query_resolution": _check_query_resolution(analysis, result, violations),
        "walk_budget": _check_walk_budget(analysis, config, violations),
        "confirmation_discipline": _check_confirmation_discipline(
            analysis, result, config, violations
        ),
        "bloom_fp_rate": _check_bloom_fp_rate(analysis, config, violations),
        "churn_consistency": _check_churn_consistency(analysis, violations),
    }
    return AuditReport(
        checks=checks,
        violations=violations,
        fingerprint=run_fingerprint(records, result),
    )
