"""Summaries, invariant audits and run fingerprints: reductions of the tables.

Each function here reads an :class:`~repro.obs.actions.ActionLog` -- the
one an audited run kept (``audit=True``) or one parsed from a trace file
(``report analyze``) -- with numpy:

* :func:`summary` is what ``report analyze`` prints: query resolution,
  hop, response-time and staleness digests
  (:func:`~repro.obs.telemetry.digest`), per-category bytes, deliveries by
  ad type, ads exchanges, confirmation totals and churn counts;
* :func:`audit` cross-checks the tables against the run's own accounting
  and returns machine-readable :class:`AuditViolation` findings instead of
  asserting, so a violation survives pickling across worker processes and
  can gate CI;
* :func:`fingerprint` is blake2b over the sequence and every table's
  bytes, in table order, with the query spans' wall-clock ``dur_s``
  zeroed, plus the run's metric totals: the same (config, seed) gives the
  same fingerprint serially, under ``--jobs N`` and across hosts.

Byte attribution: a query row's ledger delta covers everything nested in
its search, so nested ad rows are not counted again; a top-level
delivery's bytes belong to its ad type's category, a top-level repair
splits into ``ads_request`` bytes plus a reply in its reply category, and
a top-level ads exchange into ``ads_request`` and ``ads_reply`` bytes.

The checks (docs/OBSERVABILITY.md §5): ``ledger_conservation`` (those
bytes equal the ledger's, per category), ``query_resolution`` (one query
row per replayed query, matching its outcome), ``walk_budget`` (walk
queries and walk deliveries within their effective budgets),
``confirmation_discipline`` (a query's confirmation bytes explained by its
confirm counts, at most two rounds of ``MAX_CONFIRMATIONS``),
``bloom_fp_rate`` (the measured Bloom false-positive rate under a sane
ceiling) and ``churn_consistency`` (live counts a +/-1 walk).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.asap.protocol import MAX_CONFIRMATIONS
from repro.obs.actions import (
    AD_TYPES, CATEGORIES, CHURN, CONFIRM_COUNTS, CONTENT, DELIVERY, EXCHANGE,
    KINDS, QUERY, REPAIR, TRACE_SCHEMA_VERSION, ActionLog,
)
from repro.obs.telemetry import digest
from repro.search.base import CONFIRMATION_REPLY_BYTES, CONFIRMATION_REQUEST_BYTES
from repro.search.random_walk import WALKERS
from repro.sim.metrics import TrafficCategory

__all__ = [
    "AD_TYPE_CATEGORY", "AuditReport", "AuditViolation", "audit",
    "category_bytes", "fingerprint", "summary",
]

#: Ad type (``Ad.ad_type.value``) -> ledger category (``TrafficCategory.value``).
AD_TYPE_CATEGORY = {"full": "full_ad", "patch": "patch_ad", "refresh": "refresh_ad"}

#: Conservation tolerance: tables and ledger sum the same floats in a
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

_COLUMN = {cat: i for i, cat in enumerate(CATEGORIES)}


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


def _close(a, b):
    """Elementwise: ``a`` and ``b`` agree within the byte tolerance."""
    return np.abs(a - b) <= np.maximum(_REL_TOL * np.maximum(np.abs(a), np.abs(b)), _ABS_TOL_BYTES)


def _top(rows: np.ndarray) -> np.ndarray:
    return rows[rows["parent"] == 0]


def _span_ids(log: ActionLog) -> np.ndarray:
    sequence = log.sequence()
    return sequence["id"][sequence["kind"] == QUERY]


def category_bytes(log: ActionLog) -> Dict[str, float]:
    """Per-category byte totals derived purely from the tables, in
    :class:`~repro.sim.metrics.TrafficCategory` order, for every category
    a row moved."""
    deltas = log.table(QUERY)["ledger_delta"]
    totals, moved = deltas.sum(axis=0), (deltas != 0.0).any(axis=0)

    def book(category: TrafficCategory, nbytes: np.ndarray) -> None:
        if len(nbytes):
            totals[_COLUMN[category]] += nbytes.sum()
            moved[_COLUMN[category]] = True

    deliveries = _top(log.table(DELIVERY))
    for code, ad_type in enumerate(AD_TYPES):
        book(TrafficCategory(AD_TYPE_CATEGORY[ad_type]),
             deliveries["bytes"][deliveries["ad_type"] == code])
    repairs = _top(log.table(REPAIR))
    book(TrafficCategory.ADS_REQUEST, repairs["request_bytes"])
    for column, category in enumerate(CATEGORIES):
        book(category, repairs["reply_bytes"][repairs["reply_category"] == column])
    exchanges = _top(log.table(EXCHANGE))
    book(TrafficCategory.ADS_REQUEST, exchanges["request_bytes"])
    book(TrafficCategory.ADS_REPLY, exchanges["cost_bytes"] - exchanges["request_bytes"])
    return {cat.value: float(totals[i]) for i, cat in enumerate(CATEGORIES) if moved[i]}


def summary(log: ActionLog) -> Dict[str, Any]:
    """The JSON-ready lifecycle summary ``report analyze`` prints."""
    queries, deliveries = log.table(QUERY), log.table(DELIVERY)
    success, local = queries["success"], queries["local_hit"]
    # The gap between successive deliveries of one source's ad bounds how
    # stale a cached copy can get before the next one reaches its consumers.
    order = np.lexsort((deliveries["t"], deliveries["source"]))
    source, t = deliveries["source"][order], deliveries["t"][order]
    churn, content = log.table(CHURN), log.table(CONTENT)
    confirmed = queries["confirm_id"] != 0
    names = {
        "join": churn["joined"], "leave": ~churn["joined"],
        "content_add": content["added"], "content_remove": ~content["added"],
    }
    schemas = log.schemas or {TRACE_SCHEMA_VERSION: log.n_records()}
    return {
        "queries": len(queries),
        "resolution": {
            "hit": int(np.count_nonzero(success & ~local)),
            "local": int(np.count_nonzero(local)),
            "miss": int(np.count_nonzero(~success & ~local)),
        },
        "hops": digest(queries["messages"]),
        "response_time_ms": digest(queries["response_time_ms"][success]),
        "category_bytes": category_bytes(log),
        "deliveries": {
            "count": len(deliveries),
            "by_type": {
                ad_type: int(np.count_nonzero(deliveries["ad_type"] == code))
                for code, ad_type in enumerate(AD_TYPES)
            },
            "staleness_window_s": digest((t[1:] - t[:-1])[source[1:] == source[:-1]]),
        },
        "exchanges": {
            "repairs": len(log.table(REPAIR)),
            "ads_requests": len(log.table(EXCHANGE)),
        },
        "confirmations": dict(zip(
            CONFIRM_COUNTS, queries["confirm"][confirmed].sum(axis=0).tolist()
        )) if confirmed.any() else {},
        "churn": {
            name: int(np.count_nonzero(rows)) for name, rows in names.items() if rows.any()
        },
        "schema_versions": {str(k): v for k, v in sorted(schemas.items())},
    }


# ------------------------------------------------------------------ audit
def fingerprint(log: ActionLog, result) -> str:
    """blake2b over the tables (wall clock excluded) and ``result``'s
    totals: record ids, nesting, simulation times, every column, ledger
    totals and outcome counts are covered."""
    h = hashlib.blake2b(log.sequence().tobytes(), digest_size=16)
    for kind in range(len(KINDS)):
        rows = log.table(kind)
        if kind == QUERY:
            rows = rows.copy()
            rows["dur_s"] = 0.0
        h.update(rows.tobytes())
    h.update(json.dumps(
        {
            "algorithm": result.algorithm,
            "topology": result.topology,
            "n_queries": len(result.outcomes),
            "successes": sum(1 for o in result.outcomes if o.success),
            "ledger": {c.value: b for c, b in result.ledger.category_totals().items()},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode())
    return h.hexdigest()


def audit(log: ActionLog, config, result) -> AuditReport:
    """Audit the run ``log`` recorded against its RunResult; ``config`` (its
    :class:`~repro.simulation.config.RunConfig`) names the budgets and
    whether the ASAP-only checks apply."""
    asap = config.is_asap
    findings = {
        "ledger_conservation": _conservation(log, result),
        "query_resolution": _query_resolution(log, result),
        "walk_budget": _walk_budget(log, config),
        "confirmation_discipline": _confirmations(log, config) if asap else None,
        "bloom_fp_rate": _bloom_fp_rate(log) if asap else None,
        "churn_consistency": _churn(log),
    }
    return AuditReport(
        checks={
            name: "skipped" if found is None else "fail" if found else "pass"
            for name, found in findings.items()
        },
        violations=[v for found in findings.values() if found for v in found],
        fingerprint=fingerprint(log, result),
    )


def _conservation(log: ActionLog, result) -> List[AuditViolation]:
    traced = category_bytes(log)
    recorded = {c.value: b for c, b in result.ledger.category_totals().items()}
    found = []
    for cat in sorted(set(traced) | set(recorded)):
        a, b = traced.get(cat, 0.0), recorded.get(cat, 0.0)
        if not _close(a, b):
            found.append(AuditViolation(
                "ledger_conservation",
                f"category {cat!r}: trace-derived {a:.1f} B != ledger {b:.1f} B "
                f"(delta {b - a:+.1f} B)",
                {"category": cat, "trace_bytes": a, "ledger_bytes": b},
            ))
    return found


def _query_resolution(log: ActionLog, result) -> List[AuditViolation]:
    outcomes, queries = result.outcomes, log.table(QUERY)
    if len(queries) != len(outcomes):
        return [AuditViolation(
            "query_resolution",
            f"{len(outcomes)} queries replayed but {len(queries)} query spans in "
            "the trace -- a query was resolved zero or multiple times",
            {"outcomes": len(outcomes), "spans": len(queries)},
        )]
    collected = np.array(
        [(o.success, o.messages, o.cost_bytes, o.results) for o in outcomes],
        dtype=[("success", "?"), ("messages", "i8"), ("cost_bytes", "f8"), ("results", "i8")],
    )
    differs = {
        name: ~_close(queries[name], collected[name]) if name == "cost_bytes"
        else queries[name] != collected[name]
        for name in collected.dtype.names
    }
    span_ids = _span_ids(log)
    found = []
    for i in np.flatnonzero(np.logical_or.reduce(list(differs.values()))).tolist():
        mismatches = {
            name: [queries[name][i].item(), collected[name][i].item()]
            for name, mask in differs.items() if mask[i]
        }
        found.append(AuditViolation(
            "query_resolution",
            f"query #{i} (span {span_ids[i]}): trace annotation disagrees with "
            f"the collected outcome on {sorted(mismatches)}",
            {"index": i, "span_id": int(span_ids[i]), **mismatches},
        ))
    return found


def _walk_budget(log: ActionLog, config) -> List[AuditViolation]:
    found = []
    cap = None  # per query, +1 for the direct reply
    if config.algorithm == "random_walk":
        cap = WALKERS * config.rw_ttl + 1
    elif config.algorithm == "gsa":
        cap = WALKERS * max(1, config.gsa_budget // WALKERS) + 1
    if cap is not None:
        messages, span_ids = log.table(QUERY)["messages"], _span_ids(log)
        for i in np.flatnonzero(messages > cap).tolist():
            found.append(AuditViolation(
                "walk_budget",
                f"query span {span_ids[i]} sent {messages[i]} messages, "
                f"exceeding the walk budget of {cap}",
                {"span_id": int(span_ids[i]), "messages": int(messages[i]), "budget": cap},
            ))
    deliveries = log.table(DELIVERY)
    budget = deliveries["budget"]
    for row in deliveries[(budget >= 0) & (deliveries["messages"] > budget)].tolist():
        _, t, _, source, ad_type, _, _, messages, _, cap = row
        found.append(AuditViolation(
            "walk_budget",
            f"{AD_TYPES[ad_type]} ad delivery from source {source} at t={t:.1f} "
            f"sent {messages} messages, exceeding its effective budget of {cap}",
            {"source": source, "t": t, "messages": messages, "budget": cap},
        ))
    return found


def _confirmations(log: ActionLog, config) -> List[AuditViolation]:
    queries = log.table(QUERY)
    counts = dict(zip(CONFIRM_COUNTS, queries["confirm"].T))
    attempted, dead = counts["attempted"], counts["failed_dead"]
    resolved = sum(counts[name] for name in CONFIRM_COUNTS[1:])
    unresolved = attempted != resolved
    over_cap = ~unresolved & (attempted > 2 * MAX_CONFIRMATIONS)  # two rounds
    observed = queries["ledger_delta"][:, _COLUMN[TrafficCategory.CONFIRMATION]]
    expected = (attempted * float(CONFIRMATION_REQUEST_BYTES)
                + (attempted - dead) * float(CONFIRMATION_REPLY_BYTES))
    # Super-peer leaf routing charges its extra leaf<->super hop to the
    # confirmation category, so the byte tie-in only holds for the flat
    # protocol.
    unexplained = ~unresolved & ~_close(expected, observed) & (not config.is_superpeer)
    span_ids, found = _span_ids(log), []
    for i in np.flatnonzero(unresolved | over_cap | unexplained).tolist():
        span_id = int(span_ids[i])
        stats = {name: int(c[i]) for name, c in counts.items()} if queries["confirm_id"][i] else {}
        if unresolved[i]:
            found.append(AuditViolation(
                "confirmation_discipline",
                f"query span {span_id}: {attempted[i]} confirmation attempts but "
                f"{resolved[i]} classified outcomes",
                {"span_id": span_id, **stats},
            ))
        if over_cap[i]:
            found.append(AuditViolation(
                "confirmation_discipline",
                f"query span {span_id} attempted {attempted[i]} confirmations, "
                f"above the two-round cap of {2 * MAX_CONFIRMATIONS}",
                {"span_id": span_id, "attempted": int(attempted[i]),
                 "cap": 2 * MAX_CONFIRMATIONS},
            ))
        if unexplained[i]:
            found.append(AuditViolation(
                "confirmation_discipline",
                f"query span {span_id}: {observed[i]:.1f} confirmation bytes moved "
                f"but the confirm accounting explains {expected[i]:.1f} B -- "
                "confirmation traffic without a cached ad",
                {"span_id": span_id, "observed_bytes": float(observed[i]),
                 "expected_bytes": float(expected[i]), **stats},
            ))
    return found


def _bloom_fp_rate(log: ActionLog) -> Optional[List[AuditViolation]]:
    totals = dict(zip(CONFIRM_COUNTS, log.table(QUERY)["confirm"].sum(axis=0).tolist()))
    live_attempts = totals["attempted"] - totals["failed_dead"]
    if live_attempts < _BLOOM_MIN_SAMPLES:
        return None
    from repro.bloom.hashing import PAPER_K, min_false_positive_rate

    measured = totals["failed_bloom_fp"] / live_attempts
    configured_min = min_false_positive_rate(PAPER_K)
    if measured <= _BLOOM_MAX_RATE:
        return []
    return [AuditViolation(
        "bloom_fp_rate",
        f"measured Bloom false-positive rate {measured:.1%} over {live_attempts} "
        f"live confirmations exceeds the {_BLOOM_MAX_RATE:.0%} ceiling "
        f"(configured minimum is {configured_min:.2%})",
        {"measured_rate": measured, "configured_min_rate": configured_min,
         "ceiling": _BLOOM_MAX_RATE, "live_attempts": live_attempts,
         "bloom_fp_failures": totals["failed_bloom_fp"]},
    )]


def _churn(log: ActionLog) -> List[AuditViolation]:
    churn = log.table(CHURN)
    live = churn["live"]
    expected = live[:-1] + np.where(churn["joined"][1:], 1, -1)
    found = []
    for i in np.flatnonzero(live[1:] != expected).tolist():
        t, node, joined, reported = churn[i + 1].tolist()
        kind = "join" if joined else "leave"
        found.append(AuditViolation(
            "churn_consistency",
            f"{kind} of node {node} at t={t:.1f} reports {reported} live peers; "
            f"expected {expected[i]} after {live[i]}",
            {"t": t, "node": node, "kind": kind, "live": reported,
             "expected": int(expected[i])},
        ))
    return found
