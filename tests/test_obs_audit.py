"""Invariant auditor: clean runs pass, injected faults fire the right check,
fingerprints are deterministic, and the fold keeps no trace record."""

import gc
import itertools
from dataclasses import replace as dc_replace

import pytest

from repro.obs.audit import AuditViolation, TraceFold
from repro.obs.trace import TraceRecord, Tracer
from repro.search.random_walk import WALKERS
from repro.sim.metrics import TrafficCategory
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment

ALGOS = ("flooding", "random_walk", "gsa", "asap_rw")


def _cfg(algorithm, topology="random", seed=0, **kw):
    return scaled_config(
        algorithm,
        topology,
        n_peers=40,
        n_queries=12,
        seed=seed,
        use_physical_network=False,
        **kw,
    )


def _traced_run(config):
    records = []
    result = run_experiment(config, tracer=Tracer(records.append), audit=True)
    return records, result


def audit_run(records, result, config):
    """Feed ``records`` through a fresh fold and audit ``result``."""
    return TraceFold(config, records).audit(result)


def run_fingerprint(records, result):
    return TraceFold(records=records).fingerprint(result)


@pytest.fixture(scope="module")
def asap_run():
    config = _cfg("asap_rw", seed=1)
    records, result = _traced_run(config)
    return config, records, result


# ------------------------------------------------------------- clean passes
@pytest.mark.parametrize("topology", ("random", "powerlaw", "crawled"))
@pytest.mark.parametrize("algorithm", ALGOS)
def test_clean_runs_have_zero_violations(algorithm, topology):
    config = _cfg(algorithm, topology)
    result = run_experiment(config, audit=True)
    assert result.audit is not None
    assert result.audit.ok, result.audit.format_table()
    assert result.fingerprint == result.audit.fingerprint
    assert result.audit.checks["ledger_conservation"] == "pass"
    assert result.audit.checks["query_resolution"] == "pass"


def test_audit_statuses_reflect_applicability(asap_run):
    config, records, result = asap_run
    checks = result.audit.checks
    assert checks["confirmation_discipline"] == "pass"
    assert checks["churn_consistency"] == "pass"
    # Baselines skip the ASAP-only checks.
    flood = run_experiment(_cfg("flooding"), audit=True)
    assert flood.audit.checks["confirmation_discipline"] == "skipped"


def test_refed_trace_reproduces_the_live_report(asap_run):
    """One fold, two feeds: the records a run emitted, fed again, give the
    report the live fold gave, check order and violations included."""
    config, records, result = asap_run
    assert audit_run(records, result, config).to_dict() == result.audit.to_dict()


def test_audit_keeps_no_trace_records():
    """An audited run holds, at its last record, no more trace records than
    its open spans and the record in hand: the fold keeps scalars only."""
    config = _cfg("asap_rw", seed=1)
    n_records = len(_traced_run(config)[0])
    emitted = itertools.count(1)
    at_last = []

    def count_live_records(record):
        if next(emitted) == n_records:
            live = sum(isinstance(o, TraceRecord) for o in gc.get_objects())
            at_last.append((live - baseline, record.depth + 1))

    gc.collect()
    baseline = sum(isinstance(o, TraceRecord) for o in gc.get_objects())
    result = run_experiment(config, tracer=Tracer(count_live_records), audit=True)
    assert result.audit.ok
    ((kept, bound),) = at_last
    assert kept <= bound


# ---------------------------------------------------------- fault injection
def test_corrupted_ledger_fires_conservation():
    config = _cfg("flooding", seed=5)
    records, result = _traced_run(config)
    assert result.audit.ok
    result.ledger.record(1.0, TrafficCategory.QUERY, 5000.0)
    report = audit_run(records, result, config)
    assert report.checks["ledger_conservation"] == "fail"
    assert any(
        v.check == "ledger_conservation" and v.details["category"] == "query"
        for v in report.violations
    )


def test_dropped_query_span_fires_resolution(asap_run):
    config, records, result = asap_run
    spans = [r for r in records
             if r.category == "query" and r.kind == "span"]
    tampered = [r for r in records if r is not spans[0]]
    report = audit_run(tampered, result, config)
    assert report.checks["query_resolution"] == "fail"
    assert any("resolved" in v.message for v in report.violations
               if v.check == "query_resolution")


def test_mismatched_outcome_annotation_fires_resolution(asap_run):
    config, records, result = asap_run
    tampered = []
    flipped = False
    for r in records:
        if not flipped and r.category == "query" and r.kind == "span":
            attrs = dict(r.attrs, messages=int(r.attrs["messages"]) + 7)
            tampered.append(dc_replace(r, attrs=attrs))
            flipped = True
        else:
            tampered.append(r)
    report = audit_run(tampered, result, config)
    assert report.checks["query_resolution"] == "fail"


def test_exceeded_walk_budget_fires(asap_run):
    config, records, result = asap_run
    tampered = []
    bumped = False
    for r in records:
        if (not bumped and r.category == "ad"
                and r.name.startswith("deliver.")
                and r.attrs.get("budget") is not None):
            attrs = dict(r.attrs, messages=int(r.attrs["budget"]) + 1)
            tampered.append(dc_replace(r, attrs=attrs))
            bumped = True
        else:
            tampered.append(r)
    assert bumped, "expected at least one budgeted delivery in an ASAP(RW) run"
    report = audit_run(tampered, result, config)
    assert report.checks["walk_budget"] == "fail"
    # The tampered delivery also breaks byte conservation is irrelevant here:
    # messages are not bytes, so only the budget check fires.
    assert any(v.check == "walk_budget" for v in report.violations)


def test_per_query_walk_cap_fires_for_random_walk():
    config = _cfg("random_walk", seed=2)
    records, result = _traced_run(config)
    assert result.audit.ok
    cap = WALKERS * config.rw_ttl + 1
    tampered = []
    for r in records:
        if r.category == "query" and r.kind == "span":
            attrs = dict(r.attrs, messages=cap + 1)
            tampered.append(dc_replace(r, attrs=attrs))
        else:
            tampered.append(r)
    report = audit_run(tampered, result, config)
    assert report.checks["walk_budget"] == "fail"


def test_tampered_churn_live_count_fires(asap_run):
    config, records, result = asap_run
    tampered = []
    churned = False
    for r in records:
        if (not churned and r.category == "churn"
                and r.name in ("join", "leave") and "live" in r.attrs):
            attrs = dict(r.attrs, live=int(r.attrs["live"]) + 5)
            tampered.append(dc_replace(r, attrs=attrs))
            churned = True
        else:
            tampered.append(r)
    assert churned, "expected churn events in the scaled trace"
    report = audit_run(tampered, result, config)
    assert report.checks["churn_consistency"] == "fail"


def test_excessive_bloom_fp_rate_fires(asap_run):
    config, records, result = asap_run
    # Replace every confirm_stats event with one reporting a 50% FP rate
    # over a large sample (keeps attempted == classified so only the FP
    # ceiling fires, not the per-query discipline arithmetic).
    tampered = []
    for r in records:
        if r.category == "query" and r.name == "confirm_stats":
            tampered.append(dc_replace(r, attrs={
                "attempted": 10, "confirmed": 5, "failed_dead": 0,
                "failed_bloom_fp": 5, "failed_split": 0,
            }))
        else:
            tampered.append(r)
    report = audit_run(tampered, result, config)
    assert report.checks["bloom_fp_rate"] == "fail"
    v = next(v for v in report.violations if v.check == "bloom_fp_rate")
    assert v.details["measured_rate"] == pytest.approx(0.5)


def test_confirmation_bytes_mismatch_fires(asap_run):
    config, records, result = asap_run
    # Inflate one query span's confirmation delta: traffic without an
    # explaining confirm attempt.
    tampered = []
    inflated = False
    for r in records:
        if (not inflated and r.category == "query" and r.kind == "span"
                and r.attrs.get("ledger_delta", {}).get("confirmation")):
            delta = dict(r.attrs["ledger_delta"])
            delta["confirmation"] += 777.0
            tampered.append(
                dc_replace(r, attrs=dict(r.attrs, ledger_delta=delta))
            )
            inflated = True
        else:
            tampered.append(r)
    assert inflated, "expected a confirming query in the ASAP run"
    report = audit_run(tampered, result, config)
    assert report.checks["confirmation_discipline"] == "fail"


# ------------------------------------------------------------- fingerprints
def test_fingerprint_deterministic_across_reruns():
    a = run_experiment(_cfg("asap_rw", seed=3), audit=True)
    b = run_experiment(_cfg("asap_rw", seed=3), audit=True)
    assert a.fingerprint == b.fingerprint
    assert len(a.fingerprint) == 32  # blake2b digest_size=16, hex


def test_fingerprint_changes_with_seed():
    a = run_experiment(_cfg("flooding", seed=3), audit=True)
    b = run_experiment(_cfg("flooding", seed=4), audit=True)
    assert a.fingerprint != b.fingerprint


def test_fingerprint_ignores_wall_clock(asap_run):
    config, records, result = asap_run
    shifted = [
        dc_replace(r, dur_s=(r.dur_s or 0.0) + 123.0) if r.kind == "span" else r
        for r in records
    ]
    assert run_fingerprint(shifted, result) == run_fingerprint(
        records, result
    )


def test_fingerprint_sensitive_to_structure(asap_run):
    config, records, result = asap_run
    assert run_fingerprint(records[:-1], result) != run_fingerprint(
        records, result
    )


# ---------------------------------------------------------------- reporting
def test_report_shapes(asap_run):
    config, records, result = asap_run
    report = result.audit
    data = report.to_dict()
    assert data["ok"] is True
    assert set(data["checks"]) == {
        "ledger_conservation", "query_resolution", "walk_budget",
        "confirmation_discipline", "bloom_fp_rate", "churn_consistency",
    }
    table = report.format_table()
    assert "PASS" in table and report.fingerprint in table
    v = AuditViolation(check="x", message="m", details={"a": 1})
    assert v.to_dict() == {"check": "x", "message": "m", "details": {"a": 1}}
