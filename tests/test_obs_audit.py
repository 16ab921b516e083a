"""Invariant auditor: clean runs pass, injected faults fire the right check
exactly as the streaming fold of ``tests/oracles/trace_fold.py`` reports
them, fingerprints are deterministic, and an audited run builds no trace
record."""

import json

import pytest

from repro.obs import actions as actions_module
from repro.obs.actions import parse_lines, render_lines
from repro.obs.audit import AuditViolation, audit, fingerprint
from repro.search.random_walk import WALKERS
from repro.sim.metrics import TrafficCategory
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment

from tests.oracles.trace_fold import TraceFold, TraceRecord

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
    """An audited run and its rendered records, as JSON dicts."""
    result = run_experiment(config, audit=True)
    return [json.loads(line) for line in render_lines(result.actions)], result


def _log(records):
    return parse_lines(json.dumps(r) for r in records)


def audit_run(records, result, config):
    """Audit ``result`` against the tables ``records`` parse into; the
    oracle fold fed the same records must report the same checks and
    violations."""
    report = audit(_log(records), config, result)
    oracle = TraceFold(
        config, [TraceRecord.from_json(json.dumps(r)) for r in records]
    ).audit(result)
    assert report.checks == oracle.checks
    assert [v.to_dict() for v in report.violations] == [
        v.to_dict() for v in oracle.violations
    ]
    return report


def run_fingerprint(records, result):
    return fingerprint(_log(records), result)


def _tamper(records, match, **attrs):
    """``records`` with the first one ``match`` accepts given ``attrs``."""
    out, done = [], False
    for r in records:
        if not done and match(r):
            r = dict(r, attrs=dict(r["attrs"], **attrs))
            done = True
        out.append(r)
    assert done, "no record to tamper with"
    return out


def _is_span(r):
    return r["cat"] == "query" and r["kind"] == "span"


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
    """The records a run's tables render, parsed back, give the report the
    live tables gave, check order, violations and fingerprint included."""
    config, records, result = asap_run
    assert audit_run(records, result, config).to_dict() == result.audit.to_dict()


def test_audit_keeps_no_trace_records(monkeypatch):
    """An audited run builds no trace record: records exist only when the
    tables are rendered."""
    def no_record(*args, **kwargs):
        raise AssertionError("an audited run built a trace record")

    monkeypatch.setattr(actions_module, "_record", no_record)
    result = run_experiment(_cfg("asap_rw", seed=1), audit=True)
    assert result.audit.ok and len(result.actions.sequence()) > 0


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
    first = next(r for r in records if _is_span(r))
    report = audit_run([r for r in records if r is not first], result, config)
    assert report.checks["query_resolution"] == "fail"
    assert any("resolved" in v.message for v in report.violations
               if v.check == "query_resolution")


def test_mismatched_outcome_annotation_fires_resolution(asap_run):
    config, records, result = asap_run
    first = next(r for r in records if _is_span(r))
    tampered = _tamper(records, _is_span, messages=first["attrs"]["messages"] + 7)
    report = audit_run(tampered, result, config)
    assert report.checks["query_resolution"] == "fail"


def test_exceeded_walk_budget_fires(asap_run):
    config, records, result = asap_run

    def budgeted(r):
        return r["name"].startswith("deliver.") and r["attrs"]["budget"] is not None

    budget = next(r for r in records if budgeted(r))["attrs"]["budget"]
    report = audit_run(_tamper(records, budgeted, messages=budget + 1), result, config)
    assert report.checks["walk_budget"] == "fail"
    # Messages are not bytes, so only the budget check fires.
    assert {v.check for v in report.violations} == {"walk_budget"}


def test_per_query_walk_cap_fires_for_random_walk():
    config = _cfg("random_walk", seed=2)
    records, result = _traced_run(config)
    assert result.audit.ok
    cap = WALKERS * config.rw_ttl + 1
    tampered = [
        dict(r, attrs=dict(r["attrs"], messages=cap + 1)) if _is_span(r) else r
        for r in records
    ]
    report = audit_run(tampered, result, config)
    assert report.checks["walk_budget"] == "fail"


def test_tampered_churn_live_count_fires(asap_run):
    config, records, result = asap_run

    def churn(r):
        return r["name"] in ("join", "leave")

    live = next(r for r in records if churn(r))["attrs"]["live"]
    report = audit_run(_tamper(records, churn, live=live + 5), result, config)
    assert report.checks["churn_consistency"] == "fail"


def test_excessive_bloom_fp_rate_fires(asap_run):
    config, records, result = asap_run
    # Every confirm_stats reports a 50% FP rate over a large sample (keeps
    # attempted == classified so only the FP ceiling fires, not the
    # per-query discipline arithmetic).
    burst = {"attempted": 10, "confirmed": 5, "failed_dead": 0,
             "failed_bloom_fp": 5, "failed_split": 0}
    tampered = [
        dict(r, attrs=burst) if r["name"] == "confirm_stats" else r for r in records
    ]
    report = audit_run(tampered, result, config)
    assert report.checks["bloom_fp_rate"] == "fail"
    v = next(v for v in report.violations if v.check == "bloom_fp_rate")
    assert v.details["measured_rate"] == pytest.approx(0.5)


def test_unclassified_confirmation_fires(asap_run):
    """A confirm count whose attempts exceed its classified outcomes."""
    config, records, result = asap_run

    def stats(r):
        return r["name"] == "confirm_stats" and r["attrs"]["attempted"]

    attempted = next(r for r in records if stats(r))["attrs"]["attempted"]
    report = audit_run(_tamper(records, stats, attempted=attempted + 1), result, config)
    assert report.checks["confirmation_discipline"] == "fail"
    assert any("classified outcomes" in v.message for v in report.violations)


def test_confirmation_bytes_mismatch_fires(asap_run):
    config, records, result = asap_run
    # Inflate one query span's confirmation delta: traffic without an
    # explaining confirm attempt.

    def confirming(r):
        return _is_span(r) and r["attrs"]["ledger_delta"].get("confirmation")

    delta = dict(next(r for r in records if confirming(r))["attrs"]["ledger_delta"])
    delta["confirmation"] += 777.0
    report = audit_run(_tamper(records, confirming, ledger_delta=delta), result, config)
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
        dict(r, dur_s=(r["dur_s"] or 0.0) + 123.0) if r["kind"] == "span" else r
        for r in records
    ]
    assert run_fingerprint(shifted, result) == run_fingerprint(records, result)
    assert run_fingerprint(records, result) == result.fingerprint


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
