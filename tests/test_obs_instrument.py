"""The instrumentation seam: each action reaches exactly the sinks that want
it, with the numbers the host computed, and a run holds only the sinks it
asked for.  An action's row is read back through its rendered record."""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.simulation.runner as runner_module
from repro.asap.ads import Ad, AdType
from repro.asap.delivery import DeliveryReport
from repro.obs import TRACE_RECORDS, ActionLog, Instrumentation
from repro.obs import actions as actions_module
from repro.search.base import SearchOutcome
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.simulation.runner import run_experiment

from tests.test_golden_fingerprints import CONFIGS


class FakeTelemetry:
    """Records every ``record_*`` call as ``(name, args)``."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        if not name.startswith("record_"):
            raise AttributeError(name)
        return lambda *args: self.calls.append((name[len("record_"):], args))


class FakeProfiler:
    def __init__(self):
        self.calls = []

    def event_begin(self, event):
        self.calls.append(("begin", event.name))

    def event_end(self, event):
        self.calls.append(("end", event.name))


def _sinks():
    """An action log and a telemetry."""
    return ActionLog(), FakeTelemetry()


def _records(log):
    return [
        (r["kind"], r["cat"], r["name"], r["t"], r["attrs"])
        for r in actions_module.records(log)
    ]


# ------------------------------------------------------------------ actions
def test_engine_dispatch_reaches_profiler_then_telemetry():
    telemetry, profiler = FakeTelemetry(), FakeProfiler()
    obs = Instrumentation(telemetry=telemetry, profiler=profiler)
    event = SimpleNamespace(name="refresh-7", time=12.5)
    obs.event_begin(event)
    assert telemetry.calls == []
    obs.event_end(event)
    assert profiler.calls == [("begin", "refresh-7"), ("end", "refresh-7")]
    assert telemetry.calls == [("engine_event", (12.5,))]
    # No sink, no work -- and no row for a dispatch, ever.
    log = ActionLog()
    Instrumentation(log).event_end(event)
    assert log.n_records() == 0


class _OneShotSearch:
    """The slice of a SearchAlgorithm ``Instrumentation.query`` touches."""

    name = "toy"

    def __init__(self, outcome, obs=None):
        self.ledger = BandwidthLedger()
        self.outcome = outcome
        self.obs = obs

    def _search_impl(self, requester, terms, now):
        self.ledger.record(now, TrafficCategory.QUERY, 300.0, messages=3)
        if self.obs is not None:
            self.obs.confirm_stats(now)
        return self.outcome


def test_query_wraps_the_search_in_a_span_and_counts_the_outcome():
    log, telemetry = _sinks()
    obs = Instrumentation(log, telemetry)
    outcome = SearchOutcome(True, 42.0, 3, 300.0, 1)
    search = _OneShotSearch(outcome, obs)
    assert obs.query(search, np.int64(5), ("a", "b"), 9.0) is outcome
    stats, span = actions_module.records(log)
    assert (stats["cat"], stats["name"], stats["parent"]) == (
        "query", "confirm_stats", span["id"],
    )
    assert (span["kind"], span["cat"], span["name"], span["t"]) == (
        "span", "query", "toy", 9.0,
    )
    assert span["attrs"] == {
        "requester": 5, "terms": 2, "success": True, "messages": 3,
        "cost_bytes": 300.0, "results": 1, "local_hit": False,
        "response_time_ms": 42.0, "ledger_delta": {"query": 300.0},
    }
    # Telemetry reads queries from the run's outcomes, never from the seam.
    assert telemetry.calls == []


def test_query_without_a_tracer_only_counts():
    """Without a log the seam only runs the search: nothing per query is
    charged anywhere."""
    telemetry = FakeTelemetry()
    outcome = SearchOutcome(False, float("inf"), 3, 300.0, 0)
    search = _OneShotSearch(outcome)
    assert Instrumentation(telemetry=telemetry).query(search, 5, ("a",), 9.0) is outcome
    assert telemetry.calls == []


def test_query_traffic_charges_requester_then_each_responder_and_link():
    log, telemetry = _sinks()
    obs = Instrumentation(log, telemetry)
    obs.query_traffic(1.0, 7, 900, [(3, 160), (4, 80)])
    assert telemetry.calls == [
        ("peer_bytes", (1.0, 7, 900)),
        ("peer_bytes", (1.0, 3, 160)),
        ("peer_bytes", (1.0, 4, 80)),
    ]
    telemetry.calls.clear()
    obs.query_traffic(2.0, 7, 500, [(3, 80)], direct=True)
    assert telemetry.calls == [
        ("peer_bytes", (2.0, 7, 500)),
        ("peer_bytes", (2.0, 3, 80)),
        ("link", (2.0, 3, 7, 80)),
    ]
    assert log.n_records() == 0  # the query row already carries the cost


def test_confirmations_are_classified_for_the_tracer_and_charged_to_telemetry():
    log, telemetry = _sinks()
    obs = Instrumentation(log, telemetry)
    search = _OneShotSearch(SearchOutcome(True, 1.0, 3, 300.0, 1))
    classified = []

    def classify(source):
        classified.append(source)
        return "failed_split"

    def confirm(requester, terms, now):
        obs.confirmation(3.0, 1, np.int64(8), 160, "confirmed")
        obs.confirmation(3.0, 1, 9, 80, "failed_dead")
        obs.confirmation(3.0, 1, 10, 160, classify)
        assert classified == [10]
        assert log.n_records() == 0  # counted, not yet written
        obs.confirm_stats(now)
        return search.outcome

    search._search_impl = confirm
    obs.query(search, 1, ("a",), 3.0)
    assert _records(log)[0] == (
        "event", "query", "confirm_stats", 3.0, {
            "attempted": 3, "confirmed": 1, "failed_dead": 1,
            "failed_bloom_fp": 0, "failed_split": 1,
        }
    )
    assert telemetry.calls == [
        ("confirmation", (3.0, 1, 8, 160)),
        ("confirmation", (3.0, 1, 9, 80)),
        ("confirmation", (3.0, 1, 10, 160)),
    ]
    # The counters restart with the next search; zero attempts still report.
    search._search_impl = lambda requester, terms, now: (
        obs.confirm_stats(now), search.outcome
    )[1]
    obs.query(search, 1, ("a",), 4.0)
    assert _records(log)[-2][4]["attempted"] == 0


def test_failure_cause_is_not_evaluated_without_a_tracer():
    telemetry = FakeTelemetry()
    obs = Instrumentation(telemetry=telemetry)

    def classify(source):
        raise AssertionError("classify_failure walks every document")

    obs.confirmation(3.0, 1, 10, 160, classify)
    obs.confirm_stats(3.0)
    assert telemetry.calls == [("confirmation", (3.0, 1, 10, 160))]


def _delivery(n_messages=3):
    ad = Ad(source=4, ad_type=AdType.REFRESH, topics=frozenset({1, 2}), version=3)
    report = DeliveryReport(np.array([5, 6]), n_messages, float(24 * n_messages))
    return ad, report


def test_ad_delivered_books_telemetry_where_the_ledger_booked_the_messages():
    log, telemetry = _sinks()
    ad, report = _delivery()
    Instrumentation(log, telemetry).ad_delivered("rw", ad, 10.2, report, 11, 5)
    # The ledger's first second + 0.5 with the report's bytes, not ``now``.
    assert telemetry.calls == [("delivery", (11.5, 4, 72.0))]
    assert _records(log) == [
        ("event", "ad", "deliver.rw", 10.2, {
            "source": 4, "ad_type": "refresh", "topics": 2, "visited": 2,
            "messages": 3, "bytes": 72.0, "budget": 5,
        })
    ]


def test_a_delivery_that_sent_nothing_is_traced_but_not_charged():
    log, telemetry = _sinks()
    ad, report = _delivery(n_messages=0)
    Instrumentation(log, telemetry).ad_delivered("fld", ad, 10.2, report, 0, None)
    assert telemetry.calls == []
    (record,) = _records(log)
    assert record[2] == "deliver.fld" and record[4]["budget"] is None


def test_ads_exchange_charges_each_neighbour_and_counts_distinct_sources():
    log, telemetry = _sinks()
    served = [
        (np.int64(2), 400.0, np.array([7, 8])),
        (3, 100.0, np.array([], dtype=np.int64)),
        (5, 250.0, np.array([8, 9])),
    ]
    Instrumentation(log, telemetry).ads_exchange(
        6.0, np.int64(1), "bootstrap", served, 6, 750.0, 180.0
    )
    assert telemetry.calls == [
        ("ads_request", (6.0, 2, 400.0)),
        ("ads_request", (6.0, 3, 100.0)),
        ("ads_request", (6.0, 5, 250.0)),
    ]
    assert _records(log) == [
        ("event", "ad", "ads_request", 6.0, {
            "node": 1, "scope": "bootstrap", "neighbors": 3, "new_sources": 3,
            "messages": 6, "cost_bytes": 750.0, "request_bytes": 180.0,
            "reply_bytes": 570.0,
        })
    ]


def test_repair_reaches_both_sinks_with_the_byte_split():
    log, telemetry = _sinks()
    Instrumentation(log, telemetry).repairs(
        8.0, [np.int64(2), 5], np.int64(9), 60.0, [44, 30.0],
        [TrafficCategory.PATCH_AD, TrafficCategory.FULL_AD],
    )
    assert telemetry.calls == [("repair", (8.0, 9, 104.0)), ("repair", (8.0, 9, 90.0))]
    assert _records(log) == [
        ("event", "ad", "repair", 8.0, {
            "node": 2, "source": 9, "request_bytes": 60.0,
            "reply_bytes": 44.0, "reply_category": "patch_ad",
        }),
        ("event", "ad", "repair", 8.0, {
            "node": 5, "source": 9, "request_bytes": 60.0,
            "reply_bytes": 30.0, "reply_category": "full_ad",
        }),
    ]
    assert log.sequence()["id"].tolist() == [1, 2]


def test_a_repair_that_gets_no_reply_still_reaches_both_sinks():
    log, telemetry = _sinks()
    Instrumentation(log, telemetry).repairs(8.0, [2], 9, 60.0, [0.0], [None])
    assert telemetry.calls == [("repair", (8.0, 9, 60.0))]
    assert _records(log)[0][4]["reply_category"] is None


def test_telemetry_counts_every_repair_the_trace_records():
    """The cell where sources stop sharing between a patch and its repairs:
    the window table's ``repairs`` used to skip the pulls that got no reply
    (four of them here)."""
    result = run_experiment(
        CONFIGS["asap_rw/seed0/default_churn/content_change_x3"],
        audit=True, telemetry=True,
    )
    repairs = [r for r in actions_module.records(result.actions) if r["name"] == "repair"]
    unanswered = [r for r in repairs if r["attrs"]["reply_category"] is None]
    assert len(repairs) == 562 and len(unanswered) == 4
    windows = result.telemetry["windows"].values()
    assert sum(w["repairs"] for w in windows) == len(repairs)


def test_churn_and_content_change():
    log, telemetry = _sinks()
    obs = Instrumentation(log, telemetry)
    obs.churn(5.0, np.int64(3), True, 99)
    obs.churn(6.0, 3, False, 98)
    obs.content_changed(7.0, np.int64(3), np.int64(41), False)
    assert telemetry.calls == [("churn", (5.0, True)), ("churn", (6.0, False))]
    assert _records(log) == [
        ("event", "churn", "join", 5.0, {"node": 3, "live": 99}),
        ("event", "churn", "leave", 6.0, {"node": 3, "live": 98}),
        ("event", "churn", "content_remove", 7.0, {"node": 3, "doc_id": 41}),
    ]


def test_every_action_is_a_no_op_without_sinks():
    obs = Instrumentation()
    ad, report = _delivery()
    obs.query_traffic(1.0, 1, 10)
    obs.confirmation(1.0, 1, 2, 80, "confirmed")
    obs.confirm_stats(1.0)
    obs.ad_delivered("rw", ad, 1.0, report, 1, 5)
    obs.ads_exchange(1.0, 1, "query", [], 0, 0.0, 0.0)
    obs.repairs(1.0, [1], 2, 60.0, [0.0], [None])
    obs.churn(1.0, 1, True, 5)
    obs.content_changed(1.0, 1, 2, True)


# --------------------------------------------------------------- whole runs
@pytest.fixture
def built_algorithms(monkeypatch):
    built = []
    build = runner_module.build_algorithm

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner_module, "build_algorithm", capture)
    return built


def test_profile_only_run_leaves_the_algorithm_unobserved(built_algorithms):
    result = run_experiment(CONFIGS["asap_rw/seed0/default_churn"], profile=True)
    (algorithm,) = built_algorithms
    assert algorithm.obs is None and algorithm.forwarder.obs is None
    assert result.profile.events == result.profile.engine_events > 0


def test_observed_run_shares_one_instrumentation(built_algorithms):
    run_experiment(CONFIGS["asap_rw/seed0/default_churn"], telemetry=True)
    (algorithm,) = built_algorithms
    assert isinstance(algorithm.obs, Instrumentation)
    assert algorithm.forwarder.obs is algorithm.obs
    assert algorithm.obs.log is None and algorithm.obs.profiler is None


def test_telemetry_run_never_builds_a_trace_record(monkeypatch):
    def no_records(self, *args, **kwargs):
        raise AssertionError("a telemetry-only run appended a row")

    monkeypatch.setattr(ActionLog, "add", no_records)
    monkeypatch.setattr(ActionLog, "take_id", no_records)
    result = run_experiment(
        CONFIGS["asap_rw/seed0/default_churn/content_change_x3"], telemetry=True
    )
    assert result.telemetry["totals"]["queries"] == len(result.outcomes)


# ------------------------------------------------------- the record catalogue
def _emitted(name, tmp_path):
    path = tmp_path / "trace.jsonl"
    run_experiment(CONFIGS[name], trace_path=path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {
        (r["cat"], "<algorithm>" if r["kind"] == "span" else r["name"])
        for r in records
    }


def test_traced_runs_emit_exactly_the_declared_records(tmp_path):
    emitted = set()
    for name in (
        "asap_rw/seed0/default_churn/content_change_x3",
        "asap_fld/seed0/heavy_churn",
        "asap_gsa/seed0/default_churn",
        "flooding/seed0/default_churn",
    ):
        emitted |= _emitted(name, tmp_path)
    assert emitted == TRACE_RECORDS


def test_observability_doc_lists_exactly_the_declared_records():
    """docs/OBSERVABILITY.md's record table is the seam's catalogue: every
    back-quoted name in a row's last column, under the row's category."""
    doc = (Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md").read_text()
    table = doc[doc.index("| category |"):]
    table = table[: table.index("\n\n")]
    documented = set()
    for row in table.splitlines()[2:]:
        cells = [c.strip() for c in row.strip("|").split("|")]
        category = cells[0].strip("`")
        documented |= {(category, name) for name in re.findall(r"`([^`]+)`", cells[-1])}
    assert documented == TRACE_RECORDS
