"""The fold's lifecycle summary (what ``report analyze`` prints) over a
hand-built trace."""

import json

import pytest

from repro.obs.audit import AD_TYPE_CATEGORY, TraceFold
from repro.obs.instrument import TRACE_RECORDS
from repro.obs.trace import Tracer


def _synthetic_trace():
    """A hand-built trace exercising every lifecycle kind, with the seam's
    record names."""
    records = []
    t = Tracer(records.append, clock=lambda: 0.0)
    # Two warm-up full-ad deliveries from the same source, then a patch.
    t.event("ad", "deliver.rw", 1.0, source=5, ad_type="full", topics=3,
            visited=10, messages=12, bytes=1200.0, budget=20)
    t.event("ad", "deliver.rw", 7.0, source=5, ad_type="patch", topics=1,
            visited=4, messages=4, bytes=80.0, budget=20)
    t.event("ad", "deliver.fld", 2.0, source=9, ad_type="full", topics=2,
            visited=6, messages=8, bytes=800.0, budget=None)
    # A unicast repair and a bootstrap ads exchange, both top level.
    t.event("ad", "repair", 3.0, node=4, source=5, request_bytes=16.0,
            reply_bytes=500.0, reply_category="full_ad")
    t.event("ad", "ads_request", 0.5, node=7, request_bytes=32.0,
            reply_bytes=900.0)
    # Query 1: a hit whose span carries a ledger delta and confirm stats.
    with t.span("query", "ASAP(RW)", 10.0, requester=1) as s:
        t.event("query", "confirm_stats", 10.0, attempted=2, confirmed=1,
                failed_dead=1, failed_bloom_fp=0, failed_split=0)
        # Nested ad traffic: must NOT be double counted.
        t.event("ad", "ads_request", 10.0, node=1, request_bytes=16.0,
                reply_bytes=450.0)
        s.annotate(success=True, local_hit=False, messages=3,
                   cost_bytes=96.0, results=1, response_time_ms=40.0,
                   ledger_delta={"confirmation": 96.0, "ads_request": 16.0,
                                 "ads_reply": 450.0})
    # Query 2: a miss.
    with t.span("query", "ASAP(RW)", 20.0, requester=2) as s:
        s.annotate(success=False, local_hit=False, messages=6,
                   cost_bytes=240.0, results=0, response_time_ms=None,
                   ledger_delta={"confirmation": 240.0})
    # Churn walk.
    t.event("churn", "join", 12.0, node=30, live=61)
    t.event("churn", "leave", 14.0, node=8, live=60)
    t.event("churn", "content_add", 15.0, node=2, doc_id=77)
    return records


def _summary():
    return TraceFold(records=_synthetic_trace()).summary()


def test_fixture_records_are_the_seams():
    records = _synthetic_trace()
    written = {
        (r.category, "<algorithm>" if r.kind == "span" else r.name)
        for r in records
    }
    assert written <= TRACE_RECORDS
    spans = [r for r in records if r.kind == "span"]
    assert spans and all(r.category == "query" for r in spans)


def test_query_lifecycles_reconstructed():
    summary = _summary()
    assert summary["queries"] == 2
    assert summary["resolution"] == {"hit": 1, "local": 0, "miss": 1}
    # Query 1's nested confirm_stats reached its span; query 2 had none.
    assert summary["confirmations"] == {"attempted": 2, "confirmed": 1,
                                        "failed_dead": 1, "failed_bloom_fp": 0,
                                        "failed_split": 0}
    assert summary["response_time_ms"]["n"] == 1
    assert summary["response_time_ms"]["max"] == 40.0


def test_ad_lifecycles_and_exchanges():
    summary = _summary()
    assert summary["deliveries"]["count"] == 3
    assert summary["deliveries"]["by_type"] == {"full": 2, "patch": 1, "refresh": 0}
    # Three exchanges in all, the nested one included.
    assert summary["exchanges"] == {"repairs": 1, "ads_requests": 2}


def test_category_bytes_attribution_no_double_count():
    totals = _summary()["category_bytes"]
    # full ads: 1200 (rw) + 800 (fld) + 500 (repair reply).
    assert totals["full_ad"] == pytest.approx(2500.0)
    assert totals["patch_ad"] == pytest.approx(80.0)
    # ads_request: repair req 16 + bootstrap req 32 + in-span delta 16;
    # the nested ads_request event contributes nothing extra.
    assert totals["ads_request"] == pytest.approx(64.0)
    assert totals["ads_reply"] == pytest.approx(900.0 + 450.0)
    assert totals["confirmation"] == pytest.approx(96.0 + 240.0)


def test_staleness_windows_per_source():
    windows = _summary()["deliveries"]["staleness_window_s"]
    # Source 5 delivered at t=1 and t=7 -> one 6s gap; source 9 only once.
    assert windows["n"] == 1
    assert windows["mean"] == pytest.approx(6.0)


def test_churn_and_confirm_reducers():
    summary = _summary()
    assert summary["churn"] == {"join": 1, "leave": 1, "content_add": 1}
    assert summary["confirmations"]["attempted"] == 2
    assert summary["hops"]["max"] == 6.0


def test_to_dict_is_json_ready():
    data = json.loads(json.dumps(_summary()))
    assert data["queries"] == 2
    assert data["deliveries"]["by_type"]["full"] == 2
    assert data["exchanges"]["repairs"] == 1
    assert data["schema_versions"] == {"1": len(_synthetic_trace())}


def test_empty_trace_analyzes_cleanly():
    fold = TraceFold()
    summary = fold.summary()
    assert summary["queries"] == 0
    assert summary["category_bytes"] == {}
    assert summary["hops"] == {"n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "max": 0.0}


def test_ad_type_category_covers_all_ad_types():
    assert set(AD_TYPE_CATEGORY) == {"full", "patch", "refresh"}


def test_trace_category_bytes_direct():
    """Top-level ad events alone: each byte lands in the category the
    attribution rule names, in the order the summary prints them."""
    records = []
    t = Tracer(records.append)
    t.event("ad", "ads_request", 0.5, node=7, request_bytes=32.0, reply_bytes=900.0)
    t.event("ad", "deliver.rw", 1.0, source=5, ad_type="refresh", bytes=40.0)
    t.event("ad", "repair", 3.0, node=4, request_bytes=16.0, reply_bytes=0.0,
            reply_category=None)
    assert list(TraceFold(records=records).category_bytes().items()) == [
        ("refresh_ad", 40.0), ("ads_request", 48.0), ("ads_reply", 900.0),
    ]
