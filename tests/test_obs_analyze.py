"""The lifecycle summary (what ``report analyze`` prints) over a
hand-built trace, parsed into the action tables."""

import json

import pytest

from repro.obs.actions import TRACE_RECORDS, parse_lines
from repro.obs.audit import AD_TYPE_CATEGORY, category_bytes, summary


def _record(kind, cat, name, t, record_id, parent=None, **attrs):
    return {"schema": 1, "kind": kind, "cat": cat, "name": name, "t": t,
            "id": record_id, "parent": parent, "depth": 1 if parent else 0,
            "dur_s": 0.0 if kind == "span" else None, "attrs": attrs}


def _synthetic_trace():
    """A hand-built trace exercising every lifecycle kind, with the seam's
    record names."""
    return [
        # Two warm-up full-ad deliveries from the same source, then a patch.
        _record("event", "ad", "deliver.rw", 1.0, 1, source=5, ad_type="full",
                topics=3, visited=10, messages=12, bytes=1200.0, budget=20),
        _record("event", "ad", "deliver.rw", 7.0, 2, source=5, ad_type="patch",
                topics=1, visited=4, messages=4, bytes=80.0, budget=20),
        _record("event", "ad", "deliver.fld", 2.0, 3, source=9, ad_type="full",
                topics=2, visited=6, messages=8, bytes=800.0, budget=None),
        # A unicast repair and a bootstrap ads exchange, both top level.
        _record("event", "ad", "repair", 3.0, 4, node=4, source=5,
                request_bytes=16.0, reply_bytes=500.0, reply_category="full_ad"),
        _record("event", "ad", "ads_request", 0.5, 5, node=7,
                request_bytes=32.0, reply_bytes=900.0),
        # Query 1: a hit whose span carries a ledger delta and confirm stats,
        # and nested ad traffic that must NOT be double counted.
        _record("event", "query", "confirm_stats", 10.0, 7, parent=6,
                attempted=2, confirmed=1, failed_dead=1, failed_bloom_fp=0,
                failed_split=0),
        _record("event", "ad", "ads_request", 10.0, 8, parent=6, node=1,
                request_bytes=16.0, reply_bytes=450.0),
        _record("span", "query", "ASAP(RW)", 10.0, 6, requester=1,
                success=True, local_hit=False, messages=3, cost_bytes=96.0,
                results=1, response_time_ms=40.0,
                ledger_delta={"confirmation": 96.0, "ads_request": 16.0,
                              "ads_reply": 450.0}),
        # Query 2: a miss.
        _record("span", "query", "ASAP(RW)", 20.0, 9, requester=2,
                success=False, local_hit=False, messages=6, cost_bytes=240.0,
                results=0, response_time_ms=None,
                ledger_delta={"confirmation": 240.0}),
        # Churn walk.
        _record("event", "churn", "join", 12.0, 10, node=30, live=61),
        _record("event", "churn", "leave", 14.0, 11, node=8, live=60),
        _record("event", "churn", "content_add", 15.0, 12, node=2, doc_id=77),
    ]


def _parse(records):
    return parse_lines(json.dumps(r) for r in records)


def _summary():
    return summary(_parse(_synthetic_trace()))


def test_fixture_records_are_the_seams():
    records = _synthetic_trace()
    written = {
        (r["cat"], "<algorithm>" if r["kind"] == "span" else r["name"])
        for r in records
    }
    assert written <= TRACE_RECORDS
    spans = [r for r in records if r["kind"] == "span"]
    assert spans and all(r["cat"] == "query" for r in spans)


def test_query_lifecycles_reconstructed():
    doc = _summary()
    assert doc["queries"] == 2
    assert doc["resolution"] == {"hit": 1, "local": 0, "miss": 1}
    # Query 1's nested confirm_stats reached its span; query 2 had none.
    assert doc["confirmations"] == {"attempted": 2, "confirmed": 1,
                                        "failed_dead": 1, "failed_bloom_fp": 0,
                                        "failed_split": 0}
    assert doc["response_time_ms"]["count"] == 1
    assert doc["response_time_ms"]["max"] == 40.0


def test_ad_lifecycles_and_exchanges():
    doc = _summary()
    assert doc["deliveries"]["count"] == 3
    assert doc["deliveries"]["by_type"] == {"full": 2, "patch": 1, "refresh": 0}
    # Three exchanges in all, the nested one included.
    assert doc["exchanges"] == {"repairs": 1, "ads_requests": 2}


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
    assert windows["count"] == 1
    assert windows["total"] == pytest.approx(6.0)


def test_churn_and_confirm_reducers():
    doc = _summary()
    assert doc["churn"] == {"join": 1, "leave": 1, "content_add": 1}
    assert doc["confirmations"]["attempted"] == 2
    assert doc["hops"]["max"] == 6.0


def test_to_dict_is_json_ready():
    data = json.loads(json.dumps(_summary()))
    assert data["queries"] == 2
    assert data["deliveries"]["by_type"]["full"] == 2
    assert data["exchanges"]["repairs"] == 1
    assert data["schema_versions"] == {"1": len(_synthetic_trace())}


def test_empty_trace_analyzes_cleanly():
    empty = summary(parse_lines([]))
    assert empty["queries"] == 0
    assert empty["category_bytes"] == {}
    assert empty["hops"] == {
        "count": 0, "total": 0.0, "min": None, "max": None,
        "p50": None, "p90": None, "p99": None,
    }


def test_ad_type_category_covers_all_ad_types():
    assert set(AD_TYPE_CATEGORY) == {"full", "patch", "refresh"}


def test_trace_category_bytes_direct():
    """Top-level ad events alone: each byte lands in the category the
    attribution rule names, in traffic-category order."""
    log = _parse([
        _record("event", "ad", "ads_request", 0.5, 1, node=7,
                request_bytes=32.0, reply_bytes=900.0),
        _record("event", "ad", "deliver.rw", 1.0, 2, source=5,
                ad_type="refresh", bytes=40.0),
        _record("event", "ad", "repair", 3.0, 3, node=4, request_bytes=16.0,
                reply_bytes=0.0, reply_category=None),
    ])
    assert list(category_bytes(log).items()) == [
        ("refresh_ad", 40.0), ("ads_request", 48.0), ("ads_reply", 900.0),
    ]
