"""Load telemetry: exact reductions, digests and the per-cell contract.

Every figure of a summary document is an exact function of the charges the
run made: the hot lists, per-window top lists, digests and attributed-peer
count are checked against a dict-based reference accumulator
(``tests/oracles/telemetry.py``) on drawn charge streams and on every
golden telemetry row.  A document describes one cell; a run of several
cells reports the list of their documents in input order, which these
tests pin bit-identical whether the cells ran serially or under
``run_cells --jobs N`` (canonical JSON string equality).
"""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.parallel import run_cells
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TOP_K,
    WINDOW_S,
    Telemetry,
    digest,
    fingerprint,
    format_digests,
    format_hotspots,
    format_window_table,
    load_std_bpns,
    quantile_nearest_rank,
)
from repro.simulation import run_experiment, scaled_config

from tests.oracles.telemetry import DictTelemetry
from tests.test_golden_fingerprints import CONFIGS, OBS_ROWS


def _json(doc):
    """The canonical JSON form :func:`fingerprint` digests."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _tiny(algorithm="asap_rw", seed=0, n_queries=30):
    return scaled_config(
        algorithm,
        "random",
        n_peers=100,
        n_queries=n_queries,
        seed=seed,
        use_physical_network=False,
    )


# --------------------------------------------------------------------------
# quantile_nearest_rank (the shared utility that replaced analyze._percentile)
# --------------------------------------------------------------------------
class TestQuantileNearestRank:
    def test_single_value(self):
        assert quantile_nearest_rank([7.0], 0.5) == 7.0

    def test_median_of_even_count_is_lower_neighbour(self):
        # Nearest-rank (not interpolated): ceil(0.5 * 4) - 1 = index 1.
        assert quantile_nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_extremes(self):
        vals = [1.0, 5.0, 9.0]
        assert quantile_nearest_rank(vals, 0.0) == 1.0
        assert quantile_nearest_rank(vals, 1.0) == 9.0

    @given(
        st.lists(st.floats(0.0, 1e9), min_size=1, max_size=60),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_retired_analyze_percentile(self, values, q):
        """Identical to the formula analyze.py used before the swap."""
        ordered = sorted(values)
        idx = max(0, math.ceil(q * len(ordered)) - 1)  # old _percentile
        assert quantile_nearest_rank(ordered, q) == float(ordered[idx])

    @given(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_result_is_an_input_element(self, values):
        ordered = sorted(values)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert quantile_nearest_rank(ordered, q) in ordered


# --------------------------------------------------------------------------
# digest
# --------------------------------------------------------------------------
class TestDigest:
    def test_empty(self):
        assert digest([]) == {
            "count": 0, "total": 0.0, "min": None, "max": None,
            "p50": None, "p90": None, "p99": None,
        }

    def test_exact_stats_and_nearest_rank_quantiles(self):
        values = [float(v) for v in range(1, 101)]
        assert digest(values) == {
            "count": 100, "total": 5050.0, "min": 1.0, "max": 100.0,
            "p50": 50.0, "p90": 90.0, "p99": 99.0,
        }

    def test_zeros_count(self):
        d = digest([0.0] * 5 + [100.0])
        assert (d["count"], d["p50"], d["p90"], d["max"]) == (6, 0.0, 100.0, 100.0)

    @given(st.lists(st.integers(0, 10**6), max_size=60), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_order_independent_and_json_plain(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert _json(digest(values)) == _json(digest(shuffled))
        assert json.loads(_json(digest(values))) == digest(values)


# --------------------------------------------------------------------------
# Telemetry accumulator
# --------------------------------------------------------------------------
class TestTelemetryAccumulator:
    def test_windowing_by_time(self):
        t = Telemetry()
        t.record_engine_event(1.0)
        t.record_engine_event(9.9)
        t.record_engine_event(10.0)
        summary = t.summary()
        assert summary["windows"]["0"]["engine_events"] == 2
        assert summary["windows"]["1"]["engine_events"] == 1

    def test_summary_freezes_string_keys(self):
        t = Telemetry()
        t.record_peer_bytes(0.0, 7, 100.0)
        t.record_link(0.0, 7, 9, 100.0)
        summary = t.summary()
        # JSON object keys are strings; peers and links are named by ids.
        assert list(summary["windows"]) == ["0"]
        assert summary["hot_peers"] == [[7, 100.0]]
        assert summary["hot_links"] == [[7, 9, 100.0]]
        assert json.loads(_json(summary)) == summary


# --------------------------------------------------------------------------
# Exact reductions against the dict-based oracle
# --------------------------------------------------------------------------
#: Times on, just before and just after window boundaries, and in between.
_TIMES = st.one_of(
    st.integers(0, 6).map(lambda k: k * WINDOW_S),
    st.integers(1, 6).map(lambda k: k * WINDOW_S - 0.25),
    st.floats(0.0, 70.0, allow_nan=False),
)
_NODES = st.integers(0, 11)
#: Whole bytes (as on the wire), 0 B included, few values so ties are common.
_BYTES = st.sampled_from([0.0, 0.0, 1.0, 40.0, 40.0, 160.0, 512.0, 1280.0])
#: Dyadic milliseconds, so every order of summation is exact.
_MS = st.integers(0, 4000).map(lambda v: v / 8)

_CHARGES = st.lists(
    st.one_of(
        st.tuples(st.just("peer"), _TIMES, _NODES, _BYTES),
        st.tuples(st.just("link"), _TIMES, _NODES, _NODES, _BYTES),
        st.tuples(st.just("confirmation"), _TIMES, _NODES, _NODES, _BYTES),
        # Deliveries are booked at the middle of their first second.
        st.tuples(st.just("delivery"), st.integers(0, 70), _NODES, _BYTES),
        st.tuples(st.just("ads_request"), _TIMES, _NODES, _BYTES),
        st.tuples(st.just("repair"), _TIMES, _NODES, _BYTES),
        st.tuples(st.just("query"), _TIMES, st.booleans(), st.booleans(), _MS, _BYTES),
    ),
    max_size=80,
)


def _feed(charges):
    """``(summary, oracle)`` after the same charges went to both; queries
    reach the summary as the run's outcomes and their times."""
    t, ref = Telemetry(), DictTelemetry()
    outcomes, times = [], []
    for kind, *args in charges:
        if kind == "peer":
            t.record_peer_bytes(*args)
            ref.peer(*args)
        elif kind == "link":
            t.record_link(*args)
            ref.link(*args)
        elif kind == "confirmation":
            now, requester, target, nbytes = args
            t.record_confirmation(now, requester, target, nbytes)
            ref.peer(now, target, nbytes)
            ref.link(now, requester, target, nbytes)
        elif kind == "delivery":
            first_second, source, nbytes = args
            t.record_delivery(first_second + 0.5, source, nbytes)
            ref.value("delivery_bytes", nbytes)
            ref.peer(first_second + 0.5, source, nbytes)
        elif kind in ("ads_request", "repair"):
            getattr(t, f"record_{kind}")(*args)
            ref.peer(*args)
        else:
            now, success, local_hit, ms, cost = args
            times.append(now)
            outcomes.append(SimpleNamespace(
                success=success, local_hit=local_hit, response_time_ms=ms, cost_bytes=cost,
            ))
            if success and not local_hit:
                ref.value("response_time_ms", ms)
            ref.value("query_cost_bytes", cost)
    return t.summary(outcomes=outcomes, query_times=times), ref


def _check_against(summary, ref):
    assert summary["hot_peers"] == ref.hot_peers()
    assert summary["hot_links"] == ref.hot_links()
    windows = summary["windows"]
    for kind, tops in (("top_peers", ref.top_peers()), ("top_links", ref.top_links())):
        assert {w: win[kind] for w, win in windows.items() if win[kind]} == {
            w: top for w, top in tops.items() if top
        }
    for name, expected in ref.digests().items():
        assert summary[name] == expected, name
    assert summary["totals"]["attributed_peers"] == ref.attributed_peers()


class TestExactReductions:
    @given(_CHARGES)
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_oracle(self, charges):
        summary, ref = _feed(charges)
        _check_against(summary, ref)
        # A window is listed when a charge of bytes or a counter fell in it.
        charged = set(ref.window_peers) | set(ref.window_links)
        assert {int(w) for w in summary["windows"]} >= charged

    def test_ties_break_by_id_and_zero_bytes_rank_nothing(self):
        summary, ref = _feed(
            [("peer", 0.0, 5, 40.0), ("peer", 1.0, 3, 40.0), ("peer", 2.0, 9, 0.0)]
            + [("link", 0.0, 2, 1, 40.0), ("link", 9.75, 1, 2, 40.0)]
        )
        assert summary["hot_peers"] == [[3, 40.0], [5, 40.0]]
        assert summary["hot_links"] == [[1, 2, 40.0], [2, 1, 40.0]]
        # A node charged only 0 B is attributed and digested, never hot.
        assert summary["totals"]["attributed_peers"] == 3
        assert summary["per_peer_bytes"]["min"] == 0.0
        _check_against(summary, ref)

    def test_top_k_per_window(self):
        charges = [("peer", 10.0 + i / 4, i, float(100 + i)) for i in range(TOP_K + 4)]
        summary, ref = _feed(charges)
        top = summary["windows"]["1"]["top_peers"]
        assert [node for node, _ in top] == list(range(TOP_K + 3, 3, -1))
        _check_against(summary, ref)


@pytest.mark.parametrize("name", OBS_ROWS)
def test_golden_rows_report_exact_hot_lists_and_digests(name, monkeypatch):
    """On every golden telemetry row, every hot list, per-window top list
    and digest equals what the oracle makes of the charges the run fed."""
    ref = DictTelemetry()
    feeds = {
        "record_peer_bytes": lambda t, node, nbytes: ref.peer(t, node, nbytes),
        "record_link": lambda t, src, dst, nbytes: ref.link(t, src, dst, nbytes),
        "record_delivery": lambda t, source, nbytes: ref.value("delivery_bytes", nbytes),
    }
    for method, feed in feeds.items():
        original = getattr(Telemetry, method)

        def wrapped(self, *args, _original=original, _feed=feed):
            _feed(*args)
            return _original(self, *args)

        monkeypatch.setattr(Telemetry, method, wrapped)
    result = run_experiment(CONFIGS[name], telemetry=True)
    for outcome in result.outcomes:
        if outcome.success and not outcome.local_hit:
            ref.value("response_time_ms", outcome.response_time_ms)
        ref.value("query_cost_bytes", outcome.cost_bytes)
    summary = result.telemetry
    assert len(summary["hot_peers"]) == TOP_K
    _check_against(summary, ref)


# --------------------------------------------------------------------------
# Documents: one per cell, a run of several cells lists them
# --------------------------------------------------------------------------
def _synthetic_summary(seed: int) -> dict:
    t = Telemetry()
    for i in range(20):
        t.record_engine_event(float(seed + i))
        t.record_peer_bytes(float(i), (seed * 3 + i) % 10, 100.0 + i)
        t.record_link(float(i), i % 5, (i + 1) % 5, 50.0 + seed)
    t.record_churn(2.0, joined=True)
    t.record_delivery(4.0, seed % 10, 512.0)
    return dict(t.summary(), label=f"s{seed}")


class TestMergeSemantics:
    """Nothing is added up across cells: the peers of two seeds or overlays
    are different peers.  A run of several cells is the input-order list
    of their documents, and one fingerprint digests either form."""

    def test_schema_and_fingerprint(self):
        s = _synthetic_summary(0)
        assert s["schema"] == TELEMETRY_SCHEMA_VERSION
        assert fingerprint(s) == fingerprint(_synthetic_summary(0))
        assert fingerprint(s) != fingerprint(_synthetic_summary(1))
        pair = [_synthetic_summary(0), _synthetic_summary(1)]
        assert fingerprint(pair) != fingerprint(pair[::-1])

    def test_to_json_is_canonical(self):
        """The fingerprint survives the JSON round trip ``run.json`` makes
        and ignores key order."""
        s = _synthetic_summary(0)
        assert fingerprint(json.loads(json.dumps(s))) == fingerprint(s)
        assert fingerprint(dict(reversed(list(s.items())))) == fingerprint(s)


class TestSerialParallelBitEquality:
    """The acceptance criterion: --jobs 2 documents bit-identical to serial."""

    @pytest.fixture(scope="class")
    def configs(self):
        return [_tiny(seed=s) for s in (0, 1, 2)]

    def test_per_cell_and_merged_summaries_identical(self, configs):
        serial = run_cells(configs, jobs=1, telemetry=True)
        parallel = run_cells(configs, jobs=2, telemetry=True)
        merged_s = [r.telemetry for r in serial]
        merged_p = [r.telemetry for r in parallel]
        assert _json(merged_s) == _json(merged_p)
        assert fingerprint(merged_s) == fingerprint(merged_p)
        # A sweep's documents name their cells; a lone run's names none.
        assert [doc["label"] for doc in merged_s] == [
            f"asap_rw/random/seed{s}" for s in (0, 1, 2)
        ]

    def test_replications_merge_matches_manual_fold(self, configs, tmp_path, capsys):
        from repro.obs.report import main

        assert main([
            "run", "--algorithm", "asap_rw", "--topology", "random",
            "--peers", "100", "--queries", "30", "--no-physical-network",
            "--replications", "2", "--jobs", "2", "--telemetry",
            "--out", str(tmp_path),
        ]) == 0
        printed = capsys.readouterr().out
        merged = json.loads((tmp_path / "run.json").read_text())["telemetry"]
        seeds = run_cells(configs[:2], telemetry=True)
        assert merged == json.loads(_json([r.telemetry for r in seeds]))
        # Each seed is rendered under its own label.
        for doc in merged:
            assert f"telemetry of {doc['label']}, fingerprint {fingerprint(doc)}" in printed


# --------------------------------------------------------------------------
# End-to-end: run_experiment carries a consistent summary
# --------------------------------------------------------------------------
class TestRunExperimentTelemetry:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(_tiny(), telemetry=True)

    def test_default_is_off(self):
        assert run_experiment(_tiny(n_queries=5)).telemetry is None

    def test_summary_attached(self, result):
        assert isinstance(result.telemetry, dict)
        assert result.telemetry["label"] is None

    def test_totals_agree_with_result(self, result):
        totals = result.telemetry["totals"]
        assert totals["queries"] == result.n_queries
        assert totals["hits"] == sum(
            1 for o in result.outcomes if o.success
        )
        assert totals["messages"] == int(result.ledger.total_messages())
        assert totals["bytes"] == {
            cat.value: float(v)
            for cat, v in result.ledger.category_totals().items()
        }

    def test_window_load_matches_ledger_series(self, result):
        # Windows fold the ledger's per-second buckets over the WHOLE run
        # (warm-up included); the sum must equal the full-run series.
        series = result.ledger.series(result.load_categories)
        windowed = sum(w["load_bytes"] for w in result.telemetry["windows"].values())
        assert windowed == pytest.approx(float(series.bytes_per_second.sum()))

    def test_response_time_sketch_brackets_exact_extremes(self, result):
        # Local hits resolve without network traffic, so the digest only
        # sees remote successes (the times the paper's Figure 5 averages).
        times = [
            o.response_time_ms
            for o in result.outcomes
            if o.success and not o.local_hit
        ]
        assert result.telemetry["response_time_ms"] == digest(times)
        assert result.telemetry["response_time_ms"]["max"] == max(times)

    def test_fig9_metric_available_without_trace(self, result):
        # The measurement window exists, so the Fig-9 std is a number.
        assert not math.isnan(load_std_bpns(result.telemetry))

    def test_window_table_renders(self, result):
        table = format_window_table(result.telemetry, max_rows=6)
        assert "B/node/s" in table
        assert len(table.splitlines()) <= 7
        hotspots = format_hotspots(result.telemetry, 3)
        assert "hottest peers" in hotspots
        assert len(format_digests(result.telemetry).splitlines()) == 5
