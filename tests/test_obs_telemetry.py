"""Streaming telemetry: sketches, heavy hitters and the merge contract.

The load-bearing guarantee mirrors the parallel layer's: per-cell
telemetry summary documents merged **in input order** are bit-identical
whether the cells ran serially or under ``run_cells --jobs N``.  These tests
pin that (canonical JSON string equality), plus the algebra that makes it
work: key-wise integer merges that are associative with an empty-merge
identity, and heavy hitters that stay exact while distinct keys fit
within capacity.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.parallel import run_cells
from repro.obs.telemetry import (
    LogBucketSketch,
    SpaceSaving,
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    fingerprint,
    format_hotspots,
    format_window_table,
    load_std_bpns,
    merge,
    merge_summaries,
    quantile_nearest_rank,
)
from repro.simulation import run_experiment, scaled_config


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
# LogBucketSketch
# --------------------------------------------------------------------------
class TestLogBucketSketch:
    def test_empty(self):
        s = LogBucketSketch()
        assert s.count == 0
        assert math.isnan(s.quantile(0.5))
        assert math.isnan(s.mean)

    def test_exact_stats(self):
        s = LogBucketSketch()
        for v in (10.0, 20.0, 30.0):
            s.add(v)
        assert s.count == 3
        assert s.total == 60.0
        assert s.min == 10.0
        assert s.max == 30.0

    def test_quantile_relative_error(self):
        gamma = 1.05
        s = LogBucketSketch(gamma)
        values = [float(i) for i in range(1, 2001)]
        for v in values:
            s.add(v)
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = quantile_nearest_rank(values, q)
            approx = s.quantile(q)
            assert abs(approx - exact) <= (gamma - 1.0) * exact + 1e-9

    def test_quantile_clamped_to_observed_range(self):
        s = LogBucketSketch()
        s.add(42.0)
        assert s.quantile(0.0) == 42.0
        assert s.quantile(1.0) == 42.0

    def test_zero_values_bucketed_exactly(self):
        s = LogBucketSketch()
        for _ in range(5):
            s.add(0.0)
        s.add(100.0)
        assert s.count == 6
        assert s.quantile(0.5) == 0.0

    def test_merge_equals_union(self):
        a, b, u = LogBucketSketch(), LogBucketSketch(), LogBucketSketch()
        for i in range(1, 50):
            a.add(float(i))
            u.add(float(i))
        for i in range(40, 90):
            b.add(float(i))
            u.add(float(i))
        a.merge(b)
        assert a.to_dict() == u.to_dict()

    def test_dict_round_trip(self):
        s = LogBucketSketch()
        for v in (0.0, 1.5, 88.0, 1e6):
            s.add(v)
        clone = LogBucketSketch.from_dict(s.to_dict())
        assert clone.to_dict() == s.to_dict()
        assert clone.quantile(0.5) == s.quantile(0.5)


# --------------------------------------------------------------------------
# SpaceSaving heavy hitters
# --------------------------------------------------------------------------
class TestSpaceSaving:
    def test_exact_below_capacity(self):
        ss = SpaceSaving(capacity=8)
        ss.add("a", 5)
        ss.add("b", 3)
        ss.add("a", 2)
        assert ss.top(2) == [("a", 7, 0), ("b", 3, 0)]

    def test_top_ties_break_by_key(self):
        ss = SpaceSaving(capacity=8)
        ss.add("z", 4)
        ss.add("a", 4)
        assert [k for k, _, _ in ss.top(2)] == ["a", "z"]

    def test_overflow_bounds_memory_and_keeps_heavies(self):
        ss = SpaceSaving(capacity=4)
        for i in range(100):
            ss.add(f"cold{i}", 1)
        ss.add("hot", 1000)
        for i in range(100, 200):
            ss.add(f"cold{i}", 1)
        assert len(ss.counts) <= 2 * ss.capacity
        top_keys = [k for k, _, _ in ss.top(1)]
        assert top_keys == ["hot"]

    def test_merge_exact_regime_matches_union(self):
        a, b, u = SpaceSaving(16), SpaceSaving(16), SpaceSaving(16)
        for key, n in (("x", 3), ("y", 7)):
            a.add(key, n)
            u.add(key, n)
        for key, n in (("y", 2), ("z", 5)):
            b.add(key, n)
            u.add(key, n)
        a.merge(b)
        assert a.state_dict() == u.state_dict()

    def test_state_dict_round_trip(self):
        ss = SpaceSaving(4)
        for i in range(30):
            ss.add(i % 6, i)
        clone = SpaceSaving.from_state_dict(ss.state_dict())
        assert clone.state_dict() == ss.state_dict()
        # The top-list form run-wide summaries hold is just as lossless.
        clone = SpaceSaving.from_state_dict(ss.to_dict())
        assert clone.state_dict() == ss.state_dict()


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
        assert summary["hot_peers"]["top"][0][0] == "7"
        assert summary["hot_links"]["top"][0][0] == "7->9"


# --------------------------------------------------------------------------
# Merge semantics (satellite: associativity, identity, serial == jobs 2)
# --------------------------------------------------------------------------
def _synthetic_summary(seed: int) -> dict:
    """A small summary whose heavy hitters stay within the exact regime."""
    t = Telemetry()
    for i in range(20):
        t.record_engine_event(float(seed + i))
        t.record_peer_bytes(float(i), (seed * 3 + i) % 10, 100.0 + i)
        t.record_link(float(i), i % 5, (i + 1) % 5, 50.0 + seed)
    t.record_churn(2.0, joined=True)
    t.record_delivery(4.0, seed % 10, 512.0, 4)
    return dict(t.summary(), labels=[f"s{seed}"])


class TestMergeSemantics:
    def test_empty_merge_is_identity(self):
        assert merge_summaries([]) is None
        assert merge_summaries([None, None]) is None
        s = _synthetic_summary(0)
        assert merge_summaries([None, s]) is s

    def test_merge_is_associative_in_exact_regime(self):
        a, b, c = (_synthetic_summary(i) for i in range(3))
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert _json(left) == _json(right)
        assert left["labels"] == ["s0", "s1", "s2"]
        # Merging builds a new document: the inputs are left as they were.
        assert _json(a) == _json(_synthetic_summary(0))

    def test_merge_is_commutative_on_counters(self):
        a, b = _synthetic_summary(0), _synthetic_summary(1)
        ab, ba = merge(a, b), merge(b, a)
        assert ab["totals"] == ba["totals"]
        assert {w: {k: v for k, v in win.items() if isinstance(v, (int, float))}
                for w, win in ab["windows"].items()} == \
               {w: {k: v for k, v in win.items() if isinstance(v, (int, float))}
                for w, win in ba["windows"].items()}

    def test_merge_sums_window_counters(self):
        a, b = _synthetic_summary(0), _synthetic_summary(0)
        merged = merge(a, b)
        assert merged["totals"]["engine_events"] == 2 * a["totals"]["engine_events"]
        assert (
            merged["windows"]["0"]["engine_events"]
            == 2 * a["windows"]["0"]["engine_events"]
        )
        assert merged["cells"] == 2

    def test_merge_rejects_window_mismatch(self):
        """Summaries that did not come from this process may be windowed
        differently (a ``telemetry.json`` of another build)."""
        a = Telemetry().summary()
        b = dict(Telemetry().summary(), window_s=a["window_s"] / 2)
        with pytest.raises(ValueError, match="window_s"):
            merge(a, b)
        with pytest.raises(ValueError, match="schema"):
            merge(a, dict(a, schema=TELEMETRY_SCHEMA_VERSION + 1))

    def test_schema_and_fingerprint(self):
        s = _synthetic_summary(0)
        assert s["schema"] == TELEMETRY_SCHEMA_VERSION
        assert fingerprint(s) == fingerprint(_synthetic_summary(0))
        assert fingerprint(s) != fingerprint(_synthetic_summary(1))

    def test_to_json_is_canonical(self):
        """The fingerprint survives the JSON round trip ``run.json`` makes
        and ignores key order."""
        s = _synthetic_summary(0)
        assert fingerprint(json.loads(json.dumps(s))) == fingerprint(s)
        assert fingerprint(dict(reversed(list(s.items())))) == fingerprint(s)


class TestSerialParallelBitEquality:
    """The acceptance criterion: --jobs 2 aggregates bit-identical to serial."""

    @pytest.fixture(scope="class")
    def configs(self):
        return [_tiny(seed=s) for s in (0, 1, 2)]

    def test_per_cell_and_merged_summaries_identical(self, configs):
        serial = run_cells(configs, jobs=1, telemetry=True)
        parallel = run_cells(configs, jobs=2, telemetry=True)
        for s, p in zip(serial, parallel):
            assert _json(s.telemetry) == _json(p.telemetry)
        merged_s = merge_summaries(r.telemetry for r in serial)
        merged_p = merge_summaries(r.telemetry for r in parallel)
        assert _json(merged_s) == _json(merged_p)
        assert fingerprint(merged_s) == fingerprint(merged_p)
        # A sweep's summary names its cells; a lone run's names none.
        assert merged_s["labels"] == [f"asap_rw/random/seed{s}" for s in (0, 1, 2)]

    def test_replications_merge_matches_manual_fold(self, configs, tmp_path, capsys):
        from repro.obs.report import main

        assert main([
            "run", "--algorithm", "asap_rw", "--topology", "random",
            "--peers", "100", "--queries", "30", "--no-physical-network",
            "--replications", "2", "--jobs", "2", "--telemetry",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        merged = json.loads((tmp_path / "run.json").read_text())["telemetry"]
        seeds = run_cells(configs[:2], telemetry=True)
        fold = merge_summaries(r.telemetry for r in seeds)
        assert merged == json.loads(_json(fold))
        assert merged["cells"] == 2


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
        assert result.telemetry["labels"] == []

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
        # Local hits resolve without network traffic, so the sketch only
        # sees remote successes (the times the paper's Figure 5 averages).
        times = [
            o.response_time_ms
            for o in result.outcomes
            if o.success and not o.local_hit
        ]
        sketch = result.telemetry["response_time_ms"]
        assert sketch["count"] == len(times)
        assert sketch["min"] == pytest.approx(min(times))
        assert sketch["max"] == pytest.approx(max(times))

    def test_fig9_metric_available_without_trace(self, result):
        # The measurement window exists, so the Fig-9 std is a number.
        assert not math.isnan(load_std_bpns(result.telemetry))

    def test_window_table_renders(self, result):
        table = format_window_table(result.telemetry, max_rows=6)
        assert "B/node/s" in table
        assert len(table.splitlines()) <= 7
        hotspots = format_hotspots(result.telemetry, 3)
        assert "hottest peers" in hotspots
