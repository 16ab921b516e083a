"""Tests for bandwidth accounting and load series."""

import numpy as np
import pytest

from repro.sim.metrics import (
    ASAP_LOAD_CATEGORIES,
    BASELINE_LOAD_CATEGORIES,
    BandwidthLedger,
    LiveCountTracker,
    LoadSeries,
    TrafficCategory,
)


class TestBandwidthLedger:
    def test_totals_by_category(self):
        led = BandwidthLedger()
        led.record(0.5, TrafficCategory.QUERY, 100)
        led.record(1.5, TrafficCategory.QUERY, 200)
        led.record(1.7, TrafficCategory.FULL_AD, 1000)
        assert led.total_bytes() == 1300
        assert led.total_bytes([TrafficCategory.QUERY]) == 300
        assert led.total_bytes([TrafficCategory.FULL_AD]) == 1000

    def test_message_counts(self):
        led = BandwidthLedger()
        led.record(0.0, TrafficCategory.QUERY, 500, messages=5)
        led.record(0.0, TrafficCategory.CONFIRMATION, 80)
        assert led.total_messages([TrafficCategory.QUERY]) == 5
        assert led.total_messages() == 6

    def test_record_each_leaves_what_the_records_would(self):
        """Messages are booked a second at a time: the floats are those of
        ``record`` in order, also in a bucket and a total that already hold
        bytes."""
        sizes = [60.0, 40.0, 1418.0]
        rng = np.random.default_rng(8)
        times = 3.0 + 2.5 * rng.random(200)
        nbytes = rng.choice(sizes, size=200)
        each, batch = BandwidthLedger(), BandwidthLedger()
        for led in (each, batch):
            led.record(3.5, TrafficCategory.PATCH_AD, sizes[1])
        for at, size in zip(times.tolist(), nbytes.tolist()):
            each.record(at, TrafficCategory.PATCH_AD, size)
        batch.record_each(times[:120], TrafficCategory.PATCH_AD, nbytes[:120])
        batch.record_each(times[120:], TrafficCategory.PATCH_AD, nbytes[120:])
        batch.record_each(times[:0], TrafficCategory.FULL_AD, nbytes[:0])
        per_second = batch.per_second()
        assert list(per_second) == [TrafficCategory.PATCH_AD]
        assert per_second[TrafficCategory.PATCH_AD].tolist() == (
            each.per_second()[TrafficCategory.PATCH_AD].tolist()
        )
        assert np.flatnonzero(per_second[TrafficCategory.PATCH_AD]).tolist() == [3, 4, 5]
        assert batch.category_totals() == each.category_totals()
        assert batch.total_messages() == each.total_messages() == 201

    def test_negative_bytes_rejected(self):
        led = BandwidthLedger()
        with pytest.raises(ValueError):
            led.record(0.0, TrafficCategory.QUERY, -1)

    def test_negative_time_rejected(self):
        led = BandwidthLedger()
        with pytest.raises(ValueError):
            led.record(-0.1, TrafficCategory.QUERY, 1)

    def test_series_buckets_by_second(self):
        led = BandwidthLedger()
        led.record(0.2, TrafficCategory.QUERY, 10)
        led.record(0.9, TrafficCategory.QUERY, 15)
        led.record(2.1, TrafficCategory.QUERY, 30)
        series = led.series([TrafficCategory.QUERY])
        assert series.t_start == 0
        assert list(series.bytes_per_second) == [25.0, 0.0, 30.0]

    def test_series_filters_categories(self):
        led = BandwidthLedger()
        led.record(0.0, TrafficCategory.QUERY, 10)
        led.record(0.0, TrafficCategory.FULL_AD, 99)
        series = led.series([TrafficCategory.QUERY])
        assert list(series.bytes_per_second) == [10.0]

    def test_series_explicit_range(self):
        led = BandwidthLedger()
        led.record(5.0, TrafficCategory.QUERY, 7)
        series = led.series([TrafficCategory.QUERY], t_start=4, t_end=8)
        assert len(series) == 4
        assert list(series.bytes_per_second) == [0.0, 7.0, 0.0, 0.0]

    def test_empty_ledger_series(self):
        led = BandwidthLedger()
        series = led.series([TrafficCategory.QUERY])
        assert len(series) == 0

    def test_breakdown_fractions(self):
        led = BandwidthLedger()
        led.record(0.0, TrafficCategory.FULL_AD, 85)
        led.record(0.0, TrafficCategory.PATCH_AD, 900)
        led.record(0.0, TrafficCategory.REFRESH_AD, 15)
        totals = led.category_totals()
        total = led.total_bytes(
            [TrafficCategory.FULL_AD, TrafficCategory.PATCH_AD, TrafficCategory.REFRESH_AD]
        )
        assert totals[TrafficCategory.FULL_AD] / total == pytest.approx(0.085)
        assert sum(totals.values()) == total == 1000.0

    def test_breakdown_empty_is_zero(self):
        led = BandwidthLedger()
        assert led.total_bytes([TrafficCategory.QUERY]) == 0.0
        assert led.category_totals() == {}

    def test_load_category_sets_are_disjoint(self):
        assert not (ASAP_LOAD_CATEGORIES & BASELINE_LOAD_CATEGORIES)


class TestLoadSeries:
    def test_per_node_divides_by_live_counts(self):
        series = LoadSeries(t_start=0, bytes_per_second=np.array([100.0, 200.0]))
        per_node = series.per_node(np.array([10, 20]))
        assert list(per_node) == [10.0, 10.0]

    def test_per_node_zero_live_is_zero(self):
        series = LoadSeries(t_start=0, bytes_per_second=np.array([100.0]))
        assert series.per_node(np.array([0]))[0] == 0.0

    def test_per_node_length_mismatch(self):
        series = LoadSeries(t_start=0, bytes_per_second=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.per_node(np.array([1]))

    def test_summarize(self):
        series = LoadSeries(t_start=0, bytes_per_second=np.array([10.0, 30.0]))
        summary = series.summarize(np.array([10, 10]))
        assert summary.mean == pytest.approx(2.0)
        assert summary.peak == pytest.approx(3.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.total_bytes == 40.0
        assert summary.duration == 2

    def test_summarize_empty(self):
        series = LoadSeries(t_start=0, bytes_per_second=np.array([]))
        summary = series.summarize(np.array([], dtype=np.int64))
        assert summary.mean == 0.0 and summary.duration == 0


class TestLiveCountTracker:
    def test_constant_when_no_churn(self):
        tracker = LiveCountTracker(initial=100)
        assert list(tracker.counts(0, 3)) == [100, 100, 100]

    def test_join_and_leave_applied_in_order(self):
        tracker = LiveCountTracker(initial=10)
        tracker.record_change(1.5, +1)
        tracker.record_change(2.5, -1)
        tracker.record_change(2.6, -1)
        # sampled at start of each second: change at 1.5 visible from t=2
        assert list(tracker.counts(0, 5)) == [10, 10, 11, 9, 9]

    def test_unsorted_recording_ok(self):
        tracker = LiveCountTracker(initial=5)
        tracker.record_change(3.0, -1)
        tracker.record_change(1.0, +1)
        # events at an integer boundary are visible in that same second
        assert list(tracker.counts(0, 5)) == [5, 6, 6, 5, 5]
