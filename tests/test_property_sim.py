"""Property-based tests for the simulation substrate (engine + ledger)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.metrics import BandwidthLedger, LiveCountTracker, TrafficCategory


class TestEngineProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_execution_order_is_sorted_stable(self, times):
        """Events fire in (time, insertion) order for any schedule."""
        eng = SimulationEngine()
        fired = []
        for i, t in enumerate(times):
            eng.schedule_at(t, lambda i=i, t=t: fired.append((t, i)))
        eng.run()
        assert fired == sorted(fired)  # time asc, insertion order on ties

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_run_until_partitions_execution(self, times, cutoff):
        """run(until) + run() fires every event exactly once, in order."""
        eng = SimulationEngine()
        fired = []
        for t in times:
            eng.schedule_at(t, lambda t=t: fired.append(t))
        eng.run(until=cutoff)
        assert all(t <= cutoff for t in fired)
        eng.run()
        assert sorted(fired) == sorted(times)

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_clock_monotone(self, times):
        eng = SimulationEngine()
        observed = []
        for t in times:
            eng.schedule_at(t, lambda: observed.append(eng.now))
        eng.run()
        assert observed == sorted(observed)


bytes_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        st.sampled_from(list(TrafficCategory)),
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)


class TestLedgerProperties:
    @given(bytes_events)
    @settings(max_examples=60)
    def test_series_sum_equals_totals(self, events):
        """The dense series conserves every recorded byte."""
        ledger = BandwidthLedger()
        for t, cat, b in events:
            ledger.record(t, cat, b)
        for cat in TrafficCategory:
            series = ledger.series([cat])
            assert np.isclose(
                series.bytes_per_second.sum(),
                ledger.total_bytes([cat]),
                rtol=1e-12,
                atol=1e-9,
            )

    @given(bytes_events)
    @settings(max_examples=60)
    def test_category_partition(self, events):
        """Per-category totals partition the grand total."""
        ledger = BandwidthLedger()
        for t, cat, b in events:
            ledger.record(t, cat, b)
        by_cat = sum(ledger.total_bytes([c]) for c in TrafficCategory)
        assert np.isclose(by_cat, ledger.total_bytes(), rtol=1e-12, atol=1e-9)

    @given(bytes_events)
    @settings(max_examples=40)
    def test_breakdown_fractions_normalised(self, events):
        ledger = BandwidthLedger()
        for t, cat, b in events:
            ledger.record(t, cat, b)
        totals = ledger.category_totals()
        assert np.isclose(
            sum(totals.values()), ledger.total_bytes(), rtol=1e-12, atol=1e-9
        )


class TestLiveCountProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.sampled_from([+1, -1]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_final_count_is_initial_plus_net_change(self, changes):
        tracker = LiveCountTracker(initial=100)
        for t, d in changes:
            tracker.record_change(t, d)
        counts = tracker.counts(0, 60)
        assert counts[-1] == 100 + sum(d for _, d in changes)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.sampled_from([+1, -1]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_counts_move_by_recorded_deltas_only(self, changes):
        tracker = LiveCountTracker(initial=50)
        for t, d in changes:
            tracker.record_change(t, d)
        counts = tracker.counts(0, 12)
        steps = np.diff(counts)
        # Each one-second step moves by the sum of deltas in that second.
        assert np.abs(steps).sum() <= len(changes)
