"""The array ledger against the dict-of-seconds one (``tests/oracles/ledger.py``).

Any interleaving of scalar records (messages-only ones included),
per-message batches and per-second arrays, at any first second and past
the array's first width, in any categories, leaves both ledgers with the
same totals bit for bit after every write, the same message counts and category order, the
same ``series()`` over any window and the same per-second bytes.  Sizes
are whole bytes, as every wire size is.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import BandwidthLedger, TrafficCategory

from tests.oracles.ledger import DictLedger

categories = st.sampled_from(list(TrafficCategory))
whole_bytes = st.integers(0, 10**6).map(float)
times = st.floats(0.0, 300.0, allow_nan=False)

records = st.tuples(st.just("record"), times, categories, whole_bytes, st.integers(0, 5))
messages_only = st.tuples(
    st.just("record"), times, categories, st.just(0.0), st.integers(0, 5)
)
batches = st.tuples(
    st.just("each"),
    st.lists(st.tuples(times, whole_bytes), max_size=20),
    categories,
)
arrays = st.tuples(
    st.just("add"),
    st.integers(0, 300),
    categories,
    st.lists(st.integers(0, 30), max_size=40),
    st.integers(1, 2000),
)
writes = st.lists(st.one_of(records, messages_only, batches, arrays), max_size=40)


def book(ledger, write):
    kind, *args = write
    if kind == "record":
        time, category, nbytes, messages = args
        ledger.record(time, category, nbytes, messages=messages)
    elif kind == "each":
        pairs, category = args
        at = np.array([t for t, _ in pairs])
        ledger.record_each(at, category, np.array([b for _, b in pairs]))
    else:
        first, category, counts, size = args
        counts = np.array(counts, dtype=np.int64)
        ledger.add(category, first, counts * float(size), int(counts.sum()))


def padded(per_second, width):
    return {c: np.pad(a, (0, width - len(a))).tolist() for c, a in per_second.items()}


@given(writes, st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=150, deadline=None)
def test_array_ledger_matches_dict_ledger(script, a, b):
    ledger, reference = BandwidthLedger(), DictLedger()
    for write in script:
        book(ledger, write)
        book(reference, write)
        # The running totals, after every write, bit for bit.
        running, summed = ledger.category_totals(), reference.category_totals()
        assert list(running) == list(summed)
        assert [v.hex() for v in running.values()] == [v.hex() for v in summed.values()]

    totals, expected = ledger.category_totals(), reference.category_totals()
    assert list(totals) == list(expected)  # first-booked order
    assert [v.hex() for v in totals.values()] == [v.hex() for v in expected.values()]
    assert ledger.total_bytes().hex() == reference.total_bytes().hex()
    assert ledger.total_messages() == reference.total_messages()
    for category in TrafficCategory:
        assert ledger.total_messages([category]) == reference.total_messages([category])

    # The reference also keeps the zero-byte seconds a messages-only record
    # or an all-zero array opened; beyond them both hold zeros.
    view, dense = ledger.per_second(), reference.per_second()
    width = max([len(x) for x in (*view.values(), *dense.values())], default=0)
    assert padded(view, width) == padded(dense, width)

    t_start, t_end = min(a, b), max(a, b)
    for cats in ([], list(TrafficCategory), list(totals)[:1], list(totals)[1::2]):
        got = ledger.series(cats, t_start, t_end).bytes_per_second
        want = reference.series(cats, t_start, t_end).bytes_per_second
        assert got.tolist() == want.tolist()


def test_growth_keeps_what_was_booked():
    """A write far past the first width keeps every earlier cell."""
    ledger, reference = BandwidthLedger(), DictLedger()
    script = [
        ("record", 3.5, TrafficCategory.QUERY, 100.0, 1),
        ("add", 60, TrafficCategory.FULL_AD, [1, 0, 2], 424),
        ("add", 5000, TrafficCategory.FULL_AD, [3], 424),
        ("record", 70.2, TrafficCategory.QUERY, 0.0, 4),
    ]
    for write in script:
        book(ledger, write)
        book(reference, write)
    view = ledger.per_second()
    assert list(view) == [TrafficCategory.QUERY, TrafficCategory.FULL_AD]
    assert len(view[TrafficCategory.FULL_AD]) == 5001
    assert np.flatnonzero(view[TrafficCategory.FULL_AD]).tolist() == [60, 62, 5000]
    assert padded(view, 5001) == padded(reference.per_second(), 5001)
    assert ledger.category_totals() == reference.category_totals()
    assert ledger.total_messages() == reference.total_messages() == 11


def test_repair_bookings_match_the_dict_ledger(monkeypatch):
    """``AsapSearch._repair`` books a reply category with one pull as one
    ``record`` and skips one with none: an ASAP(RW) cell with stale ads,
    booked into the array ledger and the dict ledger at once, leaves the
    same per-second bytes, message counts and first-booked order, over
    repairs of one pull and of several."""
    from dataclasses import replace

    from repro.asap.protocol import AsapSearch
    from repro.simulation import runner
    from repro.simulation.config import scaled_config

    class Tee(BandwidthLedger):
        """The array ledger, with every booking also made on a DictLedger."""

        def __init__(self):
            super().__init__()
            self.reference = DictLedger()
            self._each = False
            ledgers.append(self)

        def record(self, time, category, nbytes, messages=1):
            super().record(time, category, nbytes, messages)
            self.reference.record(time, category, nbytes, messages)

        def add(self, category, first_second, nbytes, messages):
            super().add(category, first_second, nbytes, messages)
            if not self._each:
                self.reference.add(category, first_second, nbytes, messages)

        def record_each(self, times, category, nbytes):
            self._each = True
            super().record_each(times, category, nbytes)
            self._each = False
            self.reference.record_each(times, category, nbytes)

    ledgers, pulls = [], []
    repair = AsapSearch._repair

    def counted(self, source, now, lagging):
        pulls.append(len(lagging))
        repair(self, source, now, lagging)

    monkeypatch.setattr(runner, "BandwidthLedger", Tee)
    monkeypatch.setattr(AsapSearch, "_repair", counted)
    config = scaled_config(
        "asap_rw", "crawled", n_peers=300, n_queries=600, seed=4, use_physical_network=False
    )
    config = replace(config, trace=replace(config.trace, content_change_fraction=0.3))
    runner.run_experiment(config)

    assert 1 in pulls and max(pulls) > 1
    (ledger,) = ledgers
    reference = ledger.reference
    assert list(ledger.category_totals()) == list(reference.category_totals())
    for category in TrafficCategory:
        assert ledger.total_messages([category]) == reference.total_messages([category])
    view, dense = ledger.per_second(), reference.per_second()
    width = max(len(x) for x in (*view.values(), *dense.values()))
    assert padded(view, width) == padded(dense, width)
