"""The action tables and their trace rendering: ids, nesting, JSONL round
trips, and the engine observer / live-pending satellites."""

import json
import types
from collections import Counter

import numpy as np
import pytest

from repro.obs import actions
from repro.obs import instrument as instrument_module
from repro.obs import profile as profile_module
from repro.obs.actions import (
    CHUNK,
    CHURN,
    TRACE_SCHEMA_VERSION,
    ActionLog,
    open_text_maybe_gzip,
    parse_lines,
    read_trace,
    records,
    render_lines,
    write_trace,
)
from repro.obs.instrument import Instrumentation
from repro.obs.profile import Profiler, RunProfile, peak_rss_mb, subsystem_of
from repro.search.base import SearchOutcome
from repro.sim.engine import SimulationEngine, SimulationError
from repro.sim.metrics import BandwidthLedger, TrafficCategory


class _Search:
    """The slice of a SearchAlgorithm ``Instrumentation.query`` touches,
    reporting one ads exchange and its confirm counts on the way."""

    name = "toy"

    def __init__(self, obs):
        self.obs = obs
        self.ledger = BandwidthLedger()

    def _search_impl(self, requester, terms, now):
        self.ledger.record(now, TrafficCategory.CONFIRMATION, 80.0)
        self.obs.ads_exchange(now, requester, "query", [], 0, 0.0, 0.0)
        self.obs.confirm_stats(now)
        return SearchOutcome(True, 5.0, 1, 80.0, 1)


def _tables(log):
    """The algorithm and the bytes of every table: equal logs, equal tuples."""
    return (log.algorithm, log.sequence().tobytes(),
            *(log.table(kind).tobytes() for kind in range(len(actions.KINDS))))


def _log():
    """A log holding an event, a query with two children, and an event."""
    log = ActionLog()
    obs = Instrumentation(log)
    obs.churn(0.5, 3, True, 10)
    obs.query(_Search(obs), 7, ("a",), 1.0)
    obs.content_changed(2.0, 3, 41, True)
    return log


# ----------------------------------------------------------------- recording
def test_event_records_fields():
    log = ActionLog()
    Instrumentation(log).churn(12.5, np.int64(3), True, 99)
    (rec,) = records(log)
    assert rec == {
        "schema": TRACE_SCHEMA_VERSION, "kind": "event", "cat": "churn",
        "name": "join", "t": 12.5, "id": 1, "parent": None, "depth": 0,
        "dur_s": None, "attrs": {"node": 3, "live": 99},
    }
    assert log.table(CHURN).tolist() == [(12.5, 3, True, 99)]


def test_span_nesting_parent_and_depth():
    churn, exchange, stats, span, content = records(_log())
    # Emission order: the query's children, then the span on close.
    assert [r["name"] for r in (exchange, stats, span)] == [
        "ads_request", "confirm_stats", "toy",
    ]
    assert exchange["parent"] == stats["parent"] == span["id"] == 2
    assert exchange["depth"] == stats["depth"] == 1
    assert span["kind"] == "span" and span["parent"] is None and span["depth"] == 0
    assert churn["depth"] == content["depth"] == 0
    assert span["dur_s"] is not None and exchange["dur_s"] is None


def test_span_duration_uses_injected_clock(monkeypatch):
    ticks = iter([10.0, 10.25])
    monkeypatch.setattr(instrument_module.time, "perf_counter", lambda: next(ticks))
    log = ActionLog()
    obs = Instrumentation(log)
    obs.query(_Search(obs), 7, ("a",), 1.0)
    assert [r["dur_s"] for r in records(log) if r["kind"] == "span"] == [0.25]


def test_ids_are_sequential_and_deterministic():
    def build():
        return [(r["id"], r["kind"], r["name"], r["parent"], r["depth"])
                for r in records(_log())]

    assert build() == build()
    assert sorted(row[0] for row in build()) == [1, 2, 3, 4, 5]


def test_counts_by_category():
    """Every action is one row, rendered in emission order: here counted
    by category."""
    log = _log()
    counts = Counter(r["cat"] for r in records(log))
    assert counts == {"churn": 2, "ad": 1, "query": 2}
    assert log.n_records() == 5 and len(log.sequence()) == 4


def test_streaming_without_keep(tmp_path):
    """A trace is rendered line by line straight to the file; neither the
    renderer nor the log keeps a record, and a table holds fewer than
    ``CHUNK`` rows as tuples."""
    log = ActionLog()
    obs = Instrumentation(log)
    for i in range(CHUNK + 3):
        obs.churn(float(i), i, True, i + 1)
    assert isinstance(render_lines(log), types.GeneratorType)
    assert len(log._rows[CHURN]) == 3
    write_trace(log, tmp_path / "trace.jsonl")
    assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == CHUNK + 3


# ------------------------------------------------------------ JSONL round-trip
def test_jsonl_round_trip_in_memory():
    log = _log()
    parsed = parse_lines(render_lines(log))
    assert _tables(parsed) == _tables(log)
    assert list(records(parsed)) == list(records(log))


def test_jsonl_round_trip_via_file(tmp_path):
    log = _log()
    path = tmp_path / "trace.jsonl"
    write_trace(log, path)
    assert _tables(read_trace(path)) == _tables(log)


def test_gzip_round_trip_via_file(tmp_path):
    log = ActionLog()
    obs = Instrumentation(log)
    for i in range(50):
        obs.content_changed(float(i), i % 7, i, i % 2 == 0)
    plain = tmp_path / "trace.jsonl"
    gz = tmp_path / "trace.jsonl.gz"
    write_trace(log, plain)
    write_trace(log, gz)
    assert _tables(read_trace(gz)) == _tables(log) == _tables(read_trace(plain))
    # Actually compressed, not just renamed.
    assert gz.read_bytes()[:2] == b"\x1f\x8b"
    assert gz.stat().st_size < plain.stat().st_size


def test_an_audited_golden_cell_round_trips(tmp_path):
    """An audited golden cell's tables, rendered to ``.jsonl`` and to
    ``.jsonl.gz`` and parsed back, are the same tables with the same
    summary and audit, fingerprint included."""
    from repro.obs.audit import audit, summary
    from repro.simulation.runner import run_experiment

    from tests.test_golden_fingerprints import CONFIGS

    config = CONFIGS["asap_rw/seed0/default_churn/content_change_x3"]
    result = run_experiment(config, audit=True)
    log = result.actions
    assert all(len(log.table(kind)) for kind in range(len(actions.KINDS)))
    for name in ("trace.jsonl", "trace.jsonl.gz"):
        write_trace(log, tmp_path / name)
        parsed = read_trace(tmp_path / name)
        assert _tables(parsed) == _tables(log)
        assert summary(parsed) == summary(log)
        assert audit(parsed, config, result).to_dict() == result.audit.to_dict()


def test_gzip_dump_is_deterministic(tmp_path):
    """Rendering a log through the one gzip writer twice gives the same
    bytes: mtime 0 and no file name in the header."""
    a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
    log = _log()
    for path in (a, b):
        write_trace(log, path)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_bytes()[:10]
    assert header[3] == 0  # FLG: no FNAME (nor any other optional field)
    assert header[4:8] == b"\x00\x00\x00\x00"  # MTIME


def test_open_text_maybe_gzip_writes_and_reads(tmp_path):
    path = tmp_path / "notes.jsonl.gz"
    with open_text_maybe_gzip(path, "w") as fh:
        fh.write('{"x": 1}\n')
    with open_text_maybe_gzip(path) as fh:
        assert fh.read() == '{"x": 1}\n'
    plain = tmp_path / "notes.jsonl"
    with open_text_maybe_gzip(plain, "w") as fh:
        fh.write("plain\n")
    assert plain.read_text() == "plain\n"


def test_record_from_json_tolerates_missing_optionals():
    log = parse_lines([
        '{"kind":"event","cat":"ad","name":"repair","t":0.0,"id":1,'
        '"parent":null,"depth":0}'
    ])
    (rec,) = records(log)
    assert rec["dur_s"] is None and rec["attrs"]["reply_category"] is None
    assert rec["attrs"]["request_bytes"] == 0.0


# ------------------------------------------------------------ schema version
def test_records_carry_current_schema_version():
    lines = list(render_lines(_log()))
    assert all(json.loads(line)["schema"] == TRACE_SCHEMA_VERSION for line in lines)
    assert all(line.startswith('{"schema":1,') for line in lines)
    assert parse_lines(lines).schemas == {TRACE_SCHEMA_VERSION: len(lines)}


def test_missing_schema_key_parses_as_v0():
    log = parse_lines([
        '{"kind":"event","cat":"churn","name":"leave","t":0.0,"id":1,'
        '"parent":null,"depth":0,"attrs":{"node":4,"live":9}}'
    ])
    assert log.schemas == {0: 1}
    assert log.table(CHURN).tolist() == [(0.0, 4, False, 9)]


def test_unknown_json_keys_are_ignored_forward_compat():
    # A future writer may add keys and records; today's reader must not
    # choke on them.
    log = parse_lines([
        '{"schema":7,"kind":"event","cat":"churn","name":"join","t":0.5,"id":2,'
        '"parent":null,"depth":0,"attrs":{"node":1,"live":3,"a":1},'
        '"future_field":[1,2],"another":{"x":true}}',
        '{"schema":7,"kind":"event","cat":"engine","name":"dispatch","t":0.5,'
        '"id":3,"parent":null,"depth":0}',
    ])
    assert log.schemas == {7: 2}
    assert log.table(CHURN).tolist() == [(0.5, 1, True, 3)]
    assert len(log.sequence()) == 1


# ----------------------------------------------- engine observer integration
def _run_engine_with(observer, n=5):
    engine = SimulationEngine()
    if observer is not None:
        engine.set_observer(observer)
    for i in range(n):
        engine.schedule_at(float(i), lambda: None, name=f"tick-{i % 2}")
    engine.run()
    return engine


def test_engine_observer_sees_every_dispatch():
    seen = []

    class Recorder:
        def event_begin(self, event):
            seen.append(("begin", event.name, event.time))

        def event_end(self, event):
            seen.append(("end", event.name, event.time))

    _run_engine_with(Recorder())
    assert len(seen) == 10
    assert seen[0] == ("begin", "tick-0", 0.0)
    assert seen[1] == ("end", "tick-0", 0.0)


def test_engine_rejects_invalid_observer():
    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        engine.set_observer(object())
    engine.set_observer(None)  # uninstall is fine
    assert engine.observer is None


def test_profiler_buckets_by_phase_and_subsystem():
    profiler = Profiler(warmup_s=2.0)
    engine = _run_engine_with(profiler, n=5)
    profile = profiler.finish(engine)
    assert isinstance(profile, RunProfile)
    assert profile.events == 5
    assert profile.phases["warmup"].events == 2  # t=0,1 < warmup_s=2
    assert profile.phases["measurement"].events == 3
    assert profile.subsystems["tick"].events == 5
    assert profile.engine_events == 5
    assert profile.engine_pending_live == 0
    assert profile.sim_end_s == 4.0
    # Renderers stay in sync with the data.
    assert "dispatched 5 events" in profile.format_table()
    assert profile.to_dict()["phases"]["warmup"]["events"] == 2


@pytest.mark.parametrize(
    "platform,maxrss", [("linux", 300 * 1024), ("darwin", 300 * 1024 * 1024)]
)
def test_peak_rss_reads_the_platform_unit(monkeypatch, platform, maxrss):
    """``ru_maxrss`` is KB on Linux and bytes on macOS: 300 MB either way."""
    usage = types.SimpleNamespace(ru_maxrss=maxrss)
    monkeypatch.setattr(profile_module.sys, "platform", platform)
    monkeypatch.setattr(profile_module.resource, "getrusage", lambda who: usage)
    assert peak_rss_mb() == 300.0


@pytest.mark.parametrize(
    "name,expected",
    [
        ("full-ad-123", "full-ad"),
        ("refresh-7", "refresh"),
        ("trace", "trace"),
        ("bootstrap", "bootstrap"),
        ("", "unnamed"),
        ("v2", "v2"),  # no dash: the digits are part of the name
    ],
)
def test_subsystem_of(name, expected):
    assert subsystem_of(name) == expected


# ------------------------------------------------------- live pending counts
def test_pending_live_excludes_cancelled_events():
    engine = SimulationEngine()
    keep = engine.schedule_at(1.0, lambda: None)
    drop = engine.schedule_at(2.0, lambda: None)
    assert engine.pending_live == 2
    assert engine.pending_events == 2
    drop.cancel()
    drop.cancel()  # idempotent
    assert engine.pending_live == 1  # live view
    assert engine.pending_events == 2  # raw heap still holds the corpse
    engine.run()
    assert engine.pending_live == 0
    assert engine.pending_events == 0
    assert not keep.cancelled


def test_pending_live_survives_cancel_after_dispatch():
    # Cancelling an already-executed event (PeriodicTimer.stop() from its
    # own callback does this) must not corrupt the live count.
    engine = SimulationEngine()
    fired = []
    ev = engine.schedule_at(0.5, lambda: fired.append(1))
    engine.schedule_at(1.0, lambda: None)
    engine.run(until=0.6)
    ev.cancel()
    assert fired == [1]
    assert engine.pending_live == 1
    engine.run()
    assert engine.pending_live == 0
