"""Tracing layer: span nesting, JSONL round-trip, and the engine observer /
live-pending satellites."""

import io
import json
import types
from collections import Counter

import pytest

from repro.obs import profile as profile_module
from repro.obs.profile import Profiler, RunProfile, peak_rss_mb, subsystem_of
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    TraceRecord,
    Tracer,
    jsonl_writer,
    open_text_maybe_gzip,
    read_trace,
    read_trace_lines,
)
from repro.sim.engine import SimulationEngine, SimulationError


# ----------------------------------------------------------------- recording
def test_event_records_fields():
    records = []
    tracer = Tracer(records.append)
    rec = tracer.event("churn", "join", 12.5, node=3, live=99)
    assert rec.kind == "event"
    assert rec.category == "churn"
    assert rec.t == 12.5
    assert rec.parent is None and rec.depth == 0
    assert rec.attrs == {"node": 3, "live": 99}
    assert records == [rec]


def test_span_nesting_parent_and_depth():
    records = []
    tracer = Tracer(records.append)
    with tracer.span("query", "outer", 1.0) as outer:
        tracer.event("ad", "inner-event", 1.0)
        with tracer.span("ad", "inner", 1.5):
            pass
    # Emission order: inner event, inner span (on close), outer span.
    ev, inner, outer_rec = records
    assert ev.parent == outer.id and ev.depth == 1
    assert inner.parent == outer.id and inner.depth == 1
    assert outer_rec.parent is None and outer_rec.depth == 0
    assert inner.dur_s is not None and outer_rec.dur_s is not None


def test_span_duration_uses_injected_clock():
    ticks = iter([10.0, 10.25])
    records = []
    tracer = Tracer(records.append, clock=lambda: next(ticks))
    with tracer.span("query", "q", 0.0):
        pass
    assert records[0].dur_s == pytest.approx(0.25)


def test_span_records_error_attr_on_exception():
    records = []
    tracer = Tracer(records.append)
    with pytest.raises(RuntimeError):
        with tracer.span("query", "boom", 0.0):
            raise RuntimeError("x")
    assert records[0].attrs["error"] == "RuntimeError"


def test_ids_are_sequential_and_deterministic():
    def build():
        records = []
        t = Tracer(records.append, clock=lambda: 0.0)
        with t.span("query", "q", 0.0):
            t.event("ad", "a", 0.0)
        t.event("churn", "c", 1.0)
        return [(r.id, r.kind, r.name, r.parent, r.depth) for r in records]

    assert build() == build()
    ids = [row[0] for row in build()]
    assert sorted(ids) == [1, 2, 3]


def test_counts_by_category():
    """Every sink sees every record, in emission order: here a per-category
    counter beside a list."""
    counts, records = Counter(), []
    tracer = Tracer(lambda r: counts.update([r.category]), records.append)
    tracer.event("ad", "x", 0.0)
    tracer.event("ad", "y", 0.0)
    with tracer.span("query", "q", 1.0):
        tracer.event("churn", "z", 1.0)
    assert counts == {"ad": 2, "churn": 1, "query": 1}
    assert [r.name for r in records] == ["x", "y", "z", "q"]


# ------------------------------------------------------------ JSONL round-trip
def _write(path, records):
    with open_text_maybe_gzip(path, "w") as fh:
        write = jsonl_writer(fh)
        for r in records:
            write(r)


def test_jsonl_round_trip_in_memory():
    buf, records = io.StringIO(), []
    tracer = Tracer(jsonl_writer(buf), records.append, clock=lambda: 0.0)
    with tracer.span("query", "q", 3.0, requester=7) as s:
        s.annotate(success=True)
    tracer.event("ad", "deliver.rw", 4.0, bytes=120)
    parsed = list(read_trace_lines(buf.getvalue().splitlines()))
    assert parsed == records


def test_jsonl_round_trip_via_file(tmp_path):
    records = []
    tracer = Tracer(records.append)
    tracer.event("engine", "dispatch", 1.0, event_name="trace", seq=0)
    path = tmp_path / "trace.jsonl"
    _write(path, records)
    assert list(read_trace(path)) == records


def test_gzip_round_trip_via_file(tmp_path):
    records = []
    tracer = Tracer(records.append)
    for i in range(50):
        tracer.event("engine", "dispatch", float(i), event_name="t", seq=i)
    plain = tmp_path / "trace.jsonl"
    gz = tmp_path / "trace.jsonl.gz"
    _write(plain, records)
    _write(gz, records)
    assert list(read_trace(gz)) == records == list(read_trace(plain))
    # Actually compressed, not just renamed.
    assert gz.read_bytes()[:2] == b"\x1f\x8b"
    assert gz.stat().st_size < plain.stat().st_size


def test_gzip_dump_is_deterministic(tmp_path):
    """Streaming a trace through the one gzip writer twice gives the same
    bytes: mtime 0 and no file name in the header."""
    a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
    for path in (a, b):
        with open_text_maybe_gzip(path, "w") as fh:
            tracer = Tracer(jsonl_writer(fh), clock=lambda: 0.0)
            tracer.event("engine", "dispatch", 1.0, event_name="t", seq=0)
            with tracer.span("query", "q", 2.0):
                pass
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


def test_streaming_without_keep(tmp_path):
    """The tracer hands records on and keeps none itself."""
    buf = io.StringIO()
    tracer = Tracer(jsonl_writer(buf))
    tracer.event("ad", "deliver", 0.5, bytes=1)
    with tracer.span("query", "q", 1.0):
        pass
    assert not hasattr(tracer, "records")
    parsed = list(read_trace_lines(buf.getvalue().splitlines()))
    assert [r.name for r in parsed] == ["deliver", "q"]


def test_read_trace_is_lazy(tmp_path):
    """Records come off the file one at a time, not as a list."""
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"kind":"event","cat":"ad","name":"n","t":0.0,"id":1,'
        '"parent":null,"depth":0}\nnot json\n'
    )
    records = read_trace(path)
    assert isinstance(records, types.GeneratorType)
    assert next(records).name == "n"
    with pytest.raises(json.JSONDecodeError):
        next(records)


def test_record_from_json_tolerates_missing_optionals():
    rec = TraceRecord.from_json(
        '{"kind":"event","cat":"ad","name":"n","t":0.0,"id":1,'
        '"parent":null,"depth":0}'
    )
    assert rec.dur_s is None and rec.attrs == {}


# ------------------------------------------------------------ schema version
def test_records_carry_current_schema_version():
    buf = io.StringIO()
    tracer = Tracer(jsonl_writer(buf))
    rec = tracer.event("ad", "x", 0.0)
    assert rec.schema == TRACE_SCHEMA_VERSION
    (parsed,) = read_trace_lines(buf.getvalue().splitlines())
    assert parsed.schema == TRACE_SCHEMA_VERSION
    assert '"schema":1' in rec.to_json()


def test_missing_schema_key_parses_as_v0():
    rec = TraceRecord.from_json(
        '{"kind":"event","cat":"ad","name":"n","t":0.0,"id":1,'
        '"parent":null,"depth":0}'
    )
    assert rec.schema == 0


def test_unknown_json_keys_are_ignored_forward_compat():
    # A future writer may add keys; today's reader must not choke on them.
    rec = TraceRecord.from_json(
        '{"schema":7,"kind":"event","cat":"ad","name":"n","t":0.5,"id":2,'
        '"parent":null,"depth":0,"attrs":{"a":1},"future_field":[1,2],'
        '"another":{"x":true}}'
    )
    assert rec.schema == 7
    assert rec.attrs == {"a": 1}
    assert not hasattr(rec, "future_field")


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
