"""Parallel tracing + auditing: per-worker trace streams, fingerprint
determinism across serial and --jobs N execution."""

import json

import pytest

from repro.experiments.parallel import cell_trace_name, run_cells
from repro.obs.audit import TraceFold
from repro.obs.report import main as report_main
from repro.obs.trace import read_trace
from repro.simulation import scaled_config


def _cfg(algorithm, seed):
    return scaled_config(
        algorithm,
        "random",
        n_peers=40,
        n_queries=12,
        seed=seed,
        use_physical_network=False,
    )


@pytest.fixture(scope="module")
def serial_and_parallel(tmp_path_factory):
    configs = [_cfg("flooding", 0), _cfg("asap_rw", 0), _cfg("asap_rw", 1)]
    serial_dir = tmp_path_factory.mktemp("traces-serial")
    par_dir = tmp_path_factory.mktemp("traces-par")
    serial = run_cells(configs, jobs=1, audit=True, trace_dir=str(serial_dir))
    parallel = run_cells(configs, jobs=2, audit=True, trace_dir=str(par_dir))
    return configs, serial, serial_dir, parallel, par_dir


def test_parallel_audits_pass_and_merge_in_order(serial_and_parallel):
    configs, serial, _, parallel, _ = serial_and_parallel
    assert len(parallel) == len(configs)
    for config, outcome in zip(configs, parallel):
        assert outcome.topology == config.topology
        assert outcome.audit is not None and outcome.audit.ok
        assert outcome.fingerprint == outcome.audit.fingerprint


def test_fingerprints_bit_identical_serial_vs_jobs2(serial_and_parallel):
    _, serial, _, parallel, _ = serial_and_parallel
    assert [r.fingerprint for r in serial] == [r.fingerprint for r in parallel]
    # Distinct cells fingerprint differently.
    assert len({r.fingerprint for r in serial}) == len(serial)


def test_per_cell_trace_files_audit_clean(serial_and_parallel, tmp_path):
    configs, _, serial_dir, parallel, par_dir = serial_and_parallel
    for config, outcome in zip(configs, parallel):
        name = cell_trace_name(config)
        records = list(read_trace(par_dir / name))
        assert records, "streamed trace must not be empty"
        fold = TraceFold(config, records)
        report = fold.audit(outcome)
        assert report.ok, report.format_table()
        # One fold, two feeds: re-feeding the streamed file reproduces the
        # worker's live report, not only its fingerprint.
        assert report.to_dict() == outcome.audit.to_dict()
        # ``report analyze`` is that fold's summary of the file.
        analyzed = tmp_path / f"{name}.analyze.json"
        assert report_main(
            ["analyze", "--trace", str(par_dir / name), "--out", str(analyzed)]
        ) == 0
        assert json.loads(analyzed.read_text()) == fold.summary()
        # The serial stream wrote structurally identical trace content
        # (only wall-clock durations may differ between executions).
        serial_records = read_trace(serial_dir / name)
        def shape(rs):
            return [(r.id, r.kind, r.name, r.t, r.parent, r.depth) for r in rs]
        assert shape(records) == shape(serial_records)


def test_trace_filenames_are_deterministic():
    config = _cfg("asap_rw", 7)
    assert cell_trace_name(config) == "asap_rw-random-seed7.jsonl"


def test_replications_collect_audits_and_fingerprints():
    seeds = [_cfg("flooding", 0), _cfg("flooding", 1)]
    audited = run_cells(seeds, jobs=2, audit=True)
    assert all(r.audit.ok for r in audited)
    # One per seed, all distinct, in seed order.
    assert [r.fingerprint for r in audited] == [r.audit.fingerprint for r in audited]
    assert len({r.fingerprint for r in audited}) == 2
    # Without audit, nothing is half-populated.
    plain = run_cells(seeds, jobs=1)
    assert [(r.audit, r.fingerprint) for r in plain] == [(None, None)] * 2
