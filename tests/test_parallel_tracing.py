"""Parallel tracing + auditing: per-worker trace files, fingerprint
determinism across serial and --jobs N execution."""

import json

import pytest

from repro.experiments.parallel import cell_trace_name, run_cells
from repro.obs.actions import read_trace, records
from repro.obs.audit import audit, summary
from repro.obs.report import main as report_main
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
        log = read_trace(par_dir / name)
        assert len(log.sequence()), "the rendered trace must not be empty"
        assert outcome.actions is None  # the tables stay in the worker
        report = audit(log, config, outcome)
        assert report.ok, report.format_table()
        # The file parses back into the worker's tables: its audit is the
        # worker's live report, fingerprint included.
        assert report.to_dict() == outcome.audit.to_dict()
        # ``report analyze`` is the summary of those tables.
        analyzed = tmp_path / f"{name}.analyze.json"
        assert report_main(
            ["analyze", "--trace", str(par_dir / name), "--out", str(analyzed)]
        ) == 0
        assert json.loads(analyzed.read_text()) == summary(log)
        # The serial run wrote structurally identical trace content
        # (only wall-clock durations may differ between executions).
        def shape(log):
            return [(r["id"], r["kind"], r["name"], r["t"], r["parent"], r["depth"])
                    for r in records(log)]
        assert shape(log) == shape(read_trace(serial_dir / name))


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
