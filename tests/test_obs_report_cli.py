"""CLI subcommands: ``run`` with runall's observer flags (audit, telemetry,
probes, trace), ``analyze`` over its trace, the diff gate over ``run.json``
and each of its sections."""

import json

import pytest

from repro.obs.report import main

COMMON = [
    "--algorithm", "asap_rw", "--topology", "random",
    "--peers", "40", "--queries", "12", "--no-physical-network",
]
TRACE = "asap_rw-random-seed0.jsonl"
BASE_KEYS = {"cell", "summary", "ledger", "profile"}


@pytest.fixture(scope="module")
def audit_out(tmp_path_factory):
    """One traced run with every observer on."""
    out = tmp_path_factory.mktemp("audit") / "run"
    code = main([
        "run", *COMMON, "--seed", "0", "--audit", "--trace",
        "--telemetry", "--probes", "--probe-interval", "5", "--out", str(out),
    ])
    assert code == 0
    return out


def test_audit_writes_artifacts(audit_out):
    assert sorted(p.name for p in audit_out.iterdir()) == [TRACE, "run.json"]
    (report,) = json.loads((audit_out / "run.json").read_text())["audit"]
    assert report["ok"] is True
    assert len(report["fingerprint"]) == 32
    assert report["checks"]["ledger_conservation"] == "pass"
    assert (audit_out / TRACE).stat().st_size > 0


def test_audit_baseline_match_and_mismatch(audit_out, tmp_path, capsys):
    """A stored ``run.json`` is the baseline: the same seed reproduces its
    fingerprint, another seed does not."""
    baseline = json.loads((audit_out / "run.json").read_text())["audit"][0]

    def fingerprint(seed):
        out = tmp_path / f"seed{seed}"
        assert main(["run", *COMMON, "--seed", str(seed), "--audit", "--out", str(out)]) == 0
        return json.loads((out / "run.json").read_text())["audit"][0]["fingerprint"]

    assert fingerprint(0) == baseline["fingerprint"]
    assert fingerprint(9) != baseline["fingerprint"]
    capsys.readouterr()


def test_analyze_reads_trace_without_sim_stack(audit_out, tmp_path, capsys):
    out_file = tmp_path / "analysis.json"
    assert main([
        "analyze", "--trace", str(audit_out / TRACE), "--out", str(out_file),
    ]) == 0
    data = json.loads(out_file.read_text())
    assert data["queries"] == 12
    assert "category_bytes" in data
    # stdout mode
    capsys.readouterr()
    assert main(["analyze", "--trace", str(audit_out / TRACE)]) == 0
    assert json.loads(capsys.readouterr().out)["queries"] == 12


def test_analyze_reads_gzip_trace(audit_out, tmp_path, capsys):
    import gzip

    gz = tmp_path / "trace.jsonl.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write((audit_out / TRACE).read_text())
    capsys.readouterr()
    assert main(["analyze", "--trace", str(gz)]) == 0
    assert json.loads(capsys.readouterr().out)["queries"] == 12


def test_telemetry_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "tel"
    code = main(["run", *COMMON, "--seed", "0", "--telemetry", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "B/node/s" in printed
    assert "hottest peers" in printed
    (data,) = json.loads((out / "run.json").read_text())["telemetry"]
    assert data["schema"] == 2
    assert data["label"] == "asap_rw/random/seed0"
    assert data["totals"]["queries"] == 12
    # The printed digests are the document's.
    digests = {
        line.split()[0]: line.split()[1:]
        for line in printed[printed.index("digest "):].splitlines()[1:5]
    }
    assert list(digests) == [
        "response_time_ms", "query_cost_bytes", "delivery_bytes", "per_peer_bytes",
    ]
    assert digests["query_cost_bytes"][0] == "12"
    assert int(digests["response_time_ms"][0]) == data["response_time_ms"]["count"]
    assert float(digests["per_peer_bytes"][2]) == data["per_peer_bytes"]["p50"]
    # One artifact, no trace: telemetry is the trace-free path.
    assert [p.name for p in out.iterdir()] == ["run.json"]


def test_telemetry_replications_merge(tmp_path, capsys):
    out = tmp_path / "tel-rep"
    code = main([
        "run", *COMMON, "--seed", "0", "--telemetry",
        "--replications", "2", "--jobs", "2", "--out", str(out),
    ])
    assert code == 0
    data = json.loads((out / "run.json").read_text())["telemetry"]
    # Each seed keeps its own document: their peers are different peers.
    assert [doc["totals"]["queries"] for doc in data] == [12, 12]
    assert [doc["label"] for doc in data] == [
        "asap_rw/random/seed0", "asap_rw/random/seed1",
    ]
    printed = capsys.readouterr().out
    assert printed.index("telemetry of asap_rw/random/seed0") < printed.index(
        "telemetry of asap_rw/random/seed1"
    )


def test_probes_with_no_tick_fail_naming_interval_and_horizon(tmp_path, capsys):
    """The default 60 s cadence never fires inside a ~33 s replay: that is
    an empty state series, not a result."""
    out = tmp_path / "no-tick"
    assert main(["run", *COMMON, "--probes", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert json.loads((out / "run.json").read_text())["state"][0]["ticks"] == []
    assert "60 s probe interval" in err and "s simulated horizon" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--probe-interval", "0"], "probe_interval_s must be > 0"),
        (["--peers", "5"], "n_peers must be >= 10"),
        (["--replications", "0"], "must be at least 1"),
    ],
    ids=["probe-interval-0", "peers-5", "replications-0"],
)
def test_nonsense_cell_is_a_usage_error(flags, message, tmp_path, capsys):
    """A cell ``RunConfig`` rejects exits 2 with its message, not a
    traceback, and writes nothing."""
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["run", *COMMON, *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_diff_tolerance_gate(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"totals": {"bytes": 100.0}}))
    b.write_text(json.dumps({"totals": {"bytes": 100.5}}))
    # No tolerance flag: informational, always 0.
    assert main(["diff", str(a), str(b)]) == 0
    # Within tolerance: 0; beyond it: 1.
    assert main(["diff", str(a), str(b), "--tolerance", "1.0"]) == 0
    assert main(["diff", str(a), str(b), "--tolerance", "0.1"]) == 1
    # Zero tolerance on identical reports passes.
    assert main(["diff", str(a), str(a), "--tolerance", "0"]) == 0
    capsys.readouterr()


def test_diff_tolerance_fails_on_one_sided_series(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"totals": {"bytes": 1.0}}))
    b.write_text(json.dumps({"totals": {"bytes": 1.0, "extra": 0.0}}))
    assert main(["diff", str(a), str(b), "--tolerance", "1e9"]) == 1
    assert "totals.extra" in capsys.readouterr().out


@pytest.fixture(scope="module")
def artifacts(audit_out, tmp_path_factory):
    """``run.json`` and each observer section of it as a document of its
    own: ``diff`` reads any nested JSON."""
    out = tmp_path_factory.mktemp("artifacts")
    doc = json.loads((audit_out / "run.json").read_text())
    sections = {
        "run.json": doc,
        "telemetry.json": doc["telemetry"],
        "state.json": doc["state"],
        "audit.json": doc["audit"][0],
    }
    for name, section in sections.items():
        (out / name).write_text(json.dumps(section))
    return {name: out / name for name in sections}


def _first_numeric_leaf(doc, path=()):
    """``(path, value)`` of the first number (or flag) in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            found = _first_numeric_leaf(value, path + (key,))
            if found is not None:
                return found
        elif isinstance(value, (int, float)):
            return path + (key,), value
    return None


@pytest.mark.parametrize(
    "name", ["run.json", "telemetry.json", "state.json", "audit.json"]
)
def test_diff_reads_every_artifact(name, artifacts, tmp_path, capsys):
    original = artifacts[name]
    capsys.readouterr()
    assert main(["diff", str(original), str(original), "--tolerance", "0"]) == 0
    assert capsys.readouterr().out.strip() == "reports are identical"

    # One changed leaf: exactly that dotted key is listed.
    doc = json.loads(original.read_text())
    path, value = _first_numeric_leaf(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value + 2
    changed = tmp_path / name
    changed.write_text(json.dumps(doc))
    assert main(["diff", str(original), str(changed), "--tolerance", "0"]) == 1
    assert main(["diff", str(original), str(changed), "--tolerance", "2"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in listed] == [
        "key", ".".join(map(str, path)), "key", ".".join(map(str, path)),
    ]
    assert listed[1].split()[-1] == "+2"

    # A key on one side only fails any tolerance.
    del node[path[-1]]
    changed.write_text(json.dumps(doc))
    assert main(["diff", str(original), str(changed), "--tolerance", "1e12"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags,sections",
    [
        ([], set()),
        (["--audit"], {"audit"}),
        (["--telemetry"], {"telemetry"}),
        (["--probes", "--probe-interval", "5"], {"state"}),
        (["--audit", "--telemetry", "--probes", "--probe-interval", "5"],
         {"audit", "telemetry", "state"}),
    ],
    ids=["none", "audit", "telemetry", "probes", "all"],
)
def test_run_observer_flags(flags, sections, tmp_path, capsys):
    """Each observer flag adds exactly its section to ``run.json``, for the
    cell the shared flags name."""
    out = tmp_path / "run"
    assert main(["run", *COMMON, "--seed", "3", *flags, "--out", str(out)]) == 0
    doc = json.loads((out / "run.json").read_text())
    assert set(doc) == BASE_KEYS | sections
    assert doc["cell"] == {
        "algorithm": "asap_rw", "topology": "random", "n_peers": 40, "seed": 3,
    }
    assert doc["summary"]["n_queries"] == 12
    if "audit" in sections:
        assert [report["ok"] for report in doc["audit"]] == [True]
    if "telemetry" in sections:
        assert [t["label"] for t in doc["telemetry"]] == ["asap_rw/random/seed3"]
    if "state" in sections:
        (state,) = doc["state"]
        assert state["interval_s"] == 5 and state["ticks"]
    # A flag outside the run's set is still an error, not silently eaten.
    with pytest.raises(SystemExit):
        main(["run", *COMMON, "--no-such-cell-flag"])
    capsys.readouterr()
