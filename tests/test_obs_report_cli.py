"""CLI subcommands: audit (violations + baseline gate), analyze, telemetry,
the diff gate over every artifact."""

import json

import pytest

from repro.obs.report import main

COMMON = [
    "--algorithm", "asap_rw", "--topology", "random",
    "--peers", "40", "--queries", "12", "--no-physical-network",
]


@pytest.fixture(scope="module")
def audit_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("audit") / "run"
    code = main(["audit", *COMMON, "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


def test_audit_writes_artifacts(audit_out):
    report = json.loads((audit_out / "audit.json").read_text())
    assert report["ok"] is True
    assert len(report["fingerprint"]) == 32
    assert report["checks"]["ledger_conservation"] == "pass"
    assert (audit_out / "trace.jsonl").stat().st_size > 0
    analysis = json.loads((audit_out / "analyze.json").read_text())
    assert analysis["queries"] == 12


def test_audit_baseline_match_and_mismatch(audit_out, tmp_path):
    out2 = tmp_path / "again"
    assert main([
        "audit", *COMMON, "--seed", "0", "--out", str(out2),
        "--baseline", str(audit_out / "audit.json"),
    ]) == 0
    # A different seed fingerprints differently -> gate trips.
    out3 = tmp_path / "drift"
    assert main([
        "audit", *COMMON, "--seed", "9", "--out", str(out3),
        "--baseline", str(audit_out / "audit.json"),
    ]) == 1


def test_audit_baseline_accepts_bare_fingerprint(audit_out, tmp_path):
    fp = json.loads((audit_out / "audit.json").read_text())["fingerprint"]
    bare = tmp_path / "baseline.txt"
    bare.write_text(fp + "\n")
    out = tmp_path / "bare"
    assert main([
        "audit", *COMMON, "--seed", "0", "--out", str(out),
        "--baseline", str(bare),
    ]) == 0


def test_analyze_reads_trace_without_sim_stack(audit_out, tmp_path, capsys):
    out_file = tmp_path / "analysis.json"
    assert main([
        "analyze", "--trace", str(audit_out / "trace.jsonl"),
        "--out", str(out_file),
    ]) == 0
    data = json.loads(out_file.read_text())
    assert data["queries"] == 12
    assert "category_bytes" in data
    # stdout mode
    capsys.readouterr()
    assert main(["analyze", "--trace", str(audit_out / "trace.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["queries"] == 12


def test_analyze_reads_gzip_trace(audit_out, tmp_path, capsys):
    import gzip

    gz = tmp_path / "trace.jsonl.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write((audit_out / "trace.jsonl").read_text())
    capsys.readouterr()
    assert main(["analyze", "--trace", str(gz)]) == 0
    assert json.loads(capsys.readouterr().out)["queries"] == 12


def test_telemetry_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "tel"
    code = main(["telemetry", *COMMON, "--seed", "0", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "B/node/s" in printed
    assert "hottest peers" in printed
    data = json.loads((out / "telemetry.json").read_text())
    assert data["schema"] == 1
    assert data["cells"] == 1
    assert data["totals"]["queries"] == 12
    # The sketch quantiles no file but telemetry.json's raw buckets holds.
    sketches = {
        line.split()[0]: line.split()[1:]
        for line in printed[printed.index("sketch "):].splitlines()[1:5]
    }
    assert list(sketches) == [
        "response_time_ms", "query_cost_bytes", "delivery_bytes", "per_peer_bytes",
    ]
    assert sketches["query_cost_bytes"][0] == "12"
    assert int(sketches["response_time_ms"][0]) == data["response_time_ms"]["count"]
    # One artifact, no trace: telemetry is the trace-free path.
    assert [p.name for p in out.iterdir()] == ["telemetry.json"]


def test_telemetry_replications_merge(tmp_path):
    out = tmp_path / "tel-rep"
    code = main([
        "telemetry", *COMMON, "--seed", "0",
        "--replications", "2", "--jobs", "2", "--out", str(out),
    ])
    assert code == 0
    data = json.loads((out / "telemetry.json").read_text())
    assert data["cells"] == 2
    assert data["totals"]["queries"] == 24


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
    """One of each JSON artifact the CLI writes."""
    out = tmp_path_factory.mktemp("artifacts")
    assert main(["run", *COMMON, "--out", str(out)]) == 0
    assert main([
        "telemetry", *COMMON, "--probes", "--probe-interval", "5", "--out", str(out),
    ]) == 0
    return {
        "run.json": out / "run.json",
        "telemetry.json": out / "telemetry.json",
        "state.json": out / "state.json",
        "audit.json": audit_out / "audit.json",
    }


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
    "command,artifact",
    [
        ("run", "run.json"),
        ("audit", "audit.json"),
        ("telemetry", "telemetry.json"),
    ],
)
def test_cell_flags_are_shared(command, artifact, tmp_path, capsys):
    """``run``, ``audit`` and ``telemetry`` name their cell with the same
    flags (one parent parser) and build the same config from them."""
    out = tmp_path / command
    assert main([command, *COMMON, "--seed", "3", "--out", str(out)]) == 0
    assert (out / artifact).stat().st_size > 0
    # A flag outside the shared set is still an error, not silently eaten.
    with pytest.raises(SystemExit):
        main([command, *COMMON, "--no-such-cell-flag"])
    capsys.readouterr()
