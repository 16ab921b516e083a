"""``report run`` / ``report diff``: what ``run.json`` holds, flattening and
diffing any JSON artifact."""

import json

import pytest

import repro.experiments.parallel as parallel
import repro.simulation.runner as runner
from repro.obs.report import diff_rows, flatten, main, render_diff, run_report
from repro.obs.actions import records
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment


def _sample_doc() -> dict:
    return {
        "schema": 1,
        "label": "not a number",
        "ledger": {"bytes": {"full_ad": 100.0, "query": 40}},
        "windows": [{"t": 0, "load": 2.5}, {"t": 10, "load": None}],
    }


# ------------------------------------------------------------- flatten/diff
def test_flatten_and_diff():
    flat_a = flatten(_sample_doc())
    assert flat_a == {
        "schema": 1.0,
        "ledger.bytes.full_ad": 100.0,
        "ledger.bytes.query": 40.0,
        "windows.0.t": 0.0,
        "windows.0.load": 2.5,
        "windows.1.t": 10.0,
    }

    doc_b = _sample_doc()
    doc_b["ledger"]["bytes"]["query"] += 10
    doc_b["only_b"] = 1
    rows = diff_rows(flat_a, flatten(doc_b))
    # Unchanged leaves are omitted.
    assert rows == [
        ("ledger.bytes.query", 40.0, 50.0),
        ("only_b", None, 1.0),
    ]
    # A tolerance hides the drift it covers, never a one-sided key.
    assert diff_rows(flat_a, flatten(doc_b), tolerance=10.0) == [rows[1]]


def test_diff_flat_identical_is_empty():
    flat = flatten(_sample_doc())
    assert diff_rows(flat, dict(flat)) == []
    # A run without a successful search has a NaN mean response time:
    # the report still equals itself, and differs from one with a number.
    nan = {"avg_response_time_ms": float("nan")}
    assert diff_rows(nan, dict(nan)) == []
    assert len(diff_rows(nan, {"avg_response_time_ms": 40.0}, tolerance=1e9)) == 1


def test_render_diff_identical():
    assert render_diff(_sample_doc(), _sample_doc()) == "reports are identical"


# ------------------------------------------------------- end-to-end report
def _tiny_config(algorithm="asap_rw"):
    return scaled_config(
        algorithm,
        "random",
        n_peers=40,
        n_queries=15,
        seed=0,
        use_physical_network=False,
    )


@pytest.fixture(scope="module")
def tiny_result():
    result = run_experiment(_tiny_config(), audit=True, profile=True)
    return result, list(records(result.actions))


def test_run_experiment_attaches_profile_and_diagnostics(tiny_result):
    result, rendered = tiny_result
    assert result.profile is not None
    assert result.profile.events > 0
    assert result.profile.engine_events == result.profile.events
    assert result.profile.phases["warmup"].events > 0
    # The log kept query spans (plus nested confirm_stats events) and ad
    # events.
    spans = [r for r in rendered if r["cat"] == "query" and r["kind"] == "span"]
    assert len(spans) == 15
    assert any(r["cat"] == "ad" for r in rendered)


@pytest.mark.parametrize("algorithm", ["asap_rw", "random_walk"])
def test_run_report_is_the_result_objects_own_dicts(algorithm):
    config = _tiny_config(algorithm)
    result = run_experiment(config, profile=True)
    report = run_report(config, result)
    assert sorted(report) == ["cell", "ledger", "profile", "summary"]
    assert report["cell"] == {
        "algorithm": algorithm, "topology": "random", "n_peers": 40, "seed": 0,
    }
    summary = result.summarize()
    assert summary.success_rate > 0  # or the mean response time is NaN
    assert report["summary"] == {**summary.row(), "n_queries": 15}
    assert report["profile"] == result.profile.to_dict()
    ledger = report["ledger"]
    totals = result.ledger.category_totals()
    assert totals and ledger["bytes"] == {c.value: v for c, v in totals.items()}
    assert ledger["messages"] == {
        c.value: result.ledger.total_messages([c]) for c in totals
    }
    assert ledger["window_load_bytes"] == {
        c.value: v for c, v in result.category_bytes_in_window().items()
    }
    # Nothing in it needs a custom encoder.
    assert json.loads(json.dumps(report)) == report


def test_report_cli_run_and_diff(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    common = [
        "run", "--algorithm", "random_walk", "--topology", "random",
        "--peers", "30", "--queries", "10", "--no-physical-network",
    ]
    assert main(common + ["--seed", "0", "--out", str(out_a), "--trace"]) == 0
    assert main(common + ["--seed", "1", "--out", str(out_b)]) == 0
    trace_name = "random_walk-random-seed0.jsonl"  # cell_trace_name
    assert sorted(p.name for p in out_a.iterdir()) == [trace_name, "run.json"]
    assert sorted(p.name for p in out_b.iterdir()) == ["run.json"]
    trace_lines = (out_a / trace_name).read_text().splitlines()
    assert trace_lines and all(json.loads(ln)["kind"] for ln in trace_lines)
    report = json.loads((out_a / "run.json").read_text())
    assert report["summary"]["n_queries"] == 10
    assert "replications" not in report

    captured = capsys.readouterr()
    assert "run profile" in captured.err
    assert captured.out.count("random_walk/random: success=") == 2
    assert main(["diff", str(out_a / "run.json"), str(out_b / "run.json")]) == 0
    out = capsys.readouterr().out
    assert "delta" in out and "ledger.bytes.query" in out and "cell.seed" in out


def test_replications_simulate_each_seed_once(tmp_path, monkeypatch, capsys):
    """``--replications N`` is N simulations: the profiled base run is one
    of the seeds, not an extra."""
    seeds = []

    def counting(config, **kwargs):
        seeds.append(config.seed)
        return run_experiment(config, **kwargs)

    monkeypatch.setattr(runner, "run_experiment", counting)
    monkeypatch.setattr(parallel, "run_experiment", counting)
    out = tmp_path / "rep"
    assert main([
        "run", "--algorithm", "random_walk", "--topology", "random",
        "--peers", "30", "--queries", "10", "--no-physical-network",
        "--seed", "4", "--replications", "2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert seeds == [4, 5]
    report = json.loads((out / "run.json").read_text())
    rep = report["replications"]
    assert report["cell"]["seed"] == 4
    assert all(spread["n"] == 2 for spread in rep["metrics"].values())
    assert rep["metrics"]["success_rate"]["min"] <= report["summary"]["success_rate"]
    assert rep["events"] > report["profile"]["events"]
    assert rep["wall_s"] > report["profile"]["wall_s"]
