"""Smoke test of the benchmark itself (``--smoke`` scale, about a minute).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; it is not
part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
HOST_UNITS = {"s", "us", "1/s"}  # host time: the only metrics allowed to vary
SIMULATED = (
    "success_rate", "response_ms", "msgs_per_query",
    "search_bytes_per_query", "load_bpns",
)

sys.path.insert(0, str(HERE))
from compare import verdict  # noqa: E402


def run_set(out: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "2",
         "--out", str(out), *extra],
        capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def two_sets(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    history = HERE / "results" / "history.jsonl"
    history_before = history.read_bytes()
    first = run_set(tmp / "a.json")
    assert first.returncode == 0, first.stdout + first.stderr
    second = run_set(tmp / "b.json", "--expect", str(tmp / "a.json"))
    assert second.returncode == 0, second.stdout + second.stderr
    assert history.read_bytes() == history_before  # smoke sets are not history
    return (
        json.loads((tmp / "a.json").read_text()),
        json.loads((tmp / "b.json").read_text()),
        first.stdout,
    )


def test_every_declared_metric_is_emitted_with_its_unit(two_sets):
    result, _, printed = two_sets
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for summary in result["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            emitted = summary[kind]
            assert set(emitted) == {m["name"] for m in SPEC[kind]}
            for m in SPEC[kind]:
                assert emitted[m["name"]]["unit"] == m["unit"]
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
                assert re.search(rf"^\s+{re.escape(m['name'])}\s.*\s{re.escape(m['unit'])}",
                                 printed, re.M), m["name"]
        assert summary["ops_attempted"] > 0 and summary["ops_failed"] == 0
    assert "ops_attempted" in printed and "ops_failed" in printed


def test_counts_and_simulated_statistics_repeat_exactly(two_sets):
    a, b, _ = two_sets
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        assert wa["sim_fingerprint"] == wb["sim_fingerprint"]
        assert wa["ops_attempted"] == wb["ops_attempted"]
        for metric in SIMULATED:
            assert wa["end_to_end"][metric]["samples"] == wb["end_to_end"][metric]["samples"]
            assert len(set(wa["end_to_end"][metric]["samples"])) == 1
        for metric, value in wa["per_layer"].items():
            if value["unit"] not in HOST_UNITS and not metric.startswith("bench."):
                assert value == wb["per_layer"][metric], metric


def test_wrong_expected_fingerprint_fails_every_op(two_sets, tmp_path):
    a, _, _ = two_sets
    a["workloads"]["asap_gsa_bounded"]["sim_fingerprint"] = "0" * 32
    (tmp_path / "wrong.json").write_text(json.dumps(a))
    proc = run_set(tmp_path / "c.json", "--workload", "asap_gsa_bounded",
                   "--expect", str(tmp_path / "wrong.json"))
    assert proc.returncode != 0
    summary = json.loads((tmp_path / "c.json").read_text())["workloads"]["asap_gsa_bounded"]
    assert summary["ops_failed"] == summary["ops_attempted"] > 0
    assert "!!!!" in proc.stdout


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ((10.0, 9.9, 10.1), (10.4, 10.3, 10.5), "lower", "same"),
        ((10.0, 9.9, 10.1), (12.0, 11.9, 12.1), "lower", "worse"),
        ((10.0, 9.9, 10.1), (12.0, 11.9, 12.1), "higher", "better"),
        ((10.0, 8.0, 12.0), (11.5, 9.5, 13.5), "lower", "unresolved"),
        ((10.0, 8.0, 12.0), (14.0, 12.5, 16.0), "lower", "worse"),
        ((10.0, 8.0, 12.0), (6.0, 5.0, 7.5), "lower", "better"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    def stats(t):
        return {"median": t[0], "min": t[1], "max": t[2]}

    assert verdict(stats(a), stats(b), better, 0.10) == expected
