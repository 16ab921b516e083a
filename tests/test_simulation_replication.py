"""Tests for multi-seed replication: ``MetricSpread`` and
``report run --replications N``."""

import contextlib
import io
import json
import math

import pytest

from repro.obs.report import main
from repro.simulation.replication import MetricSpread


class TestMetricSpread:
    def test_of_values(self):
        spread = MetricSpread.of([1.0, 2.0, 3.0])
        assert spread.mean == 2.0
        assert spread.min == 1.0 and spread.max == 3.0
        assert spread.std == pytest.approx(1.0)
        assert spread.n == 3

    def test_single_value(self):
        spread = MetricSpread.of([5.0])
        assert spread.std == 0.0 and spread.n == 1

    def test_non_finite_filtered(self):
        spread = MetricSpread.of([1.0, math.inf, math.nan, 3.0])
        assert spread.n == 2
        assert spread.mean == 2.0

    def test_all_non_finite(self):
        spread = MetricSpread.of([math.nan])
        assert spread.n == 0 and math.isnan(spread.mean)

    def test_str(self):
        assert "n=2" in str(MetricSpread.of([1.0, 2.0]))


class TestRunReplications:
    """Seeds ``seed .. seed+N-1`` through one ``run_cells`` call, their
    spread in ``run.json``."""

    ARGS = [
        "run", "--algorithm", "flooding", "--topology", "random",
        "--peers", "120", "--queries", "60", "--no-physical-network",
    ]

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """``(run.json, printed tables)`` of a three-seed run."""
        out = tmp_path_factory.mktemp("replicated")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([*self.ARGS, "--replications", "3", "--telemetry", "--out", str(out)])
        assert code == 0
        return json.loads((out / "run.json").read_text()), printed.getvalue()

    @pytest.fixture(scope="class")
    def replicated(self, run):
        return run[0]

    def test_seed_sequence(self, replicated):
        assert replicated["cell"]["seed"] == 0
        assert [doc["label"] for doc in replicated["telemetry"]] == [
            f"flooding/random/seed{seed}" for seed in (0, 1, 2)
        ]

    def test_metrics_present(self, replicated):
        metrics = replicated["replications"]["metrics"]
        for name in ("success_rate", "avg_cost_bytes", "load_mean_bpns"):
            assert metrics[name]["n"] == 3

    def test_spread_is_nontrivial(self, replicated):
        # Different seeds genuinely vary the workload.
        assert replicated["replications"]["metrics"]["avg_cost_bytes"]["std"] > 0

    def test_mean_within_extremes(self, replicated):
        for spread in replicated["replications"]["metrics"].values():
            if spread["n"]:
                assert spread["min"] <= spread["mean"] <= spread["max"]

    def test_format_table(self, run):
        table = run[1][run[1].index("flooding on random"):]
        assert table.startswith("flooding on random (3 replications, seeds [0, 1, 2])")
        assert "success_rate" in table
        assert "±" in table

    def test_invalid_n(self, tmp_path, capsys):
        """Fewer than one replication is a usage error, before any cell
        runs (it used to simulate one seed, or none, and succeed)."""
        for n in ("0", "-3"):
            out = tmp_path / n
            with pytest.raises(SystemExit) as exc:
                main([*self.ARGS, "--replications", n, "--out", str(out)])
            assert exc.value.code == 2
            assert "--replications: must be at least 1" in capsys.readouterr().err
            assert not out.exists()
