"""Tests for the run-everything report generator."""

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.runall import build_report, main

TINY = ExperimentScale(
    n_peers=120,
    n_queries=100,
    seed=1,
    use_physical_network=False,
    algorithms=("flooding", "random_walk", "asap_rw"),
    topologies=("random",),
)


@pytest.fixture(scope="module")
def report():
    return build_report(TINY)


class TestBuildReport:
    def test_contains_all_figures(self, report):
        for n in (2, 3, 4, 5, 6, 7, 8, 9, 10):
            assert f"Figure {n}" in report

    def test_contains_shape_checks(self, report):
        assert "## Shape checks" in report
        assert "- [" in report

    def test_scale_recorded(self, report):
        assert "peers: 120" in report
        assert "queries: 100" in report

    def test_progress_callback_invoked(self):
        messages = []
        build_report(TINY, progress=messages.append)
        assert any("figure 7" in m for m in messages)


class TestAuditSection:
    def test_audit_section_lists_cells_and_fingerprints(self):
        from repro.experiments.figures import ExperimentGrid

        scale = ExperimentScale(
            n_peers=60,
            n_queries=30,
            seed=1,
            use_physical_network=False,
            algorithms=("flooding", "random_walk", "asap_rw"),
            topologies=("random",),
            audit=True,
        )
        grid = ExperimentGrid(scale)
        report = build_report(scale, grid=grid)
        assert "## Audit" in report
        assert "PASS" in report and "fingerprint" in report
        assert "Audit violations detected" not in report
        # Every populated cell carries its audit report + fingerprint.
        for result in grid._results.values():
            assert result.audit is not None and result.audit.ok
            assert result.fingerprint == result.audit.fingerprint


class TestTelemetrySection:
    def test_telemetry_section_renders_without_traces(self):
        from repro.experiments.figures import ExperimentGrid

        scale = ExperimentScale(
            n_peers=60,
            n_queries=30,
            seed=1,
            use_physical_network=False,
            algorithms=("flooding", "random_walk", "asap_rw"),
            topologies=("random",),
            telemetry=True,
        )
        grid = ExperimentGrid(scale)
        report = build_report(scale, grid=grid)
        assert "## Telemetry" in report
        assert "B/node/s" in report  # the Fig-9-style window table
        assert "hottest peers" in report  # top-K hotspot table
        assert "Sweep-wide hotspots" in report
        for result in grid._results.values():
            assert result.telemetry is not None

    def test_live_callback_streams_during_build(self):
        lines = []
        scale = ExperimentScale(
            n_peers=60,
            n_queries=30,
            seed=1,
            use_physical_network=False,
            algorithms=("flooding", "random_walk", "asap_rw"),
            topologies=("random",),
            telemetry=True,
        )
        build_report(scale, live=lines.append)
        assert lines  # per-cell status reached the sink


class TestMain:
    def test_writes_output_file(self, tmp_path, monkeypatch):
        # main() always builds a fresh grid; keep it minuscule by pointing
        # the scale at the module-level tiny values via CLI args.
        out = tmp_path / "report.md"
        rc = main(
            [
                "--peers", "120",
                "--queries", "60",
                "--seed", "2",
                "--output", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "# ASAP reproduction report" in text
        assert "generated in" in text

    def test_scheduler_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scheduler", "heap"])
        assert exc.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err
