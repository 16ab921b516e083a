"""Tests for the run-everything report generator."""

import pytest

from repro.experiments import ENTRIES, ExperimentGrid, ExperimentScale
from repro.experiments import run_campaign
from repro.experiments.runall import main, render_report

# A subset scale on purpose: neither flooding nor a crawled overlay, so the
# report must add Figure 7's and Figure 10's cells and mark the claims that
# name what was not run (the parent crashed here with KeyError: 'flooding'
# after every cell had finished).
TINY = ExperimentScale(
    n_peers=120,
    n_queries=100,
    seed=1,
    use_physical_network=False,
    algorithms=("asap_rw", "random_walk"),
    topologies=("random",),
)

@pytest.fixture(scope="module")
def progress():
    return []


@pytest.fixture(scope="module")
def report(progress):
    grid = ExperimentGrid(TINY)
    return render_report(grid, run_campaign(grid, progress=progress.append))


class TestBuildReport:
    def test_contains_all_figures(self, report):
        for n in (2, 3, 4, 5, 6, 7, 8, 9, 10):
            assert f"```\nFigure {n}: " in report
        assert report.count("```\nAblation: ") == 6
        assert report.count("```\n") == 2 * len(ENTRIES)  # one fenced table each

    def test_contains_shape_checks(self, report):
        assert "## Claims" in report
        claims = [line for line in report.splitlines() if line.startswith("- [")]
        assert claims and all(": " in line for line in claims)

    def test_subset_scale_marks_unrun_claims_and_names_added_cells(self, report):
        n_claims = sum(len(entry.claims) for entry in ENTRIES)
        lines = report[report.index("## Claims"):].splitlines()
        listed = [l for l in lines if l.startswith(("- [x] ", "- [ ] ", "- n/a "))]
        assert len(listed) == n_claims
        # Claims naming flooding, GSA or ASAP(FLD) are outside this scale...
        assert "- n/a Figure 5: random_walk >= flooding on every overlay" in report
        assert "- n/a Figure 8: ASAP(FLD) > ASAP(GSA) on every overlay" in report
        # ...as is one the paper makes for overlays this scale lacks...
        assert "- n/a Figure 4: gsa >= random_walk on random and crawled" in report
        # ...the ones on what did run are evaluated...
        assert "] Figure 8: ASAP(RW) < random_walk on every overlay" in report
        # ...and Figures 7 and 10 say which cells they ran beyond the grid.
        assert "_Figure 7 added cells outside the scale's grid: asap_rw/crawled_" in report
        assert (
            "_Figure 10 added cells outside the scale's grid: flooding/crawled, "
            "random_walk/crawled, gsa/crawled, asap_rw/crawled_" in report
        )

    def test_scale_recorded(self, report):
        assert "peers: 120" in report
        assert "queries: 100" in report

    def test_progress_callback_invoked(self, report, progress):
        assert any(m == "Figure 7" for m in progress)
        assert any("ASAP(RW)/crawled done" in m for m in progress)  # per-cell lines


@pytest.fixture(scope="module")
def observed():
    """One campaign with the auditor and telemetry both on."""
    scale = ExperimentScale(
        n_peers=60,
        n_queries=30,
        seed=1,
        use_physical_network=False,
        algorithms=("flooding", "random_walk", "asap_rw"),
        topologies=("random",),
        audit=True,
        telemetry=True,
    )
    grid = ExperimentGrid(scale)
    return grid, render_report(grid, run_campaign(grid))


class TestAuditSection:
    def test_audit_section_lists_cells_and_fingerprints(self, observed):
        grid, report = observed
        assert "## Audit" in report
        assert "PASS" in report and "fingerprint" in report
        assert "Audit violations detected" not in report
        # Every populated cell -- ablation cells included -- carries its
        # audit report + fingerprint, and the section lists each once.
        results = grid.results()
        assert report.count(" PASS fingerprint `") == len(results)
        assert "`asap_rw/crawled [250 peers, budget_unit=18]` PASS" in report
        for result in results.values():
            assert result.audit is not None and result.audit.ok
            assert result.fingerprint == result.audit.fingerprint


class TestTelemetrySection:
    def test_telemetry_section_renders_without_traces(self, observed):
        grid, report = observed
        assert "## Telemetry" in report
        assert "B/node/s" in report  # the Fig-9-style window table
        assert "hottest peers" in report  # top-K hotspot table
        # Node ids of different overlays name different peers: no section
        # adds them up across the sweep.
        assert "Sweep-wide hotspots" not in report
        for result in grid.results().values():
            assert result.telemetry is not None


class TestMain:
    def test_writes_output_file(self, tmp_path, capsys):
        # main() always builds a fresh grid; keep it minuscule by pointing
        # the scale at the module-level tiny values via CLI args.
        out = tmp_path / "report.md"
        rc = main(
            [
                "--peers", "60",
                "--queries", "30",
                "--seed", "2",
                "--output", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "# ASAP reproduction report" in text
        # The body is byte-comparable: wall-clock goes to stderr.
        assert "generated in" not in text
        assert "generated in" in capsys.readouterr().err
        # The machine-readable twin lands beside it.
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("figure,series,x,y\n")
        assert "\nFigure 4,flooding,random," in csv_text
        assert "\nAblation hops,success,0," in csv_text

    def test_scheduler_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scheduler", "heap"])
        assert exc.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_nonsense_cell_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--peers", "5"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "n_peers must be >= 10" in capsys.readouterr().err
