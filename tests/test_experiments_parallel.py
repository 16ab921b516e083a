"""Determinism and crash isolation of the parallel experiment layer.

The headline guarantee: ``jobs=N`` produces **bit-identical** results to
the serial path, because every cell derives all randomness from its own
config seed and workers run the exact same runner.  These tests assert
equality of full ``RunSummary`` dataclasses (float equality, not approx).
"""

from dataclasses import replace

import pytest

from repro.asap.state import BYTES_PER_PAIR, MAX_STATE_BYTES, require_state_fits
from repro.experiments.campaign import run_campaign
from repro.experiments.export import figures_to_csv
from repro.experiments.figures import ExperimentGrid, ExperimentScale
from repro.experiments.parallel import CellFailure, resolve_jobs, run_cells
from repro.experiments.runall import render_report
from repro.simulation import run_experiment, scaled_config
from repro.simulation.replication import summary_spreads


def _tiny(algorithm, seed=0, physical=False):
    return scaled_config(
        algorithm,
        "random",
        n_peers=120,
        n_queries=40,
        seed=seed,
        use_physical_network=physical,
    )


def _bogus_config():
    """A config that pickles fine but fails inside the worker."""
    config = _tiny("flooding")
    # Bypass frozen-dataclass validation: the runner's algorithm dispatch
    # raises on this name, which is exactly the failure we want isolated.
    object.__setattr__(config, "algorithm", "bogus")
    return config


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1


class TestRunCellsDeterminism:
    @pytest.fixture(scope="class")
    def configs(self):
        return [_tiny("flooding"), _tiny("random_walk"), _tiny("flooding", seed=1)]

    def test_parallel_matches_serial_bitwise(self, configs):
        serial = run_cells(configs, jobs=1)
        parallel = run_cells(configs, jobs=2)
        assert len(serial) == len(parallel) == len(configs)
        for s, p in zip(serial, parallel):
            assert s.summarize() == p.summarize()

    def test_order_is_input_order(self, configs):
        outcomes = run_cells(configs, jobs=2)
        assert [o.algorithm for o in outcomes] == [
            "flooding", "random_walk", "flooding",
        ]
        assert outcomes[2].ledger.category_totals()  # real payload came back

    def test_physical_network_parallel_matches_serial(self):
        configs = [
            scaled_config(
                algo, "random", n_peers=40, n_queries=10, seed=2,
            )
            for algo in ("flooding", "random_walk")
        ]
        serial = run_cells(configs, jobs=1)
        parallel = run_cells(configs, jobs=2)
        for s, p in zip(serial, parallel):
            assert s.summarize() == p.summarize()

    def test_profiles_travel_back(self):
        (outcome,) = run_cells([_tiny("flooding")], jobs=2, profile=True)
        assert outcome.profile is not None
        assert outcome.profile.events > 0


class TestCrashIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_reports_and_siblings_survive(self, jobs):
        configs = [_tiny("flooding"), _bogus_config(), _tiny("random_walk")]
        outcomes = run_cells(configs, jobs=jobs)
        assert outcomes[0].algorithm == "flooding"
        assert outcomes[2].algorithm == "random_walk"
        failure = outcomes[1]
        assert isinstance(failure, CellFailure)
        assert failure.config.algorithm == "bogus"
        assert "ValueError" in failure.traceback
        assert "bogus" in failure.describe()

    def test_oversized_asap_cell_is_a_named_failure(self):
        """ASAP's ads state is dense (Theta(n^2) bytes): a peer count past
        the memory bar is refused before any substrate is built, with the
        bytes it would need, and the sweep carries on."""
        n = 40_000
        need = n * n * BYTES_PER_PAIR
        assert need > MAX_STATE_BYTES
        with pytest.raises(ValueError, match=f"{need:,} bytes"):
            require_state_fits(n)
        too_big = scaled_config("asap_rw", "random", n_peers=n, n_queries=10)
        failure, sibling = run_cells([too_big, _tiny("flooding")], jobs=1)
        assert isinstance(failure, CellFailure)
        assert "ValueError" in failure.error
        assert f"{need:,} bytes" in failure.error and "40000 peers" in failure.error
        assert sibling.algorithm == "flooding"

    def test_the_memory_bar_counts_what_the_cell_allocates(self):
        """8 bytes a pair unbounded, 12 with a cache bound (its eviction
        tie-break): each limit is the largest square under the bar, and
        the refusal names which one it applied."""
        require_state_fits(32_768)
        with pytest.raises(
            ValueError,
            match=r"32769 peers need 8,590,458,888 bytes at 8 a pair.*"
            r"at most 32768 peers with an unbounded ads cache",
        ):
            require_state_fits(32_769)
        require_state_fits(26_754, capacity=8)
        with pytest.raises(
            ValueError, match=r"at 12 a pair.*at most 26754 peers with a bounded"
        ):
            require_state_fits(26_755, capacity=8)
        # The runner's up-front check reads the cell's bound.
        cell = scaled_config("asap_rw", "random", n_peers=26_755, n_queries=10)
        cell = replace(cell, asap=replace(cell.asap, cache_capacity=8))
        with pytest.raises(ValueError, match="26754 peers with a bounded"):
            run_experiment(cell)

    def test_unbuildable_shared_workload_fails_only_its_cells(self, monkeypatch):
        """Two cells share a workload whose build raises: the parent's build
        before the fork raises, and each of the two cells reports that
        error while their sibling completes.  (``EdonkeyParams`` rejects
        every config known to fail synthesis, so the failure is injected;
        the forked workers inherit it.)"""
        from repro.network import substrate

        build = substrate._build_workload

        def unbuildable(edonkey, trace, seed):
            if seed == 5:
                raise ValueError("no content distribution for seed 5")
            return build(edonkey, trace, seed)

        monkeypatch.setattr(substrate, "_build_workload", unbuildable)
        bad = [_tiny("flooding", seed=5), _tiny("random_walk", seed=5)]
        outcomes = run_cells(bad + [_tiny("flooding")], jobs=2)
        assert [type(o).__name__ for o in outcomes] == [
            "CellFailure", "CellFailure", "RunResult",
        ]
        assert all("no content distribution for seed 5" in o.error for o in outcomes[:2])

    def test_replication_failure_raises_with_traceback(
        self, monkeypatch, tmp_path, capsys
    ):
        # RunConfig validation catches bad configs before any worker runs,
        # so inject a runtime failure into the (serial) cell runner instead.
        import repro.experiments.parallel as parallel_mod
        from repro.obs.report import main

        real = parallel_mod.run_experiment

        def flaky(config, **kwargs):
            if config.seed == 1:
                raise ValueError("injected replication failure")
            return real(config, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_experiment", flaky)
        ok, failed = run_cells([_tiny("flooding", seed=s) for s in (0, 1)])
        assert ok.algorithm == "flooding"
        assert "injected replication failure" in failed.traceback
        # A replicated report fails as a whole, traceback on stderr.
        assert main([
            "run", "--algorithm", "flooding", "--topology", "random",
            "--peers", "120", "--queries", "40", "--no-physical-network",
            "--replications", "2", "--out", str(tmp_path),
        ]) == 1
        assert "ValueError: injected replication failure" in capsys.readouterr().err


class TestReplicationParallelism:
    def test_parallel_replications_bit_identical(self):
        configs = [_tiny("flooding", seed=s) for s in (0, 1, 2)]
        serial = [r.summarize() for r in run_cells(configs, jobs=1)]
        parallel = [r.summarize() for r in run_cells(configs, jobs=2)]
        assert serial == parallel
        assert summary_spreads(serial) == summary_spreads(parallel)


class TestGridParallelism:
    SCALE_KW = dict(
        n_peers=120,
        n_queries=40,
        use_physical_network=False,
        algorithms=("flooding", "random_walk"),
        topologies=("random",),
    )

    def test_prefetched_grid_matches_serial(self):
        serial = ExperimentGrid(ExperimentScale(**self.SCALE_KW))
        parallel = ExperimentGrid(ExperimentScale(jobs=2, **self.SCALE_KW))
        parallel.prefetch()
        for algo in ("flooding", "random_walk"):
            s = serial.result(algo, "random").summarize()
            p = parallel.result(algo, "random").summarize()
            assert s == p

    def test_prefetch_is_idempotent(self):
        grid = ExperimentGrid(ExperimentScale(jobs=2, **self.SCALE_KW))
        grid.prefetch()
        results = grid.results()
        assert list(results) == grid.scale.cells()  # keyed by RunConfig
        grid.prefetch()  # all cells cached: no recompute, same objects
        assert all(grid.results()[k] is results[k] for k in results)

    def test_serial_grid_populates_through_run_cells_too(self, monkeypatch):
        """One population path: ``result()`` on a serial grid is a
        ``run_cells`` call with the scale's flags, not a runner call."""
        import repro.experiments.figures as figures_mod

        calls = []
        real = figures_mod.run_cells

        def spy(configs, **kwargs):
            calls.append((list(configs), kwargs))
            return real(configs, **kwargs)

        monkeypatch.setattr(figures_mod, "run_cells", spy)
        grid = ExperimentGrid(ExperimentScale(profile=True, **self.SCALE_KW))
        result = grid.result("flooding", "random")
        assert result.profile is not None
        assert grid.result("flooding", "random") is result
        ((configs, kwargs),) = calls
        assert configs == [grid.scale.config("flooding", "random")]
        assert kwargs["jobs"] == 1 and kwargs["profile"] is True

    def test_failed_cell_raises_with_config_and_traceback_siblings_kept(self):
        grid = ExperimentGrid(ExperimentScale(**self.SCALE_KW))
        good = grid.scale.config("flooding", "random")
        with pytest.raises(RuntimeError) as exc:
            grid.prefetch([good, _bogus_config()])
        message = str(exc.value)
        assert "1 grid cell(s) failed" in message
        assert "bogus/random (seed 0) failed" in message  # the config...
        assert "Traceback" in message and "ValueError" in message  # ...and why
        assert list(grid.results()) == [good]

    def test_metric_triggers_prefetch(self):
        grid = ExperimentGrid(ExperimentScale(jobs=2, **self.SCALE_KW))
        values = grid.metric(lambda r: r.success_rate())
        assert set(values) == {"flooding", "random_walk"}


class TestRunallParallel:
    def test_report_bit_identical_across_jobs(self):
        kw = dict(
            n_peers=100,
            n_queries=60,
            seed=3,
            use_physical_network=False,
            algorithms=("flooding", "random_walk", "asap_rw"),
            topologies=("random",),
        )

        def campaign(scale):
            grid = ExperimentGrid(scale)
            figures = run_campaign(grid)
            return render_report(grid, figures), figures_to_csv(figures.values())

        serial_md, serial_csv = campaign(ExperimentScale(**kw))
        parallel_md, parallel_csv = campaign(ExperimentScale(jobs=2, **kw))
        assert parallel_md == serial_md
        assert parallel_csv == serial_csv
