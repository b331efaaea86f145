"""Tests for repro.experiments (fast configurations).

Experiment correctness at paper scale is exercised by the benchmark
suite; these tests verify the drivers' mechanics on small budgets and
short horizons.
"""

import pytest

from repro.errors import ReproError
from repro.experiments.ablations import (
    run_policy_sweep,
    run_solver_agreement,
    run_split_vs_quadratic,
)
from repro.experiments.common import POST, PRE, TIMEOUT, ScenarioExperiment
from repro.experiments.figure3 import run_figure3
from repro.experiments.headline import run_headline
from repro.experiments.table1 import run_table1

FAST_SIZER = {"joint_state_limit": 300}


@pytest.fixture(scope="module")
def small_experiment():
    return ScenarioExperiment.build(
        "netproc",
        budget=80,
        calibration_duration=300.0,
        sizer_kwargs=FAST_SIZER,
    )


class TestNetprocScenarioExperiment:
    def test_three_configurations(self, small_experiment):
        assert set(small_experiment.allocations) == {PRE, POST, TIMEOUT}

    def test_budgets_exact(self, small_experiment):
        for name in (PRE, POST):
            assert small_experiment.allocations[name].total == 80

    def test_timeout_shares_pre_allocation(self, small_experiment):
        assert (
            small_experiment.allocations[TIMEOUT]
            is small_experiment.allocations[PRE]
        )

    def test_threshold_positive(self, small_experiment):
        assert small_experiment.timeout_threshold > 0

    def test_processor_order(self, small_experiment):
        assert small_experiment.processors[0] == "p1"
        assert small_experiment.processors[-1] == "p17"

    def test_bad_budget(self):
        with pytest.raises(ReproError):
            ScenarioExperiment.build("netproc", budget=0)


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure3(
            budget=80, duration=200.0, replications=2,
            sizer_kwargs=FAST_SIZER,
        )

    def test_all_series_present(self, result):
        data = result.per_processor()
        assert set(data) == {PRE, POST, TIMEOUT}
        for series in data.values():
            assert len(series) == 17

    def test_render_contains_processors(self, result):
        text = result.render(width=20)
        assert "p1" in text
        assert "p17" in text
        assert "Figure 3" in text

    def test_improvements_are_finite(self, result):
        assert -10.0 < result.improvement_vs_pre() < 1.0
        assert -10.0 < result.improvement_vs_timeout() < 1.0


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(
            budgets=(60, 120), duration=200.0, replications=2,
            sizer_kwargs=FAST_SIZER,
        )

    def test_cells_accessible(self, result):
        for budget in (60, 120):
            for proc in ("p1", "p16"):
                assert result.cell(budget, proc, PRE) >= 0
                assert result.cell(budget, proc, POST) >= 0

    def test_unknown_budget_rejected(self, result):
        with pytest.raises(ReproError):
            result.cell(999, "p1", PRE)
        with pytest.raises(ReproError):
            result.total(999, PRE)

    def test_render(self, result):
        text = result.render(("p1", "p16"))
        assert "Buf 60 pre" in text
        assert "TOTAL" in text

    def test_empty_budgets_rejected(self):
        with pytest.raises(ReproError):
            run_table1(budgets=())


class TestHeadline:
    def test_runs_and_renders(self):
        result = run_headline(
            budget=80, duration=200.0, replications=2,
            sizer_kwargs=FAST_SIZER,
        )
        text = result.render()
        assert "constant sizing" in text
        assert isinstance(result.some_processor_got_worse, bool)


class TestAblations:
    def test_split_vs_quadratic(self):
        result = run_split_vs_quadratic(
            budget=24, quadratic_capacities=(1,), quadratic_max_iter=30
        )
        assert result.split_result.allocation.total == 24
        assert result.coupling_count > 0
        assert 1 in result.quadratic_by_capacity
        assert "naive" in result.render()

    def test_solver_agreement(self):
        result = run_solver_agreement(instances=3, seed=1)
        assert result.max_lp_vi_gap < 1e-5
        assert result.max_lp_pi_gap < 1e-5
        assert "solver agreement" in result.render()

    def test_solver_agreement_validation(self):
        with pytest.raises(ReproError):
            run_solver_agreement(instances=0)

    def test_policy_sweep_mechanics(self):
        result = run_policy_sweep(
            load_scales=(1.0,), budget=60, replications=1, duration=150.0,
            sizer_kwargs=FAST_SIZER,
        )
        totals = result.totals()
        assert set(totals) == {"uniform", "proportional", "analytic", "ctmdp"}
        assert "load" in result.render()
