"""Tests for repro.analysis."""

import numpy as np
import pytest

from repro.analysis.loss import compare_policies
from repro.analysis.report import bar_chart, format_table
from repro.analysis.stats import (
    confidence_interval,
    relative_improvement,
    summarise,
    t_half_width,
)
from repro.analysis.sweep import load_sweep
from repro.arch.templates import single_bus
from repro.core.sizing import BufferAllocation
from repro.errors import ReproError
from repro.policies.proportional import ProportionalSizing
from repro.policies.uniform import UniformSizing


class TestStats:
    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
    def test_t_half_width_equals_scipy_stats_quantile(self, confidence):
        from scipy import stats as scipy_stats

        for count in (2, 3, 5, 11, 31, 200, 5001):
            expected = scipy_stats.t.ppf(
                0.5 + confidence / 2.0, df=count - 1
            ) * 0.25
            assert t_half_width(0.25, count, confidence) == expected

    def test_summarise(self):
        s = summarise([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.count == 3
        assert s.std == pytest.approx(1.0)

    def test_summarise_single(self):
        s = summarise([5.0])
        assert s.std == 0.0

    def test_summarise_empty(self):
        with pytest.raises(ReproError):
            summarise([])

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 2.0, size=30)
        lo, hi = confidence_interval(data)
        assert lo < data.mean() < hi

    def test_confidence_interval_single_point(self):
        assert confidence_interval([4.0]) == (4.0, 4.0)

    def test_confidence_interval_validation(self):
        with pytest.raises(ReproError):
            confidence_interval([1.0], confidence=1.5)
        with pytest.raises(ReproError):
            confidence_interval([])

    def test_relative_improvement(self):
        assert relative_improvement(10.0, 8.0) == pytest.approx(0.2)
        assert relative_improvement(10.0, 12.0) == pytest.approx(-0.2)

    def test_relative_improvement_validation(self):
        with pytest.raises(ReproError):
            relative_improvement(0.0, 1.0)


class TestReport:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.50" in text

    def test_format_table_title(self):
        text = format_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_table_validation(self):
        with pytest.raises(ReproError):
            format_table([], [])
        with pytest.raises(ReproError):
            format_table(["a"], [[1, 2]])

    def test_bar_chart_scales(self):
        text = bar_chart(
            {"pre": {"p1": 10.0}, "post": {"p1": 5.0}},
            categories=["p1"],
            width=20,
        )
        pre_line = next(l for l in text.splitlines() if "pre" in l)
        post_line = next(l for l in text.splitlines() if "post" in l)
        assert pre_line.count("#") == 20
        assert post_line.count("#") == 10

    def test_bar_chart_zero_values(self):
        text = bar_chart({"s": {"c": 0.0}}, categories=["c"])
        assert "0.0" in text

    def test_bar_chart_validation(self):
        with pytest.raises(ReproError):
            bar_chart({}, categories=["c"])
        with pytest.raises(ReproError):
            bar_chart({"s": {}}, categories=[], width=0)


class TestCompare:
    def make_allocations(self, topo):
        return {
            "uniform": UniformSizing().allocate(topo, 8),
            "proportional": ProportionalSizing().allocate(topo, 8),
        }

    def test_compare_policies(self):
        topo = single_bus(arrival_rate=2.0, service_rate=3.0)
        comparison = compare_policies(
            topo,
            self.make_allocations(topo),
            replications=2,
            duration=300.0,
        )
        assert set(comparison.summaries) == {"uniform", "proportional"}
        assert comparison.mean_total_loss("uniform") >= 0
        per_proc = comparison.per_processor("uniform")
        assert set(per_proc) == set(topo.processors)

    def test_unknown_policy(self):
        topo = single_bus()
        comparison = compare_policies(
            topo, self.make_allocations(topo), replications=1, duration=100.0
        )
        with pytest.raises(ReproError):
            comparison.mean_total_loss("ghost")
        with pytest.raises(ReproError):
            comparison.per_processor("ghost")

    def test_empty_allocations_rejected(self):
        topo = single_bus()
        with pytest.raises(ReproError):
            compare_policies(topo, {}, replications=1)

    def test_improvement_over(self):
        topo = single_bus(arrival_rate=2.5, service_rate=2.0)
        comparison = compare_policies(
            topo,
            self.make_allocations(topo),
            replications=2,
            duration=400.0,
        )
        value = comparison.improvement_over("uniform", "proportional")
        assert -2.0 < value < 1.0

    def test_timeout_threshold_applied(self):
        topo = single_bus(arrival_rate=2.0, service_rate=2.5)
        allocations = {"plain": UniformSizing().allocate(topo, 8),
                       "strict": UniformSizing().allocate(topo, 8)}
        comparison = compare_policies(
            topo,
            allocations,
            replications=2,
            duration=500.0,
            timeout_thresholds={"strict": 0.02},
        )
        assert comparison.mean_total_loss(
            "strict"
        ) > comparison.mean_total_loss("plain")


class TestSweeps:
    def test_load_sweep(self):
        points = load_sweep(
            topology_factory=lambda s: single_bus(
                arrival_rate=1.0 * s, service_rate=3.0
            ),
            load_scales=[0.5, 2.0],
            budget=8,
            policy_factories={"uniform": UniformSizing},
            replications=1,
            duration=300.0,
        )
        assert len(points) == 2
        assert points[1].comparison.mean_total_loss(
            "uniform"
        ) >= points[0].comparison.mean_total_loss("uniform")

    def test_load_sweep_empty(self):
        with pytest.raises(ReproError):
            load_sweep(lambda s: single_bus(), [], 8, {})
