"""Tests for repro.dist.costmodel — the scheduler's runtime predictor.

The model is a scheduling *hint* with hard invariants: equal features
predict equal costs (cold-start FIFO equivalence rides on this plus
stable sorts), predictions scale with the job's work units, and every
observation refines the whole key hierarchy.  Malformed runtimes must
be ignored, never raise — a broken hint must not break a fleet.
"""

import pytest

from repro.dist.costmodel import (
    DEFAULT_UNIT_COST,
    CostModel,
    job_features,
)
from repro.dist.jobs import echo, run_block, sleep_block


class TestJobFeatures:
    def test_run_block_payload_units_are_duration_times_reps(self):
        payload = {
            "scenario": "amba",
            "budget": 16,
            "duration": 500.0,
            "start": 2,
            "stop": 6,
        }
        features = job_features(run_block, payload)
        assert features["kind"] == "run_block"
        assert features["scenario"] == "amba"
        assert features["budget"] == 16
        assert features["units"] == 500.0 * 4

    def test_sleep_block_payload_units_are_duration(self):
        features = job_features(
            sleep_block, {"scenario": "short", "index": 3, "duration": 0.05}
        )
        assert features["units"] == pytest.approx(0.05)
        assert features["scenario"] == "short"

    def test_unknown_payload_reduces_to_kind_and_one_unit(self):
        features = job_features(echo, 17)
        assert features == {"kind": "echo", "units": 1.0}

    def test_non_positive_duration_is_ignored(self):
        features = job_features(echo, {"duration": 0})
        assert features["units"] == 1.0


class TestPredict:
    def test_cold_predictions_scale_with_units(self):
        model = CostModel()
        small = model.predict({"kind": "k", "units": 1.0})
        large = model.predict({"kind": "k", "units": 10.0})
        assert large == pytest.approx(10 * small)
        assert small == pytest.approx(DEFAULT_UNIT_COST)

    def test_equal_features_predict_equal_costs(self):
        # The cold-start FIFO-equivalence precondition: the scheduler's
        # stable sort keeps submission order among these.
        model = CostModel()
        a = model.predict({"kind": "k", "scenario": "s", "units": 2.0})
        b = model.predict({"kind": "k", "scenario": "s", "units": 2.0})
        assert a == b

    def test_most_specific_key_wins(self):
        model = CostModel()
        fine = {"kind": "k", "scenario": "s", "budget": 8, "units": 1.0}
        coarse = {"kind": "k", "scenario": "other", "units": 1.0}
        model.observe(fine, 2.0)
        # The same scenario at a *new* budget inherits the
        # scenario-level rate from that one observation.
        sibling = dict(fine, budget=16)
        assert model.predict(fine) == pytest.approx(2.0)
        assert model.predict(sibling) == pytest.approx(2.0)
        # A different scenario only has kind-level and global data.
        assert model.predict(coarse) == pytest.approx(2.0)

    def test_observed_cost_needs_an_observed_rate(self):
        model = CostModel()
        fine = {"kind": "k", "scenario": "s", "budget": 8, "units": 3.0}
        assert model.observed_cost(fine) is None  # cold: a guess only
        model.observe(fine, 6.0)
        # The scenario's rate covers its other budgets, scaled by units.
        assert model.observed_cost(dict(fine, budget=16)) == pytest.approx(6.0)
        assert model.observed_cost({"kind": "k", "units": 1.0}) == (
            pytest.approx(2.0)
        )
        # Kind-level and global rates say nothing about another
        # scenario or a featureless job.
        assert model.observed_cost(dict(fine, scenario="other")) is None
        assert model.observed_cost(None) is None

    def test_featureless_prediction_is_finite(self):
        model = CostModel()
        assert model.predict(None) == pytest.approx(DEFAULT_UNIT_COST)
        model.observe({"kind": "k", "units": 1.0}, 0.5)
        assert model.predict(None) == pytest.approx(0.5)


class TestObserve:
    def test_observation_converges_rates(self):
        model = CostModel()
        features = {"kind": "k", "scenario": "s", "units": 2.0}
        for _ in range(30):
            model.observe(features, 1.0)
        # unit cost -> 0.5, so 2 units predict ~1 second.
        assert model.predict(features) == pytest.approx(1.0, rel=1e-3)
        assert model.observations == 30

    def test_error_ewma_tracks_prediction_accuracy(self):
        model = CostModel()
        features = {"kind": "k", "units": 1.0}
        model.observe(features, 1.0, predicted=2.0)  # 100% off
        assert model.mean_abs_rel_err == pytest.approx(1.0)
        model.observe(features, 1.0, predicted=1.0)  # spot on
        assert model.mean_abs_rel_err == pytest.approx(0.8)

    def test_garbage_runtimes_are_ignored(self):
        model = CostModel()
        features = {"kind": "k", "units": 1.0}
        for bad in (None, -1.0, float("nan"), float("inf")):
            model.observe(features, bad)
        assert model.observations == 0
        assert model.predict(features) == pytest.approx(DEFAULT_UNIT_COST)


class TestStats:
    def test_stats_keys(self):
        model = CostModel()
        assert set(model.stats()) == {
            "observations", "entries", "mean_abs_rel_err",
        }
