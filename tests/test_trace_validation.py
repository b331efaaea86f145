"""Tests for repro.analysis.validation."""

import pytest

from repro.analysis.validation import (
    ValidationPoint,
    full_validation_suite,
    validate_carried_rate,
    validate_mm1k_blocking,
    validate_mm1k_occupancy,
)
from repro.errors import ReproError


class TestValidationHarness:
    def test_blocking_point(self):
        point = validate_mm1k_blocking(duration=20_000.0)
        assert point.relative_error < 0.15

    def test_occupancy_point(self):
        point = validate_mm1k_occupancy(duration=20_000.0)
        assert point.relative_error < 0.1

    def test_carried_rate_point(self):
        point = validate_carried_rate(duration=20_000.0)
        assert point.relative_error < 0.05

    def test_full_suite(self):
        points = full_validation_suite(duration=15_000.0)
        assert len(points) == 4
        assert all(p.relative_error < 0.2 for p in points)

    def test_validation_point_relative_error(self):
        p = ValidationPoint("x", analytic=2.0, simulated=2.2)
        assert p.relative_error == pytest.approx(0.1)

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            validate_mm1k_blocking(capacity=0)
