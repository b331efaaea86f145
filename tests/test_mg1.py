"""Tests for repro.queueing.mg1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.queueing.mg1 import buffer_for_loss_target, gim1_tail_decay


class TestTailDecay:
    def test_poisson_matches_rho(self):
        assert gim1_tail_decay(1.0, 0.7) == pytest.approx(0.7)

    def test_burstier_slower_decay(self):
        assert gim1_tail_decay(4.0, 0.7) > gim1_tail_decay(1.0, 0.7)

    def test_smoother_faster_decay(self):
        assert gim1_tail_decay(0.25, 0.7) < gim1_tail_decay(1.0, 0.7)

    def test_validation(self):
        with pytest.raises(ModelError):
            gim1_tail_decay(1.0, 1.0)
        with pytest.raises(ModelError):
            gim1_tail_decay(-1.0, 0.5)

    @given(
        scv=st.floats(min_value=0.1, max_value=20.0),
        rho=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_decay_in_unit_interval(self, scv, rho):
        sigma = gim1_tail_decay(scv, rho)
        assert 0.0 < sigma < 1.0


class TestBufferForLossTarget:
    def test_meets_target(self):
        k = buffer_for_loss_target(1.0, 2.0, 1.0, 0.01)
        sigma = gim1_tail_decay(1.0, 0.5)
        blocking = (1 - sigma) * sigma**k / (1 - sigma ** (k + 1))
        assert blocking <= 0.01

    def test_burstier_needs_more_buffer(self):
        smooth = buffer_for_loss_target(1.0, 2.0, 1.0, 0.001)
        bursty = buffer_for_loss_target(1.0, 2.0, 6.0, 0.001)
        assert bursty > smooth

    def test_validation(self):
        with pytest.raises(ModelError):
            buffer_for_loss_target(1.0, 2.0, 1.0, 0.0)
        with pytest.raises(ModelError):
            buffer_for_loss_target(3.0, 2.0, 1.0, 0.1)  # rho >= 1
        with pytest.raises(ModelError):
            buffer_for_loss_target(1.0, 0.0, 1.0, 0.1)

    def test_unreachable_target(self):
        with pytest.raises(ModelError):
            buffer_for_loss_target(
                0.99, 1.0, 1.0, 1e-300, max_buffer=5
            )
