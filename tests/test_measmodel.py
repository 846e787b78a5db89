"""Target-generated measurement-set densities for point and extended targets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid
from scipy.stats import multivariate_normal

from pmbm.densities import GaussianDensity, LinearGaussianSensor, gaussian_logpdf
from pmbm.errors import ConfigurationError
from pmbm.measmodel import (
    ExtendedTargetModel,
    PointTargetModel,
    extended_set_density,
)

NEG_INF = float("-inf")


def scalar_model(pd=0.9, r=1.0):
    return PointTargetModel(LinearGaussianSensor(np.array([[1.0]]), np.array([[r]]), pd))


class TestPointModel:
    def test_empty_set_is_miss_probability(self):
        got = scalar_model(0.9).log_f_empty()
        assert_allclose(got, math.log(0.1), atol=1e-12)

    def test_two_measurements_impossible(self):
        got = scalar_model().detection_update(_prior(), np.array([[0.0], [1.0]]))[0]
        assert got == NEG_INF

    def test_singleton_value(self):
        """pd times the N(0,2) predictive density at z=2."""
        got = scalar_model(0.9).detection_update(_prior(), np.array([[2.0]]))[0]
        want = math.log(0.9) - 0.5 * (4.0 / 2.0 + math.log(2.0) + math.log(2 * math.pi))
        assert_allclose(got, want, atol=1e-12)

    def test_never_detecting_sensor(self):
        model = scalar_model(pd=0.0)
        assert model.detection_update(_prior(), np.array([[1.0]]))[0] == NEG_INF
        assert model.log_f_empty() == 0.0

    def test_perfect_sensor_cannot_miss(self):
        assert scalar_model(pd=1.0).log_f_empty() == NEG_INF

    def test_normalizes_over_miss_and_detections(self):
        model = scalar_model(0.7)
        d = _prior()
        grid = np.linspace(-25.0, 25.0, 4001)
        dens = [math.exp(model.detection_update(d, np.array([[z]]))[0]) for z in grid]
        total = math.exp(model.log_f_empty()) + trapezoid(dens, grid)
        assert abs(total - 1.0) < 0.01


class TestExtendedModel:
    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ExtendedTargetModel(scalar_model().sensor, 0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_refused(self, rate):
        with pytest.raises(ConfigurationError, match="rate must be finite"):
            ExtendedTargetModel(scalar_model().sensor, rate)

    def test_vanishing_rate_limit(self):
        # pd=1 with rate near zero behaves like a sure miss-free empty scan
        model = ExtendedTargetModel(
            LinearGaussianSensor(np.array([[1.0]]), np.array([[1.0]]), 1.0), 1e-12
        )
        assert abs(model.log_f_empty()) < 1e-9

    def test_empty_set_value(self):
        model = ExtendedTargetModel(scalar_model(0.9).sensor, 5.0)
        assert_allclose(model.log_f_empty(), math.log(0.1 + 0.9 * math.exp(-5.0)), atol=1e-12)

    def test_two_measurement_direct_product(self):
        sensor = LinearGaussianSensor(np.array([[1.0]]), np.array([[1.0]]), 0.9)
        model = ExtendedTargetModel(sensor, 5.0)
        x = np.array([0.5])
        Z = np.array([[0.0], [1.3]])
        got = extended_set_density(model, Z, x)
        meas = GaussianDensity(sensor.H @ x, sensor.R)
        want = math.log(0.9) + 2.0 * math.log(5.0) - 5.0
        want += sum(gaussian_logpdf(z, meas) for z in Z)
        assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n_points", [2, 3])
    def test_likelihood_is_joint_gaussian_closed_form(self, n_points):
        # <p, f(W|.)> = count term + log N(vec W; 1 (x) Hm, 11' (x) HPH' + I (x) R)
        H = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        R = np.array([[0.5, 0.1], [0.1, 0.8]])
        model = ExtendedTargetModel(LinearGaussianSensor(H, R, 0.8), 3.0)
        P = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 1.5]])
        d = GaussianDensity(np.array([0.3, -1.0, 2.0]), P)
        W = np.array([[0.0, 1.5], [1.2, 2.4], [-0.7, 3.1]])[:n_points]
        ones = np.ones((n_points, 1))
        mean = np.kron(ones, (H @ d.mean)[:, None]).ravel()
        cov = np.kron(ones @ ones.T, H @ P @ H.T) + np.kron(np.eye(n_points), R)
        want = math.log(0.8) + n_points * math.log(3.0) - 3.0
        want += multivariate_normal(mean, cov).logpdf(W.ravel())
        got = model.detection_update(d, W)[0]
        assert_allclose(got, want, rtol=0, atol=1e-10)
        # The state form at the prior mean ignores P and misses by far more.
        assert abs(extended_set_density(model, W, d.mean) - want) > 0.1

    @given(pd=st.floats(0.01, 1.0), rate=st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_effective_detection_probability_in_unit_interval(self, pd, rate):
        sensor = LinearGaussianSensor(np.array([[1.0]]), np.array([[1.0]]), pd)
        eff = 1.0 - math.exp(ExtendedTargetModel(sensor, rate).log_f_empty())
        assert 0.0 <= eff <= 1.0


PLANE_SENSOR = LinearGaussianSensor(np.eye(2), np.eye(2), 0.9)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda Z: PointTargetModel(PLANE_SENSOR).detection_update(GaussianDensity(np.zeros(2), np.eye(2)), Z),
        lambda Z: ExtendedTargetModel(PLANE_SENSOR, 2.0).detection_update(GaussianDensity(np.zeros(2), np.eye(2)), Z),
        lambda Z: extended_set_density(ExtendedTargetModel(PLANE_SENSOR, 2.0), Z, np.zeros(2)),
    ],
)
@pytest.mark.parametrize("Z", [np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1, 2))])
def test_measurements_of_another_width_refused(evaluate, Z):
    # The point model took two 1-wide rows for a two-measurement set of
    # density zero.
    with pytest.raises(ConfigurationError, match="need width 2"):
        evaluate(Z)


def _prior():
    return GaussianDensity(np.array([0.0]), np.array([[1.0]]))
