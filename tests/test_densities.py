"""Gaussian primitives: construction, prediction, update, gating, mixtures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid
from scipy.linalg import cho_factor, cho_solve

from pmbm.densities import (
    GaussianDensity,
    GaussianMixture,
    LinearGaussianMotion,
    LinearGaussianSensor,
    ellipsoidal_gate,
    gaussian_logpdf,
    kalman_predict,
    kalman_update,
    moment_match,
    predicted_measurement_loglik,
)
from pmbm.errors import ConfigurationError, NumericalError

LOG_2PI = math.log(2.0 * math.pi)


def scalar_density(mean, var):
    return GaussianDensity(np.array([mean]), np.array([[var]]))


def scalar_sensor(r, pd=1.0):
    return LinearGaussianSensor(np.array([[1.0]]), np.array([[r]]), pd)


class TestConstruction:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianDensity(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianDensity(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_survival_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearGaussianMotion(np.eye(2), np.zeros((2, 2)), 1.5)

    def test_mixture_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianMixture([0.0], [])


class TestKalmanPredict:
    def test_identity_motion_is_noop(self):
        d = GaussianDensity(np.array([1.0, -2.0]), np.diag([3.0, 4.0]))
        out = kalman_predict(d, LinearGaussianMotion(np.eye(2), np.zeros((2, 2)), 1.0))
        assert_allclose(out.mean, d.mean)
        assert_allclose(out.cov, d.cov)

    def test_additive_noise(self):
        d = GaussianDensity(np.zeros(2), np.diag([2.0, 5.0]))
        out = kalman_predict(d, LinearGaussianMotion(np.eye(2), np.eye(2), 1.0))
        assert_allclose(out.cov, np.diag([3.0, 6.0]))

    def test_constant_velocity_moves_position(self, cv_motion):
        d = GaussianDensity(np.array([0.0, 1.0, 0.0, 0.0]), np.eye(4))
        out = kalman_predict(d, cv_motion)
        assert_allclose(out.mean, [1.0, 1.0, 0.0, 0.0])

    def test_dimension_mismatch(self, cv_motion):
        with pytest.raises(ConfigurationError):
            kalman_predict(scalar_density(0.0, 1.0), cv_motion)

    def test_covariance_stays_symmetric(self, rng):
        d = GaussianDensity(np.zeros(3), np.eye(3))
        F = rng.normal(size=(3, 3))
        A = rng.normal(size=(3, 3))
        motion = LinearGaussianMotion(F, A @ A.T + 0.1 * np.eye(3), 0.9)
        for _ in range(50):
            d = kalman_predict(d, motion)
            assert_allclose(d.cov, d.cov.T, atol=0.0)


class TestKalmanUpdate:
    def test_scalar_closed_form(self):
        """Prior N(0,1), unit noise, z=2: posterior N(1, 1/2) and the
        predictive likelihood is the N(0,2) density at 2."""
        post, log_lik = kalman_update(scalar_density(0.0, 1.0), scalar_sensor(1.0), [2.0])
        assert_allclose(post.mean, [1.0], atol=1e-14)
        assert_allclose(post.cov, [[0.5]], atol=1e-14)
        want = -0.5 * (4.0 / 2.0 + math.log(2.0) + LOG_2PI)
        assert_allclose(log_lik, want, atol=1e-12)

    def test_uninformative_measurement_keeps_prior(self):
        d = GaussianDensity(np.array([1.0, 2.0]), np.diag([1.0, 1.0]))
        sensor = LinearGaussianSensor(np.eye(2), 1e12 * np.eye(2), 1.0)
        post, _ = kalman_update(d, sensor, [50.0, -50.0])
        assert np.max(np.abs(post.mean - d.mean)) < 1e-6 * 50.0
        assert_allclose(post.cov, d.cov, rtol=1e-9)

    def test_equal_precision_fusion(self):
        d = GaussianDensity(np.array([2.0, -4.0]), np.diag([3.0, 7.0]))
        sensor = LinearGaussianSensor(np.eye(2), np.diag([3.0, 7.0]), 1.0)
        z = np.array([6.0, 0.0])
        post, _ = kalman_update(d, sensor, z)
        assert_allclose(post.mean, (d.mean + z) / 2.0, atol=1e-12)

    def test_wrong_measurement_dimension(self):
        with pytest.raises(ConfigurationError):
            kalman_update(scalar_density(0.0, 1.0), scalar_sensor(1.0), [1.0, 2.0])

    def test_likelihood_integrates_to_one(self):
        # grid quadrature over the scalar predictive density
        d = scalar_density(0.3, 2.0)
        sensor = scalar_sensor(0.5)
        grid = np.linspace(-20.0, 20.0, 4001)
        vals = [math.exp(kalman_update(d, sensor, [z])[1]) for z in grid]
        total = trapezoid(vals, grid)
        assert abs(total - 1.0) < 0.01

    def test_matches_vectorized_loglik(self, rng, pos_sensor):
        d = GaussianDensity(rng.normal(size=4), np.diag([4.0, 1.0, 4.0, 1.0]))
        Z = rng.normal(size=(5, 2)) * 10.0
        rows = predicted_measurement_loglik(d, pos_sensor, Z)
        for z, want in zip(Z, rows):
            _, got = kalman_update(d, pos_sensor, z)
            assert_allclose(got, want, atol=1e-12)


class TestGate:
    def test_center_is_inside(self, pos_sensor):
        d = GaussianDensity(np.array([10.0, 0.0, 20.0, 0.0]), np.eye(4))
        z = pos_sensor.H @ d.mean
        assert ellipsoidal_gate(d, pos_sensor, [z], 1e-9).all()

    def test_far_point_is_outside(self):
        # innovation variance 1, offset 10: squared distance 100
        d = scalar_density(0.0, 0.5)
        assert not ellipsoidal_gate(d, scalar_sensor(0.5), [[10.0]], 20.0).any()

    def test_boundary_case_inside(self):
        # innovation variance 4, offset 8: squared distance 16
        d = scalar_density(0.0, 2.0)
        assert ellipsoidal_gate(d, scalar_sensor(2.0), [[8.0]], 20.0).all()

    def test_empty_scan(self, pos_sensor):
        d = GaussianDensity(np.zeros(4), np.eye(4))
        assert ellipsoidal_gate(d, pos_sensor, np.zeros((0, 2)), 20.0).shape == (0,)

    @given(
        offset=st.floats(-30.0, 30.0),
        t1=st.floats(0.1, 50.0),
        extra=st.floats(0.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, offset, t1, extra):
        d = scalar_density(0.0, 1.0)
        sensor = scalar_sensor(1.0)
        inside_small = ellipsoidal_gate(d, sensor, [[offset]], t1)[0]
        inside_large = ellipsoidal_gate(d, sensor, [[offset]], t1 + extra)[0]
        if inside_small:
            assert inside_large


class TestMomentMatch:
    def test_single_component_identity(self):
        d = GaussianDensity(np.array([1.0, 2.0]), np.diag([1.0, 2.0]))
        out = moment_match(np.array([math.log(0.3)]), [d])
        assert_allclose(out.mean, d.mean)
        assert_allclose(out.cov, d.cov)

    def test_two_component_hand_values(self):
        """Weights .3/.7, means 0/2, variances 1/4: mean 1.4, variance 3.94."""
        comps = [scalar_density(0.0, 1.0), scalar_density(2.0, 4.0)]
        out = moment_match(np.log(np.array([0.3, 0.7])), comps)
        assert_allclose(out.mean, [1.4], atol=1e-12)
        assert_allclose(out.cov, [[3.94]], atol=1e-12)

    def test_weight_scale_invariance(self):
        comps = [scalar_density(0.0, 1.0), scalar_density(2.0, 4.0)]
        a = moment_match(np.log(np.array([0.3, 0.7])), comps)
        b = moment_match(np.log(np.array([0.3, 0.7])) + 5.0, comps)
        assert_allclose(a.mean, b.mean, atol=1e-12)
        assert_allclose(a.cov, b.cov, atol=1e-12)


class TestMixture:
    def test_total_mass(self):
        mix = GaussianMixture(
            [math.log(2.0), math.log(3.0)],
            [scalar_density(0.0, 1.0), scalar_density(1.0, 1.0)],
        )
        assert_allclose(mix.total_mass(), 5.0)

    def test_scaled(self):
        mix = GaussianMixture([0.0], [scalar_density(0.0, 1.0)])
        assert_allclose(mix.scaled(math.log(0.25)).total_mass(), 0.25)

    def test_pruned_drops_weak_components(self):
        mix = GaussianMixture(
            [math.log(1.0), math.log(1e-9)],
            [scalar_density(0.0, 1.0), scalar_density(5.0, 1.0)],
        )
        out = mix.pruned(math.log(1e-5))
        assert len(out) == 1
        assert_allclose(out.comps[0].mean, [0.0])

    def test_empty_mixture(self):
        mix = GaussianMixture()
        assert len(mix) == 0
        assert mix.total_mass() == 0.0


def test_logpdf_against_scipy(rng):
    from scipy.stats import multivariate_normal

    mean = rng.normal(size=3)
    A = rng.normal(size=(3, 3))
    cov = A @ A.T + np.eye(3)
    d = GaussianDensity(mean, cov)
    x = rng.normal(size=3)
    assert_allclose(
        gaussian_logpdf(x, d), multivariate_normal.logpdf(x, mean, cov), atol=1e-10
    )


# -- the factor-once kernel against the textbook formulas -------------------


def _random_pd(rng, k):
    A = rng.normal(size=(k, k))
    return A @ A.T + 0.5 * np.eye(k)


def _random_case(rng):
    """A PD state, a sensor and a scan of random dimensions.  R is small
    next to H P H', so a change in how S is formed shows in its last bits."""
    dx = int(rng.integers(1, 5))
    dz = int(rng.integers(1, dx + 1))
    d = GaussianDensity(rng.normal(size=dx) * 10.0, 30.0 * _random_pd(rng, dx))
    sensor = LinearGaussianSensor(rng.normal(size=(dz, dx)), 0.01 * _random_pd(rng, dz), 0.9)
    Z = rng.normal(size=(int(rng.integers(1, 7)), dz)) * 3.0
    return d, sensor, Z


def _ref_innovation(d, sensor):
    HPH = sensor.H @ d.cov @ sensor.H.T + sensor.R
    chol = cho_factor(0.5 * (HPH + HPH.T), lower=True)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    return chol, log_det


def _ref_maha(d, sensor, Z):
    chol, _ = _ref_innovation(d, sensor)
    nu = Z - sensor.H @ d.mean
    return np.einsum("ij,ij->i", nu, cho_solve(chol, nu.T).T)


def _ref_update(d, sensor, z):
    chol, log_det = _ref_innovation(d, sensor)
    nu = z - sensor.H @ d.mean
    K = cho_solve(chol, sensor.H @ d.cov).T
    mean = d.mean + K @ nu
    I_KH = np.eye(d.dim) - K @ sensor.H
    J = I_KH @ d.cov @ I_KH.T + K @ sensor.R @ K.T
    maha = float(nu @ cho_solve(chol, nu))
    return mean, 0.5 * (J + J.T), -0.5 * (maha + log_det + z.size * LOG_2PI)


def _ref_loglik(d, sensor, Z):
    _, log_det = _ref_innovation(d, sensor)
    return -0.5 * (_ref_maha(d, sensor, Z) + log_det + Z.shape[1] * LOG_2PI)


class TestFactorOnceKernel:
    """The memoized innovation gives the same bits as factoring S afresh
    with ``cho_factor``/``cho_solve`` on every call."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            d, sensor, Z = _random_case(rng)
            gate = float(rng.uniform(0.5, 20.0))
            # the gate touches the density first, as in the filter update
            assert np.array_equal(ellipsoidal_gate(d, sensor, Z, gate), _ref_maha(d, sensor, Z) <= gate)
            assert np.array_equal(predicted_measurement_loglik(d, sensor, Z), _ref_loglik(d, sensor, Z))
            for z in Z:
                post, log_lik = kalman_update(d, sensor, z)
                mean, cov, want = _ref_update(d, sensor, z)
                assert np.array_equal(post.mean, mean)
                assert np.array_equal(post.cov, cov)
                assert log_lik == want

    def test_memo_follows_the_sensor(self):
        rng = np.random.default_rng(7)
        d = GaussianDensity(rng.normal(size=4), _random_pd(rng, 4))
        sensors = [
            LinearGaussianSensor(rng.normal(size=(2, 4)), _random_pd(rng, 2), 0.9),
            LinearGaussianSensor(rng.normal(size=(2, 4)), _random_pd(rng, 2), 0.9),
        ]
        Z = rng.normal(size=(5, 2))
        for k in range(6):
            sensor = sensors[k % 2]

            def fresh():
                return GaussianDensity(d.mean, d.cov)

            post, log_lik = kalman_update(d, sensor, Z[k % 5])
            want_post, want_lik = kalman_update(fresh(), sensor, Z[k % 5])
            assert np.array_equal(post.mean, want_post.mean)
            assert np.array_equal(post.cov, want_post.cov)
            assert log_lik == want_lik
            assert np.array_equal(
                predicted_measurement_loglik(d, sensor, Z),
                predicted_measurement_loglik(fresh(), sensor, Z),
            )
            assert np.array_equal(
                ellipsoidal_gate(d, sensor, Z, 3.0), ellipsoidal_gate(fresh(), sensor, Z, 3.0)
            )

    def test_internal_non_pd_state_is_numerical(self):
        d = GaussianDensity(np.zeros(2), np.eye(2))
        singular = LinearGaussianMotion(np.diag([1.0, 0.0]), np.zeros((2, 2)), 1.0)
        with pytest.raises(NumericalError):
            kalman_predict(d, singular)
        blind = LinearGaussianSensor(np.zeros((1, 2)), np.zeros((1, 1)), 0.9)
        with pytest.raises(NumericalError):
            kalman_update(d, blind, [0.0])

    def test_user_non_pd_covariance_is_configuration(self):
        with pytest.raises(ConfigurationError):
            GaussianDensity(np.zeros(2), np.diag([1.0, 0.0]))

    def test_internal_outputs_are_read_only(self, cv_motion, pos_sensor):
        d = GaussianDensity(np.zeros(4), np.eye(4))
        pred = kalman_predict(d, cv_motion)
        post, _ = kalman_update(pred, pos_sensor, [1.0, 2.0])
        mixed = moment_match(np.log([0.5, 0.5]), [pred, post])
        for out in (pred, post, mixed):
            for arr in (out.mean, out.cov):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
