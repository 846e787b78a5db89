"""Gaussian primitives: construction, prediction, update, gating, mixtures."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp as scipy_logsumexp

import pmbm

from pmbm.densities import (
    GaussianDensity,
    GaussianMixture,
    LinearGaussianMotion,
    LinearGaussianSensor,
    as_scan,
    ellipsoidal_gate,
    gaussian_logpdf,
    kalman_predict,
    kalman_update,
    kalman_update_gated,
    logsumexp,
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GaussianDensity(np.zeros(2), np.full((2, 2), np.nan)),
            lambda: GaussianDensity(np.array([np.nan, 0.0]), np.eye(2)),
            lambda: LinearGaussianSensor(np.eye(2), np.full((2, 2), np.nan), 0.9),
            lambda: LinearGaussianSensor(np.eye(2), np.diag([np.inf, 1.0]), 0.9),
            lambda: LinearGaussianSensor(np.array([[np.inf, 0.0]]), np.eye(1), 0.9),
            lambda: LinearGaussianMotion(np.eye(2), np.full((2, 2), np.nan), 0.99),
            lambda: LinearGaussianMotion(np.diag([1.0, np.inf]), np.zeros((2, 2)), 0.99),
        ],
        ids=["cov", "mean", "R-nan", "R-inf", "H", "Q", "F"],
    )
    def test_non_finite_entries_rejected(self, build):
        with pytest.raises(ConfigurationError, match="non-finite"):
            build()

    @pytest.mark.parametrize("R", [-np.eye(2), np.zeros((2, 2))], ids=["negative", "zero"])
    def test_non_pd_measurement_noise_rejected(self, R):
        with pytest.raises(ConfigurationError, match="measurement noise is not positive definite"):
            LinearGaussianSensor(np.eye(2), R, 0.9)

    def test_singular_process_noise_accepted(self):
        motion = LinearGaussianMotion(np.eye(2), np.zeros((2, 2)), 0.99)
        assert not motion.Q.any()

    def test_user_density_keeps_its_factor(self, monkeypatch):
        from scipy.stats import multivariate_normal

        from pmbm import densities

        d = GaussianDensity(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        calls = []
        real_factor = densities._factor
        monkeypatch.setattr(densities, "_factor", lambda a: calls.append(1) or real_factor(a))
        x = np.array([0.5, 0.5])
        assert_allclose(gaussian_logpdf(x, d), multivariate_normal.logpdf(x, d.mean, d.cov), rtol=1e-12)
        assert calls == []

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


class TestAsScan:
    @pytest.mark.parametrize("Z", [[], np.zeros(0), np.zeros((0, 1)), np.zeros((0, 3)), np.zeros((2, 0, 3))])
    def test_empty_input_is_the_empty_set(self, Z):
        out = as_scan(Z, 2)
        assert out.shape == (0, 2) and out.dtype == float

    @pytest.mark.parametrize("Z, want", [(3, [[3.0]]), ([1, 2], [[1.0, 2.0]]), ([[1, 2], [3, 4]], [[1.0, 2.0], [3.0, 4.0]])])
    def test_rows_are_measurements(self, Z, want):
        dim = len(want[0])
        out = as_scan(Z, dim)
        assert out.dtype == float and out.tolist() == want

    @pytest.mark.parametrize(
        "Z, shape", [([1.0, 2.0, 3.0], "(1, 3)"), (np.zeros((4, 3)), "(4, 3)"), (np.ones((1, 1, 2)), "(1, 1, 2)")]
    )
    def test_other_width_or_rank_refused(self, Z, shape):
        with pytest.raises(ConfigurationError, match=f"need width 2, got shape {re.escape(shape)}"):
            as_scan(Z, 2)

    def test_non_finite_rows_pass(self):
        # The one finiteness check on scans is ``filtering.update``'s.
        assert np.isnan(as_scan([[math.nan, 1.0]], 2)).any()

    @pytest.mark.parametrize("kernel", [ellipsoidal_gate, predicted_measurement_loglik])
    def test_kernels_refuse_another_width(self, kernel, pos_sensor):
        # The 4-state sensor measures 2-D positions; numpy would have
        # broadcast a (1, 1) row against them.
        d = GaussianDensity(np.zeros(4), np.eye(4))
        args = (20.0,) if kernel is ellipsoidal_gate else ()
        with pytest.raises(ConfigurationError, match="need width 2"):
            kernel(d, pos_sensor, np.zeros((1, 1)), *args)


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
        # A sensor whose noise would make the innovation singular is refused
        # when it is built, so no update can meet it.
        with pytest.raises(ConfigurationError, match="not positive definite"):
            LinearGaussianSensor(np.zeros((1, 2)), np.zeros((1, 1)), 0.9)

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


# -- the stacked kernels against the per-density references ----------------

RTOL = 1e-12
GATE_BAND = 1e-9


def _fresh(d):
    """A copy of d that shares no memo with it."""
    return GaussianDensity(d.mean.copy(), d.cov.copy())


def _stack_case(rng, n, m, dx=4, dz=2):
    """n densities whose covariances differ in scale and shape by orders of
    magnitude, a sensor and a scan of m rows."""
    scales = 10.0 ** rng.uniform(-2.0, 3.0, size=n)
    dens = [GaussianDensity(rng.normal(size=dx) * 10.0, s * _random_pd(rng, dx)) for s in scales]
    sensor = LinearGaussianSensor(rng.normal(size=(dz, dx)), _random_pd(rng, dz), 0.9)
    return dens, sensor, rng.normal(size=(m, dz)) * 20.0


def _close(got, want):
    """Equal within RTOL of the larger magnitude in ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * np.max(np.abs(want), initial=1.0)


STACKS = [(1, 5), (6, 0), (4, 85), (12, 7)]


class TestStackedKernels:
    """Each row of a stack agrees with the per-density references; S of each
    density is factored once for every kernel that reads it."""

    @pytest.mark.parametrize("n, m", STACKS, ids=["N=1", "m=0", "m=85", "mixed"])
    def test_rows_match_references(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        dens, sensor, Z = _stack_case(rng, n, m)
        gamma = 9.0
        ll = predicted_measurement_loglik(dens, sensor, Z)
        mask = ellipsoidal_gate(dens, sensor, Z, gamma)
        assert ll.shape == mask.shape == (n, m)
        for k, d in enumerate(dens):
            ref = _fresh(d)
            _close(ll[k], _ref_loglik(ref, sensor, Z))
            maha = _ref_maha(ref, sensor, Z)
            clear = np.abs(maha - gamma) > GATE_BAND * gamma
            assert np.array_equal(mask[k][clear], (maha <= gamma)[clear])

    @pytest.mark.parametrize("n, m", STACKS, ids=["N=1", "m=0", "m=85", "mixed"])
    def test_gated_updates_match_kalman_update(self, n, m):
        rng = np.random.default_rng(7 * n + m)
        dens, sensor, Z = _stack_case(rng, n, m)
        mask = ellipsoidal_gate(dens, sensor, Z, 9.0)
        mask[0, : min(m, 3)] = True  # a row of the first density whatever the gate says
        means, covs = kalman_update_gated(dens, sensor, Z, mask)
        pn, pj = np.nonzero(mask)
        assert means.shape == (pn.size, 4) and covs.shape == (n, 4, 4)
        for p, (k, j) in enumerate(zip(pn, pj)):
            post, _ = kalman_update(_fresh(dens[k]), sensor, Z[j])
            _close(means[p], post.mean)
            _close(covs[k], post.cov)
            mean, cov, _ = _ref_update(dens[k], sensor, Z[j])
            _close(means[p], mean)
            _close(covs[k], cov)

    def test_a_sequence_inside_a_built_stack_reads_its_own_rows(self):
        rng = np.random.default_rng(11)
        dens, sensor, Z = _stack_case(rng, 6, 4)
        ellipsoidal_gate(dens, sensor, Z, 9.0)
        part = [dens[4], dens[1], dens[5]]
        mask = np.ones((3, 4), dtype=bool)
        ll = predicted_measurement_loglik(part, sensor, Z)
        means, covs = kalman_update_gated(part, sensor, Z, mask)
        for k, d in enumerate(part):
            _close(ll[k], _ref_loglik(_fresh(d), sensor, Z))
            for j in range(4):
                post, _ = kalman_update(_fresh(d), sensor, Z[j])
                _close(means[4 * k + j], post.mean)
                _close(covs[k], post.cov)

    def test_predict_rows_match_single_predictions(self, cv_motion):
        rng = np.random.default_rng(3)
        dens, _, _ = _stack_case(rng, 9, 0)
        out = kalman_predict(dens, cv_motion)
        assert len(out) == 9 and kalman_predict([], cv_motion) == []
        for got, d in zip(out, dens):
            want = kalman_predict(_fresh(d), cv_motion)
            _close(got.mean, want.mean)
            _close(got.cov, want.cov)
            _close(got.mean, cv_motion.F @ d.mean)
            _close(got.cov, cv_motion.F @ d.cov @ cv_motion.F.T + cv_motion.Q)
            assert not got.mean.flags.writeable and not got.cov.flags.writeable

    def test_empty_sequence(self, pos_sensor):
        Z = np.zeros((3, 2))
        assert predicted_measurement_loglik([], pos_sensor, Z).shape == (0, 3)
        assert ellipsoidal_gate([], pos_sensor, Z, 9.0).shape == (0, 3)
        means, covs = kalman_update_gated([], pos_sensor, Z, np.zeros((0, 3), dtype=bool))
        assert means.shape == (0, 4) and covs.shape == (0, 4, 4)

    def test_each_innovation_factored_once(self, monkeypatch):
        from pmbm import densities

        rng = np.random.default_rng(5)
        dens, sensor, Z = _stack_case(rng, 5, 6)
        calls = []
        real = densities.dpotrf
        monkeypatch.setattr(densities, "dpotrf", lambda a, **kw: calls.append(1) or real(a, **kw))
        mask = ellipsoidal_gate(dens, sensor, Z, 50.0)
        predicted_measurement_loglik(dens, sensor, Z)
        kalman_update_gated(dens, sensor, Z, mask)
        predicted_measurement_loglik(dens[2:], sensor, Z)
        kalman_update(dens[3], sensor, Z[0])
        assert len(calls) == 5

    def test_distances_follow_the_scan(self):
        # The stack keeps its distances to the last scan; another scan, or
        # the same array changed in place, is measured afresh.
        rng = np.random.default_rng(9)
        dens, sensor, Z = _stack_case(rng, 4, 6)
        for scan in (Z, Z[:3], Z + 1.0, Z):
            got = predicted_measurement_loglik(dens, sensor, scan)
            for k, d in enumerate(dens):
                _close(got[k], _ref_loglik(_fresh(d), sensor, scan))
        Z[0] += 50.0
        got = predicted_measurement_loglik(dens, sensor, Z)
        _close(got[1], _ref_loglik(_fresh(dens[1]), sensor, Z))

    def test_singular_innovation_in_a_stack_is_numerical(self, pos_sensor):
        good = GaussianDensity(np.zeros(4), np.eye(4))
        bad = GaussianDensity._trusted(np.zeros(4), -10.0 * np.eye(4))
        with pytest.raises(NumericalError, match="singular innovation covariance"):
            ellipsoidal_gate([good, bad, good], pos_sensor, np.zeros((2, 2)), 9.0)

    def test_non_pd_prediction_in_a_stack_is_numerical(self):
        motion = LinearGaussianMotion(np.eye(2), np.zeros((2, 2)), 1.0)
        good = GaussianDensity(np.zeros(2), np.eye(2))
        bad = GaussianDensity._trusted(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="predicted covariance is not positive definite"):
            kalman_predict([good, bad], motion)

    def test_non_pd_posterior_in_a_stack_is_numerical(self):
        # The unobserved coordinate keeps its negative variance, while S > 0.
        sensor = LinearGaussianSensor(np.array([[1.0, 0.0]]), np.eye(1), 0.9)
        good = GaussianDensity(np.zeros(2), np.eye(2))
        bad = GaussianDensity._trusted(np.zeros(2), np.diag([1.0, -1.0]))
        Z = np.zeros((1, 1))
        with pytest.raises(NumericalError, match="posterior covariance is not positive definite"):
            kalman_update_gated([good, bad], sensor, Z, np.ones((2, 1), dtype=bool))

    @pytest.mark.parametrize("kernel", ["gate", "loglik", "predict", "update"])
    def test_mixed_state_widths_refused(self, kernel, pos_sensor, cv_motion):
        dens = [GaussianDensity(np.zeros(4), np.eye(4)), GaussianDensity(np.zeros(2), np.eye(2))]
        Z = np.zeros((1, 2))
        calls = {
            "gate": lambda: ellipsoidal_gate(dens, pos_sensor, Z, 9.0),
            "loglik": lambda: predicted_measurement_loglik(dens, pos_sensor, Z),
            "predict": lambda: kalman_predict(dens, cv_motion),
            "update": lambda: kalman_update_gated(dens, pos_sensor, Z, np.ones((2, 1), dtype=bool)),
        }
        with pytest.raises(ConfigurationError, match="one state width"):
            calls[kernel]()


class TestLogsumexp:
    """The package's ``logsumexp`` gives scipy's result bit for bit."""

    @staticmethod
    def same(a, axis=None):
        want = scipy_logsumexp(a, axis=axis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a, axis=axis)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, got, want)

    @pytest.mark.parametrize(
        "a",
        [
            [],
            [0.5],
            [-math.inf],
            [-math.inf, -math.inf, -math.inf],
            [-math.inf, 1.0, -math.inf],
            [2.0, 2.0, 2.0],
            [1.0, 3.0, 3.0, -math.inf],
            [math.inf, 0.0],
            [math.inf, -math.inf],
            [1e3, 1e3 - 1e-9, -1e3],
            [-1e3, -1e3, -999.5],
        ],
    )
    def test_edge_inputs(self, a):
        self.same(a)
        self.same(np.array(a))

    def test_random_vectors(self):
        rng = np.random.default_rng(11)
        for t in range(2000):
            n = int(rng.integers(1, 60))
            a = rng.normal(0.0, (1.0, 30.0, 1e3)[t % 3], n)
            if t % 4 == 0:
                a[rng.random(n) < 0.3] = -math.inf
            if t % 5 == 0:
                a[rng.integers(n, size=3)] = a.max()
            self.same(a)
            self.same(a.tolist())

    def test_random_columns(self):
        rng = np.random.default_rng(12)
        for t in range(1000):
            a = rng.normal(0.0, (1.0, 1e3)[t % 2], (int(rng.integers(1, 6)), int(rng.integers(1, 9))))
            if t % 3 == 0:
                a[rng.random(a.shape) < 0.4] = -math.inf
            if t % 7 == 0:
                a[:, 0] = -math.inf
            if t % 11 == 0:
                a[0, -1] = math.inf
            if t % 13 == 0:
                a[-1] = a[0]
            self.same(a, axis=0)
        self.same(np.zeros((0, 3)), axis=0)
        self.same(np.zeros((3, 0)), axis=0)

    def test_package_sums_with_its_own(self):
        sources = Path(pmbm.__file__).parent.glob("*.py")
        found = [p.name for p in sources if re.search(r"scipy\.special import[^\n]*logsumexp", p.read_text())]
        assert found == []
