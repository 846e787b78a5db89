"""Gaussian state densities and the linear-Gaussian prediction/update algebra.

Validation rule: arrays from user input (means, covariances, F, Q, H and
R) are copied and checked for shape and finite entries, and covariances for
symmetry; the covariance of a user ``GaussianDensity(mean, cov)`` is also
factored, which checks it is positive definite, and the factor is kept.  A
failed check raises :class:`~pmbm.errors.ConfigurationError`.  Densities this module
computes (predictions, posteriors, moment matches) skip that path: each
new covariance gets one Cholesky check, and an internal state that is not
positive definite raises :class:`~pmbm.errors.NumericalError`, as does a
singular innovation covariance.  Updates use the Joseph form and
re-symmetrize.

Memo contract: a density is immutable (its arrays are read-only), so its
innovation against a sensor (H m, the Cholesky factor of S = H P H' + R and
log|S|, then the gain and posterior covariance) is computed once and reused
by the gate, the likelihoods and every measurement update, as long as the
same sensor object asks next.  The density's own Cholesky factor, used by
``gaussian_logpdf``, is kept the same way, or from validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigurationError, NumericalError

_LOG_2PI = math.log(2.0 * math.pi)
_SYM_RTOL = 1e-9


def _as_readonly(a, shape=None) -> np.ndarray:
    out = np.array(a, dtype=float)
    if shape is not None and out.shape != shape:
        raise ConfigurationError(f"expected array of shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ConfigurationError("array holds a non-finite value")
    out.setflags(write=False)
    return out


def as_scan(Z, dim: int) -> np.ndarray:
    """Z as a measurement set: a float (m, dim) array.  An empty input of any
    shape is the empty set and a rank-0 or rank-1 input one measurement; any
    other rank or width raises ConfigurationError.  Entries are not checked
    for finiteness: ``filtering.update`` refuses a non-finite scan."""
    arr = np.asarray(Z, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, dim)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ConfigurationError(f"measurements need width {dim}, got shape {arr.shape}")
    return arr


def _check_symmetric(cov: np.ndarray, what: str) -> None:
    scale = max(1.0, float(np.max(np.abs(cov))))
    if np.max(np.abs(cov - cov.T)) > _SYM_RTOL * scale:
        raise ConfigurationError(f"{what} is not symmetric")


def symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


def _factor(a: np.ndarray):
    """Lower Cholesky factor of a (as ``cho_factor(a, lower=True)`` returns
    it) and log|a|, or None when a is not positive definite or not finite."""
    c, info = dpotrf(a, lower=1, clean=0)
    if info != 0:
        return None
    log_det = 2.0 * float(np.sum(np.log(np.diag(c))))
    return (c, log_det) if math.isfinite(log_det) else None


def _solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a⁻¹ b from the lower factor c of a (what ``cho_solve`` runs)."""
    return dpotrs(c, b, lower=1)[0]


@dataclass(frozen=True)
class GaussianDensity:
    """Single Gaussian with mean (d,) and positive definite covariance (d, d)."""

    mean: np.ndarray
    cov: np.ndarray

    # Memo slots (not fields): the innovation against the last sensor used,
    # and the (factor, log-determinant) of cov.
    _innov = None
    _own = None

    def __post_init__(self):
        mean = _as_readonly(self.mean)
        if mean.ndim != 1:
            raise ConfigurationError("mean must be one-dimensional")
        cov = _as_readonly(self.cov, (mean.size, mean.size))
        _check_symmetric(cov, "covariance")
        own = _factor(cov)
        if own is None:
            raise ConfigurationError("covariance is not positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_own", own)

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianDensity":
        """A density the package computed: no copy and no validation.  The
        arrays are marked read-only; the caller answers for their shape and
        for checking cov."""
        mean.setflags(write=False)
        cov.setflags(write=False)
        d = object.__new__(cls)
        object.__setattr__(d, "mean", mean)
        object.__setattr__(d, "cov", cov)
        return d

    @property
    def dim(self) -> int:
        return self.mean.size


def _own_factor(d: GaussianDensity):
    """(lower Cholesky factor, log-determinant) of d.cov, computed once."""
    own = d._own
    if own is None:
        own = _factor(d.cov)
        if own is None:
            raise NumericalError("covariance is not positive definite")
        object.__setattr__(d, "_own", own)
    return own


def _check_pd(cov: np.ndarray, what: str) -> None:
    """The one Cholesky check an internal covariance gets."""
    if dpotrf(cov, lower=1, clean=0)[1] != 0:
        raise NumericalError(f"{what} is not positive definite")


@dataclass(frozen=True)
class LinearGaussianMotion:
    """x' = F x + w with w ~ N(0, Q), plus a survival probability."""

    F: np.ndarray
    Q: np.ndarray
    ps: float

    def __post_init__(self):
        F = _as_readonly(self.F)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise ConfigurationError("F must be square")
        Q = _as_readonly(self.Q, F.shape)
        _check_symmetric(Q, "process noise")
        if not 0.0 <= self.ps <= 1.0:
            raise ConfigurationError("survival probability must lie in [0, 1]")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True)
class LinearGaussianSensor:
    """z = H x + v with v ~ N(0, R) and constant detection probability."""

    H: np.ndarray
    R: np.ndarray
    pd: float

    def __post_init__(self):
        H = _as_readonly(self.H)
        if H.ndim != 2:
            raise ConfigurationError("H must be a matrix")
        R = _as_readonly(self.R, (H.shape[0], H.shape[0]))
        _check_symmetric(R, "measurement noise")
        if _factor(R) is None:
            raise ConfigurationError("measurement noise is not positive definite")
        if not 0.0 <= self.pd <= 1.0:
            raise ConfigurationError("detection probability must lie in [0, 1]")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", R)

    @property
    def meas_dim(self) -> int:
        return self.H.shape[0]


def kalman_predict(d: GaussianDensity, motion: LinearGaussianMotion) -> GaussianDensity:
    if motion.F.shape[1] != d.dim:
        raise ConfigurationError("motion model dimension does not match state")
    mean = motion.F @ d.mean
    cov = symmetrize(motion.F @ d.cov @ motion.F.T + motion.Q)
    _check_pd(cov, "predicted covariance")
    return GaussianDensity._trusted(mean, cov)


@dataclass(slots=True)
class _Innovation:
    """One density's innovation against one sensor: H m, the lower Cholesky
    factor of S = H P H' + R and log|S|.  The gain K and the posterior
    covariance P⁺ are built on the first measurement update."""

    sensor: LinearGaussianSensor
    Hm: np.ndarray
    chol: np.ndarray
    log_det: float
    K: np.ndarray | None = None
    post_cov: np.ndarray | None = None


def _innovation(d: GaussianDensity, sensor: LinearGaussianSensor) -> _Innovation:
    rec = d._innov
    if rec is not None and rec.sensor is sensor:
        return rec
    if sensor.H.shape[1] != d.dim:
        raise ConfigurationError("sensor model dimension does not match state")
    S = symmetrize(sensor.H @ d.cov @ sensor.H.T + sensor.R)
    fac = _factor(S)
    if fac is None:
        raise NumericalError(f"singular innovation covariance: {S!r}")
    rec = _Innovation(sensor, sensor.H @ d.mean, *fac)
    object.__setattr__(d, "_innov", rec)
    return rec


def kalman_update(
    d: GaussianDensity, sensor: LinearGaussianSensor, z: np.ndarray
) -> tuple[GaussianDensity, float]:
    """Measurement update.  Returns the posterior and the log predictive
    likelihood log N(z; H m, H P H' + R)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (sensor.meas_dim,):
        raise ConfigurationError("measurement dimension does not match sensor")
    rec = _innovation(d, sensor)
    if rec.post_cov is None:
        # K = P H' S^-1 via the Cholesky factor of S
        K = _solve(rec.chol, sensor.H @ d.cov).T
        I_KH = np.eye(d.dim) - K @ sensor.H
        cov = symmetrize(I_KH @ d.cov @ I_KH.T + K @ sensor.R @ K.T)
        _check_pd(cov, "posterior covariance")
        cov.setflags(write=False)
        rec.K, rec.post_cov = K, cov
    nu = z - rec.Hm
    mean = d.mean + rec.K @ nu
    maha = float(nu @ _solve(rec.chol, nu))
    log_lik = -0.5 * (maha + rec.log_det + z.size * _LOG_2PI)
    return GaussianDensity._trusted(mean, rec.post_cov), log_lik


def _innovation_maha(rec: _Innovation, Z: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis innovation distance of each row of Z."""
    nu = Z - rec.Hm
    return np.einsum("ij,ij->i", nu, _solve(rec.chol, nu.T).T)


def predicted_measurement_loglik(
    d: GaussianDensity, sensor: LinearGaussianSensor, Z: np.ndarray
) -> np.ndarray:
    """log N(z; H m, S) for each row z of Z, without forming posteriors."""
    Z = as_scan(Z, sensor.meas_dim)
    rec = _innovation(d, sensor)
    maha = _innovation_maha(rec, Z)
    return -0.5 * (maha + rec.log_det + Z.shape[1] * _LOG_2PI)


def ellipsoidal_gate(
    d: GaussianDensity, sensor: LinearGaussianSensor, Z: np.ndarray, gamma: float
) -> np.ndarray:
    """Boolean mask of rows of Z whose squared Mahalanobis innovation
    distance is below the gate threshold."""
    Z = as_scan(Z, sensor.meas_dim)
    if Z.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return _innovation_maha(_innovation(d, sensor), Z) <= gamma


def gaussian_logpdf(x: np.ndarray, d: GaussianDensity) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != d.mean.shape:
        raise ConfigurationError("point dimension does not match density")
    chol, log_det = _own_factor(d)
    nu = x - d.mean
    maha = float(nu @ _solve(chol, nu))
    return -0.5 * (maha + log_det + x.size * _LOG_2PI)


def moment_match(log_weights: np.ndarray, comps: list[GaussianDensity]) -> GaussianDensity:
    """Collapse a normalized log-weighted Gaussian mixture to one Gaussian."""
    if len(comps) == 0:
        raise ConfigurationError("cannot moment-match an empty mixture")
    w = np.exp(np.asarray(log_weights, dtype=float))
    w = w / np.sum(w)
    mean = np.zeros(comps[0].dim)
    for wi, c in zip(w, comps):
        mean += wi * c.mean
    cov = np.zeros((comps[0].dim, comps[0].dim))
    for wi, c in zip(w, comps):
        dm = c.mean - mean
        cov += wi * (c.cov + np.outer(dm, dm))
    cov = symmetrize(cov)
    _check_pd(cov, "moment-matched covariance")
    return GaussianDensity._trusted(mean, cov)


@dataclass
class GaussianMixture:
    """Weighted Gaussian mixture used as a Poisson intensity.

    Weights live in log domain and are intensity weights: they need not
    normalize, and the total mass is the expected number of points.
    """

    log_w: list[float] = field(default_factory=list)
    comps: list[GaussianDensity] = field(default_factory=list)

    def __post_init__(self):
        if len(self.log_w) != len(self.comps):
            raise ConfigurationError("mixture weight/component count mismatch")

    def __len__(self) -> int:
        return len(self.comps)

    def scaled(self, log_factor: float) -> "GaussianMixture":
        return GaussianMixture([lw + log_factor for lw in self.log_w], list(self.comps))

    def pruned(self, log_threshold: float) -> "GaussianMixture":
        keep = [i for i, lw in enumerate(self.log_w) if lw >= log_threshold]
        return GaussianMixture([self.log_w[i] for i in keep], [self.comps[i] for i in keep])

    def total_mass(self) -> float:
        return float(np.sum(np.exp(self.log_w))) if self.log_w else 0.0
