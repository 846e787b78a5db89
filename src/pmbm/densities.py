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

Stacks: ``kalman_predict``, ``ellipsoidal_gate`` and
``predicted_measurement_loglik`` take one density or a sequence and return
one row per density; ``kalman_update_gated`` updates the pairs a gate
marks.  A sequence is one stack, computed with batched array operations and
one LAPACK factor or solve per density, so each row equals what the kernel
gives for that density alone.

Memo contract: a density is immutable (its arrays are read-only), so the
innovation stack of a sequence against a sensor (H m, the Cholesky factor
of S = H P H' + R and log|S|) is built once, with S factored once per
density, and kept on each density.  The gate, the likelihoods and every
update that follow reuse it while the same sensor object asks and the
densities they ask for lie in one stack; the distances to the last scan are
kept with it, so a scan's gate and likelihoods solve once.  A row's gain and
posterior covariance are built on its first update, for the rows asked
only.  The density's own Cholesky factor, used by ``gaussian_logpdf``, is
kept the same way, or from validation.
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
    """0.5 (P + P') of one matrix or of each of a stack."""
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


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
    """The one Cholesky check each internal covariance of ``cov``, one
    (d, d) or a stack (N, d, d), gets."""
    if cov.ndim == 2:
        if dpotrf(cov, lower=1, clean=0)[1] != 0:
            raise NumericalError(f"{what} is not positive definite")
        return
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


def _stack(arrays) -> np.ndarray:
    try:
        return np.stack(arrays)
    except ValueError:
        raise ConfigurationError("densities in one stack need one state width") from None


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


def _densities(dens) -> tuple[list, bool]:
    """A kernel's argument, one density or a sequence, as a list, and
    whether it was one density."""
    if isinstance(dens, GaussianDensity):
        return [dens], True
    return list(dens), False


def kalman_predict(dens, motion: LinearGaussianMotion):
    """Prediction of one density, or of a sequence as one stack (a list of
    predictions back)."""
    seq, one = _densities(dens)
    if not seq:
        return []
    means, covs = _stack([d.mean for d in seq]), _stack([d.cov for d in seq])
    if motion.F.shape[1] != means.shape[1]:
        raise ConfigurationError("motion model dimension does not match state")
    mean = (motion.F @ means[:, :, None])[:, :, 0]
    cov = symmetrize(motion.F @ covs @ motion.F.T + motion.Q)
    _check_pd(cov, "predicted covariance")
    out = [GaussianDensity._trusted(mean[n], cov[n]) for n in range(len(seq))]
    return out[0] if one else out


@dataclass(slots=True)
class _Innovations:
    """The innovations of a stack of N densities against one sensor: H m
    (N, dz), the lower Cholesky factor of each S = H P H' + R (as ``dpotrf``
    returns it) and log|S| (N,).  A row's gain K and posterior covariance P⁺
    are built on its first measurement update; ``built`` marks those rows.
    ``maha`` (N, m) holds the squared Mahalanobis innovation distances of
    the rows of the last scan measured, a copy of which ``scan`` keeps."""

    sensor: LinearGaussianSensor
    means: np.ndarray
    covs: np.ndarray
    Hm: np.ndarray
    chol: list
    log_det: np.ndarray
    K: np.ndarray
    post_cov: np.ndarray
    built: np.ndarray
    scan: np.ndarray | None = None
    maha: np.ndarray | None = None


def _innovations(seq: list, sensor: LinearGaussianSensor) -> tuple[_Innovations, list]:
    """The innovation stack of the densities ``seq`` and each one's row in
    it.  The stack that last covered all of them is reused; otherwise one
    is built over ``seq``, each S factored once, and kept on each density."""
    memo = [d._innov for d in seq]
    if all(m is not None and m[0] is memo[0][0] for m in memo) and memo[0][0].sensor is sensor:
        return memo[0][0], [m[1] for m in memo]
    H = sensor.H
    means, covs = _stack([d.mean for d in seq]), _stack([d.cov for d in seq])
    if H.shape[1] != means.shape[1]:
        raise ConfigurationError("sensor model dimension does not match state")
    chol = []
    for S in symmetrize(H @ covs @ H.T + sensor.R):
        c, info = dpotrf(S, lower=1, clean=0)
        if info != 0:
            raise NumericalError("singular innovation covariance")
        chol.append(c)
    log_det = 2.0 * np.sum(np.log(np.diagonal(np.stack(chol), axis1=1, axis2=2)), axis=1)
    if not np.isfinite(log_det).all():
        raise NumericalError("singular innovation covariance")
    n, dx, dz = len(seq), H.shape[1], H.shape[0]
    Hm = (H @ means[:, :, None])[:, :, 0]
    stack = _Innovations(
        sensor, means, covs, Hm, chol, log_det,
        np.empty((n, dx, dz)), np.empty((n, dx, dx)), np.zeros(n, dtype=bool),
    )
    for row, d in enumerate(seq):
        object.__setattr__(d, "_innov", (stack, row))
    return stack, list(range(n))


def _posterior(stack: _Innovations, rows) -> None:
    """Build the gain K = P H' S⁻¹ and the Joseph-form posterior covariance
    of each of ``rows`` that lacks them, as one stack with one Cholesky
    check of the new covariances."""
    todo = sorted({n for n in rows if not stack.built[n]})
    if not todo:
        return
    H, R = stack.sensor.H, stack.sensor.R
    for n, HP in zip(todo, H @ stack.covs[todo]):
        stack.K[n] = _solve(stack.chol[n], HP).T
    K = stack.K[todo]
    I_KH = np.eye(H.shape[1]) - K @ H
    cov = symmetrize(I_KH @ stack.covs[todo] @ I_KH.swapaxes(1, 2) + K @ R @ K.swapaxes(1, 2))
    _check_pd(cov, "posterior covariance")
    stack.post_cov[todo] = cov
    stack.built[todo] = True


def kalman_update(
    d: GaussianDensity, sensor: LinearGaussianSensor, z: np.ndarray
) -> tuple[GaussianDensity, float]:
    """Measurement update.  Returns the posterior and the log predictive
    likelihood log N(z; H m, H P H' + R)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (sensor.meas_dim,):
        raise ConfigurationError("measurement dimension does not match sensor")
    stack, (row,) = _innovations([d], sensor)
    _posterior(stack, (row,))
    nu = z - stack.Hm[row]
    mean = d.mean + stack.K[row] @ nu
    maha = float(nu @ _solve(stack.chol[row], nu))
    log_lik = -0.5 * (maha + stack.log_det[row] + z.size * _LOG_2PI)
    return GaussianDensity._trusted(mean, stack.post_cov[row]), float(log_lik)


def kalman_update_gated(dens, sensor: LinearGaussianSensor, Z: np.ndarray, mask: np.ndarray):
    """Measurement updates of each pair (n, j) that ``mask`` (N, m) marks,
    for a sequence of N densities and the rows of Z, as one stack: the
    pairs' posterior means (P, d) in row-major pair order, and the
    posterior covariances (N, d, d), built only for rows with a pair."""
    Z, seq = as_scan(Z, sensor.meas_dim), list(dens)
    if not seq:
        dx = sensor.H.shape[1]
        return np.zeros((0, dx)), np.zeros((0, dx, dx))
    stack, rows = _innovations(seq, sensor)
    pn, pj = np.nonzero(mask)
    at = np.asarray(rows)[pn]
    _posterior(stack, at.tolist())
    nu = Z[pj] - stack.Hm[at]
    means = stack.means[at] + (stack.K[at] @ nu[:, :, None])[:, :, 0]
    return means, stack.post_cov[rows]


def _scan_pass(dens, sensor: LinearGaussianSensor, Z):
    """Squared Mahalanobis innovation distances (N, m) of the rows of Z for
    the N densities ``dens``, their log|S| (N,) and whether ``dens`` was one
    density.  The distances take one triangular solve per density of the
    stack and are kept with it for the next kernel that reads the same Z."""
    Z = as_scan(Z, sensor.meas_dim)
    seq, one = _densities(dens)
    if not seq:
        return np.zeros((0, Z.shape[0])), np.zeros(0), one
    stack, rows = _innovations(seq, sensor)
    if stack.scan is None or not np.array_equal(stack.scan, Z):
        nu = Z - stack.Hm[:, None, :]
        sol = np.empty_like(nu)
        for n, c in enumerate(stack.chol if Z.shape[0] else ()):
            sol[n] = _solve(c, nu[n].T).T
        stack.scan, stack.maha = Z.copy(), np.einsum("nij,nij->ni", nu, sol)
    return stack.maha[rows], stack.log_det[rows], one


def predicted_measurement_loglik(dens, sensor: LinearGaussianSensor, Z: np.ndarray) -> np.ndarray:
    """log N(z; H m, S) for each row z of Z, without forming posteriors: an
    (m,) row for one density, an (N, m) array for a sequence of N."""
    maha, log_det, one = _scan_pass(dens, sensor, Z)
    out = -0.5 * (maha + log_det[:, None] + sensor.meas_dim * _LOG_2PI)
    return out[0] if one else out


def ellipsoidal_gate(dens, sensor: LinearGaussianSensor, Z: np.ndarray, gamma: float) -> np.ndarray:
    """Boolean mask of rows of Z whose squared Mahalanobis innovation
    distance is below the gate threshold: an (m,) row for one density, an
    (N, m) array for a sequence of N."""
    maha, _, one = _scan_pass(dens, sensor, Z)
    return maha[0] <= gamma if one else maha <= gamma


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
