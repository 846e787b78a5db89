"""Target-generated measurement-set densities.

Two models are provided.  The point model produces at most one measurement
per target per scan.  The extended model produces a Poisson number of
measurements around the target; it exists so the update recursion can be
exercised in full generality, and is evaluation-only as far as the tracking
pipeline is concerned.

Both models expose the same small surface the filter update needs:
``log_f_empty`` (log probability of producing nothing), ``max_subset``
(largest measurement-subset cardinality one target can explain, ``None``
for unbounded) and ``detection_update`` (subset likelihood plus posterior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import (
    GaussianDensity,
    LinearGaussianSensor,
    as_scan,
    gaussian_logpdf,
    kalman_update,
)
from .errors import ConfigurationError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PointTargetModel:
    """At most one measurement per scan: miss with 1-pd, else one detection."""

    sensor: LinearGaussianSensor

    @property
    def max_subset(self) -> int:
        return 1

    def log_f_empty(self) -> float:
        pd = self.sensor.pd
        return math.log(1.0 - pd) if pd < 1.0 else NEG_INF

    def detection_update(
        self, d: GaussianDensity, Z: np.ndarray
    ) -> tuple[float, GaussianDensity | None]:
        """Log ⟨d, f(Z|·)⟩ and the matching posterior for a measurement subset.

        Subsets with more than one element have density zero under this model.
        """
        Z = as_scan(Z, self.sensor.meas_dim)
        if Z.shape[0] != 1:
            return NEG_INF, None
        if self.sensor.pd == 0.0:
            return NEG_INF, None
        post, log_lik = kalman_update(d, self.sensor, Z[0])
        return math.log(self.sensor.pd) + log_lik, post


@dataclass(frozen=True)
class ExtendedTargetModel:
    """Poisson number of measurements per detection, constant rate."""

    sensor: LinearGaussianSensor
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ConfigurationError(f"measurement rate must be finite and > 0, got {self.rate}")

    @property
    def max_subset(self) -> None:
        return None

    def log_f_empty(self) -> float:
        pd = self.sensor.pd
        return math.log(1.0 - pd + pd * math.exp(-self.rate))

    def _log_count_term(self, m: int) -> float:
        return math.log(self.sensor.pd) + m * math.log(self.rate) - self.rate

    def detection_update(
        self, d: GaussianDensity, Z: np.ndarray
    ) -> tuple[float, GaussianDensity | None]:
        """Exact subset likelihood ⟨d, f(Z|·)⟩ and the matching posterior.

        The likelihood is the count term plus the predictive log-likelihoods
        of the sequential Kalman updates that also give the posterior.
        """
        Z = as_scan(Z, self.sensor.meas_dim)
        if Z.shape[0] == 0 or self.sensor.pd == 0.0:
            return NEG_INF, None
        log_lik, post = self._log_count_term(Z.shape[0]), d
        for z in Z:
            post, ll = kalman_update(post, self.sensor, z)
            log_lik += ll
        return log_lik, post


def extended_set_density(model: ExtendedTargetModel, Z: np.ndarray, x) -> float:
    """log f(Z|x) at state x."""
    Z = as_scan(Z, model.sensor.meas_dim)
    if Z.shape[0] == 0:
        return model.log_f_empty()
    if model.sensor.pd == 0.0:
        return NEG_INF
    value = model._log_count_term(Z.shape[0])
    sensor = model.sensor
    mean = sensor.H @ np.asarray(x, dtype=float)
    meas_density = GaussianDensity._trusted(mean, sensor.R, sensor._noise)
    for term in gaussian_logpdf(Z, meas_density).tolist():
        value += term
    return value
