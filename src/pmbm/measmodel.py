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
    gaussian_logpdf,
    kalman_update,
)
from .errors import ConfigurationError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogSetDensity:
    """Log value of a set density, with an approximation flag.

    ``approximate`` is set when the value came from the at-mean
    marginalization shortcut rather than an exact integral.
    """

    value: float
    approximate: bool


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
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
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
        if self.rate <= 0.0:
            raise ConfigurationError("extended-target measurement rate must be > 0")

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
        """At-mean subset likelihood and the sequential-update posterior.

        The likelihood evaluates every measurement density at the prior mean
        (zeroth-order marginalization); the posterior itself is the exact
        sequence of Kalman updates.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[0] == 0 or self.sensor.pd == 0.0:
            return NEG_INF, None
        log_lik = extended_set_density(self, Z, d).value
        post = d
        for z in Z:
            post, _ = kalman_update(post, self.sensor, z)
        return log_lik, post


def extended_set_density(
    model: ExtendedTargetModel, Z: np.ndarray, x
) -> LogSetDensity:
    """log f(Z|x) at a state, or log ⟨d, f(Z|·)⟩ at the mean of a density.

    The density form is a zeroth-order approximation and is flagged as such.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float)) if np.size(Z) else np.zeros((0, model.sensor.meas_dim))
    if Z.shape[0] == 0:
        return LogSetDensity(model.log_f_empty(), approximate=False)
    if isinstance(x, GaussianDensity):
        mean = x.mean
        approximate = True
    else:
        mean = np.asarray(x, dtype=float)
        approximate = False
    if model.sensor.pd == 0.0:
        return LogSetDensity(NEG_INF, approximate=approximate)
    value = model._log_count_term(Z.shape[0])
    meas_density = GaussianDensity._trusted(model.sensor.H @ mean, model.sensor.R)
    for z in Z:
        value += gaussian_logpdf(z, meas_density)
    return LogSetDensity(value, approximate=approximate)
