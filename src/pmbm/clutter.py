"""Evaluable clutter-set densities.

Every clutter model answers one question: ``log_density(Z)`` for a finite
measurement set Z (the empty set included).  The filter update never
branches on the clutter family; it only ever calls this evaluation.
Sampling methods live on the same objects so the simulation harness and the
evaluator cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .densities import GaussianDensity, LinearGaussianSensor
from .errors import ConfigurationError, SizeLimitError
from .measmodel import ExtendedTargetModel, extended_set_density

NEG_INF = float("-inf")
_TRUNCATION_TAIL = 1e-14
_UNBUILT = object()


def _as_scan(Z) -> np.ndarray:
    """Normalize a measurement-set argument to an (m, dz) array."""
    if Z is None:
        return np.zeros((0, 1))
    arr = np.asarray(Z, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[-1] if arr.ndim == 2 else 1)
    return np.atleast_2d(arr)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle on which uniform spatial densities live."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigurationError("region bounds must be matching vectors")
        if not np.all(hi > lo):
            raise ConfigurationError("region must have positive extent")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def area(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains(self, Z: np.ndarray) -> np.ndarray:
        Z = _as_scan(Z)
        return np.all((Z >= self.lo) & (Z <= self.hi), axis=1)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(count, self.dim))


@dataclass(frozen=True)
class PoissonCardinality:
    mean: float

    def __post_init__(self):
        if self.mean < 0.0:
            raise ConfigurationError("Poisson mean must be >= 0")

    def log_pmf(self, m: int) -> float:
        if m < 0:
            return NEG_INF
        if self.mean == 0.0:
            return 0.0 if m == 0 else NEG_INF
        return m * math.log(self.mean) - self.mean - gammaln(m + 1)

    def variance(self) -> float:
        return self.mean

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.mean))


@dataclass(frozen=True)
class NegBinomialCardinality:
    """Gamma-mixed Poisson count distribution; always over-dispersed."""

    r: float
    p: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ConfigurationError("negative binomial r must be > 0")
        if not 0.0 < self.p <= 1.0:
            raise ConfigurationError("negative binomial p must lie in (0, 1]")

    @property
    def mean(self) -> float:
        return (1.0 - self.p) * self.r / self.p

    def variance(self) -> float:
        return (1.0 - self.p) * self.r / self.p**2

    def log_pmf(self, m: int) -> float:
        if m < 0:
            return NEG_INF
        if self.p == 1.0:
            return 0.0 if m == 0 else NEG_INF
        return (
            gammaln(self.r + m)
            - gammaln(self.r)
            - gammaln(m + 1)
            + self.r * math.log(self.p)
            + m * math.log(1.0 - self.p)
        )

    def sample(self, rng: np.random.Generator) -> int:
        lam = rng.gamma(shape=self.r, scale=(1.0 - self.p) / self.p)
        return int(rng.poisson(lam))


def nb_from_mean_dispersion(mean: float, dispersion: float) -> NegBinomialCardinality:
    """Negative binomial with the given mean and variance-to-mean ratio."""
    if mean <= 0.0:
        raise ConfigurationError("clutter mean must be > 0")
    if dispersion <= 1.0:
        raise ConfigurationError(
            "negative binomial dispersion must exceed 1 (the distribution is over-dispersed)"
        )
    return NegBinomialCardinality(r=mean / (dispersion - 1.0), p=1.0 / dispersion)


def truncation_bound(log_pmf, tail: float = _TRUNCATION_TAIL, max_m: int = 100_000) -> int:
    """Smallest M with cumulative pmf mass >= 1 - tail."""
    acc = 0.0
    for m in range(max_m + 1):
        acc += math.exp(log_pmf(m))
        if acc >= 1.0 - tail:
            return m
    raise SizeLimitError("cardinality pmf did not accumulate enough mass")


@dataclass(frozen=True)
class PoissonClutter:
    """PPP clutter, uniform over a rectangular region."""

    rate: float
    region: Region

    def __post_init__(self):
        if self.rate < 0.0:
            raise ConfigurationError("clutter rate must be >= 0")

    def log_intensity(self, Z) -> np.ndarray:
        """Per-measurement log λ(z): rate/|A| inside the region, 0 outside."""
        Z = _as_scan(Z)
        out = np.full(Z.shape[0], NEG_INF)
        if self.rate > 0.0:
            inside = self.region.contains(Z)
            out[inside] = math.log(self.rate) - math.log(self.region.area)
        return out

    def log_density(self, Z) -> float:
        Z = _as_scan(Z)
        return -self.rate + float(np.sum(self.log_intensity(Z)))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        count = int(rng.poisson(self.rate))
        return self.region.sample(rng, count)


@dataclass(frozen=True)
class IidClusterClutter:
    """Arbitrary cardinality, IID uniform positions over a region."""

    cardinality: object
    region: Region

    def log_density(self, Z) -> float:
        """log c(Z) = log(|Z|!) + log ρ(|Z|) + Σ log(1/|A|)."""
        Z = _as_scan(Z)
        m = Z.shape[0]
        if m and not bool(np.all(self.region.contains(Z))):
            return NEG_INF
        return (
            float(gammaln(m + 1))
            + self.cardinality.log_pmf(m)
            - m * math.log(self.region.area)
        )

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        count = self.cardinality.sample(rng)
        return self.region.sample(rng, count)


@dataclass(frozen=True)
class ClutterSource:
    """One stationary interfering source: detected with some probability,
    then a Poisson number of Gaussian-distributed measurements."""

    location: np.ndarray
    pd: float
    rate: float
    cov: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float)
        loc.setflags(write=False)
        object.__setattr__(self, "location", loc)
        cov = GaussianDensity(loc, self.cov).cov
        model = ExtendedTargetModel(LinearGaussianSensor(np.eye(loc.size), cov, self.pd), self.rate)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_model", model)

    def log_density(self, Z) -> float:
        Z = _as_scan(Z)
        return extended_set_density(self._model, Z, self.location).value

    def log_meas_density(self, Z) -> np.ndarray:
        """Per-measurement log N(z; location, cov)."""
        Z = _as_scan(Z)
        diff = Z - self.location
        chol = np.linalg.cholesky(self.cov)
        sol = np.linalg.solve(chol, diff.T)
        maha = np.sum(sol**2, axis=0)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return -0.5 * (maha + log_det + Z.shape[1] * math.log(2.0 * math.pi))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if rng.random() >= self.pd:
            return np.zeros((0, self.location.size))
        count = int(rng.poisson(self.rate))
        chol = np.linalg.cholesky(self.cov)
        return self.location + rng.standard_normal((count, self.location.size)) @ chol.T


@dataclass(frozen=True)
class CompositeClutter:
    """Union of PPP clutter and independent stationary sources."""

    ppp: PoissonClutter
    sources: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))

    MAX_ENUMERABLE = 12

    def log_density(self, Z) -> float:
        """log c(Z): sum over all assignments of each z to the PPP or to one
        source of the product of the component densities.

        The sum is organized by source on/off pattern, which reproduces the
        assignment enumeration exactly because each source factorizes over
        its own measurements; tests cross-check against brute force.
        """
        Z = _as_scan(Z)
        m = Z.shape[0]
        if m > self.MAX_ENUMERABLE:
            raise SizeLimitError(
                f"composite clutter density limited to {self.MAX_ENUMERABLE} measurements, got {m}"
            )
        n_src = len(self.sources)
        log_lam = self.ppp.log_intensity(Z) if m else np.zeros(0)
        src_log_l = [s.log_meas_density(Z) if m else np.zeros(0) for s in self.sources]
        terms = []
        for pattern in range(1 << n_src):
            on = [s for s in range(n_src) if pattern >> s & 1]
            t = 0.0
            for s in range(n_src):
                src = self.sources[s]
                if s in on:
                    if src.pd == 0.0:
                        t = NEG_INF
                        break
                    t += math.log(src.pd) - src.rate
                else:
                    t += math.log(1.0 - src.pd) if src.pd < 1.0 else NEG_INF
            if t == NEG_INF:
                continue
            for j in range(m):
                per_z = [log_lam[j]] + [
                    math.log(self.sources[s].rate) + src_log_l[s][j] for s in on
                ]
                t += float(logsumexp(per_z))
            terms.append(t)
        if not terms:
            return NEG_INF
        return -self.ppp.rate + float(logsumexp(terms))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        parts = [self.ppp.sample(rng)]
        parts += [s.sample(rng) for s in self.sources]
        return np.concatenate(parts, axis=0)


class ClutterCache:
    """Memoized ``log c(Z[cell])`` for one clutter model on one scan.

    ``cell`` is a sorted tuple of measurement indices into ``Z``.  Each
    distinct cell is evaluated once, so ``log_density`` must be a
    deterministic function of the measurement set.
    """

    def __init__(self, clutter, Z: np.ndarray):
        self.clutter = clutter
        self.Z = Z
        self._memo: dict[tuple, float] = {}
        self._table = _UNBUILT

    def __call__(self, cell: tuple) -> float:
        out = self._memo.get(cell)
        if out is None:
            out = float(self.clutter.log_density(self.Z[list(cell)]))
            self._memo[cell] = out
        return out

    def count_table(self):
        """``(table, inside)`` when c(Z[cell]) depends on the cell only through
        its size once every point lies in the region (``IidClusterClutter``):
        ``table[x]`` is log c of x in-region points for x = 0..m and
        ``inside[j]`` says whether Z[j] is in the region.  None for other
        models.  Built once per cache, so once per scan in the update.
        """
        if self._table is _UNBUILT:
            self._table = None
            if isinstance(self.clutter, IidClusterClutter):
                m = self.Z.shape[0]
                card = self.clutter.cardinality
                log_area = math.log(self.clutter.region.area)
                table = [
                    math.lgamma(x + 1) + float(card.log_pmf(x)) - x * log_area
                    for x in range(m + 1)
                ]
                inside = self.clutter.region.contains(self.Z) if m else np.zeros(0, bool)
                self._table = (table, inside.tolist())
        return self._table


def poisson_nb_kld(mean: float, dispersion: float) -> float:
    """KLD D(Poisson(mean) || NB(mean, dispersion)) over counts."""
    if mean <= 0.0:
        raise ConfigurationError("mean must be > 0")
    nb = nb_from_mean_dispersion(mean, dispersion)
    poisson = PoissonCardinality(mean)
    bound = truncation_bound(poisson.log_pmf)
    kld = 0.0
    for m in range(bound + 1):
        lp = poisson.log_pmf(m)
        kld += math.exp(lp) * (lp - nb.log_pmf(m))
    return max(kld, 0.0)
