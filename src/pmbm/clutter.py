"""Evaluable clutter-set densities.

Every clutter model answers one question: ``log_density(Z)`` for a finite
measurement set Z (the empty set included).  The filter update never
branches on the clutter family; it only ever calls this evaluation.  A model
whose density depends on Z only through its size inside a region also
provides ``count_table(Z)``, which the Gibbs sampler reads instead, and
computes both from one per-count term.  Sampling methods live on the same
objects so the simulation harness and the evaluator cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import GaussianDensity, LinearGaussianSensor, as_scan, gaussian_logpdf, logsumexp
from .errors import ConfigurationError, SizeLimitError
from .measmodel import ExtendedTargetModel, extended_set_density

NEG_INF = float("-inf")
_TRUNCATION_TAIL = 1e-14


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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError(f"region bounds must be finite, got {lo} and {hi}")
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
        Z = as_scan(Z, self.dim)
        return np.all((Z >= self.lo) & (Z <= self.hi), axis=1)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(count, self.dim))


@dataclass(frozen=True)
class PoissonCardinality:
    mean: float

    def __post_init__(self):
        if not 0.0 <= self.mean < math.inf:
            raise ConfigurationError(f"Poisson mean must be finite and >= 0, got {self.mean}")

    def log_pmf(self, m: int) -> float:
        if m < 0:
            return NEG_INF
        if self.mean == 0.0:
            return 0.0 if m == 0 else NEG_INF
        return m * math.log(self.mean) - self.mean - math.lgamma(m + 1)

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
        if not 0.0 < self.r < math.inf:
            raise ConfigurationError(f"negative binomial r must be finite and > 0, got {self.r}")
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
            math.lgamma(self.r + m)
            - math.lgamma(self.r)
            - math.lgamma(m + 1)
            + self.r * math.log(self.p)
            + m * math.log(1.0 - self.p)
        )

    def sample(self, rng: np.random.Generator) -> int:
        lam = rng.gamma(shape=self.r, scale=(1.0 - self.p) / self.p)
        return int(rng.poisson(lam))


def nb_from_mean_dispersion(mean: float, dispersion: float) -> NegBinomialCardinality:
    """Negative binomial with the given mean and variance-to-mean ratio."""
    for name, value in (("mean", mean), ("dispersion", dispersion)):
        if not math.isfinite(value):
            raise ConfigurationError(f"clutter {name} must be finite, got {value}")
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
        if not 0.0 <= self.rate < math.inf:
            raise ConfigurationError(f"clutter rate must be finite and >= 0, got {self.rate}")

    def log_intensity(self, Z) -> np.ndarray:
        """Per-measurement log λ(z): rate/|A| inside the region, 0 outside."""
        Z = as_scan(Z, self.region.dim)
        out = np.full(Z.shape[0], NEG_INF)
        if self.rate > 0.0:
            inside = self.region.contains(Z)
            out[inside] = math.log(self.rate) - math.log(self.region.area)
        return out

    def log_density(self, Z) -> float:
        return -self.rate + float(np.sum(self.log_intensity(Z)))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        count = int(rng.poisson(self.rate))
        return self.region.sample(rng, count)


@dataclass(frozen=True)
class IidClusterClutter:
    """Arbitrary cardinality, IID uniform positions over a region."""

    cardinality: object
    region: Region

    def _log_count(self, x: int) -> float:
        """log c of x points in the region: log(x!) + log ρ(x) + x log(1/|A|)."""
        return math.lgamma(x + 1) + self.cardinality.log_pmf(x) - x * math.log(self.region.area)

    def log_density(self, Z) -> float:
        inside = self.region.contains(Z)
        if not inside.all():
            return NEG_INF
        return self._log_count(inside.size)

    def count_table(self, Z) -> tuple:
        """``(table, inside)``: ``table[x]`` is log c of x in-region points for
        x = 0..|Z| and ``inside[j]`` says whether Z[j] lies in the region."""
        inside = self.region.contains(Z).tolist()
        return [self._log_count(x) for x in range(len(inside) + 1)], inside

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
        dens = GaussianDensity(loc, self.cov)
        model = ExtendedTargetModel(LinearGaussianSensor(np.eye(loc.size), dens.cov, self.pd), self.rate)
        object.__setattr__(self, "cov", dens.cov)
        object.__setattr__(self, "_dens", dens)
        object.__setattr__(self, "_model", model)

    def log_density(self, Z) -> float:
        return extended_set_density(self._model, Z, self.location)

    def log_meas_density(self, Z) -> np.ndarray:
        """Per-measurement log N(z; location, cov)."""
        return np.array([gaussian_logpdf(z, self._dens) for z in as_scan(Z, self.location.size)])

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
        width = self.ppp.region.dim
        if any(clutter_width(s) not in (None, width) for s in self.sources):
            raise ConfigurationError(f"clutter sources need the PPP region's width, {width}")

    def log_density(self, Z) -> float:
        """log c(Z): sum over all assignments of each z to the PPP or to one
        source of the product of the component densities.

        The sum is organized by source on/off pattern, which reproduces the
        assignment enumeration exactly because each source factorizes over
        its own measurements, so it costs O(2^s · m) for s sources and m
        measurements; tests cross-check against brute force.
        """
        Z = as_scan(Z, self.ppp.region.dim)
        n_src = len(self.sources)
        # Row 0 is log λ(z) of the PPP, row 1+s log(rate_s N(z; source s)).
        per_z = np.stack(
            [self.ppp.log_intensity(Z)]
            + [math.log(s.rate) + s.log_meas_density(Z) for s in self.sources]
        )
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
            t += float(np.sum(logsumexp(per_z[[0] + [1 + s for s in on]], axis=0)))
            terms.append(t)
        if not terms:
            return NEG_INF
        return -self.ppp.rate + float(logsumexp(terms))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        parts = [self.ppp.sample(rng)]
        parts += [s.sample(rng) for s in self.sources]
        return np.concatenate(parts, axis=0)


def clutter_width(model):
    """Measurement width of a clutter model: its (PPP) region's or source
    location's, None for a model with neither."""
    part = getattr(model, "ppp", model)
    if hasattr(part, "region"):
        return part.region.dim
    return part.location.size if hasattr(part, "location") else None


class ClutterCache:
    """Memoized ``log c(Z[cell])`` for one clutter model on one scan.

    ``cell`` is a sorted tuple of measurement indices into ``Z``.  Each
    distinct cell is evaluated once, so ``log_density`` must be a
    deterministic function of the measurement set.  The model's
    ``count_table(Z)``, when it has one, is stored as built; the cache never
    inspects what it holds.  Every association problem of the scan reads it;
    ``rows`` and ``conditionals`` hold the scan's Gibbs conditionals.
    """

    def __init__(self, clutter, Z: np.ndarray):
        self.clutter = clutter
        self.Z = Z
        self._memo: dict[tuple, float] = {}
        table = getattr(clutter, "count_table", None)
        self._table = table(Z) if table is not None else None
        self.rows, self.conditionals = {}, {}  # the sampler's, see ``gibbs.run_gibbs``

    def __call__(self, cell: tuple) -> float:
        out = self._memo.get(cell)
        if out is None:
            out = float(self.clutter.log_density(self.Z[list(cell)]))
            self._memo[cell] = out
        return out

    def count_table(self):
        """The model's ``count_table(Z)`` for this scan, or None without one."""
        return self._table


def poisson_nb_kld(mean: float, dispersion: float) -> float:
    """KLD D(Poisson(mean) || NB(mean, dispersion)) over counts."""
    nb = nb_from_mean_dispersion(mean, dispersion)
    poisson = PoissonCardinality(mean)
    bound = truncation_bound(poisson.log_pmf)
    kld = 0.0
    for m in range(bound + 1):
        lp = poisson.log_pmf(m)
        kld += math.exp(lp) * (lp - nb.log_pmf(m))
    return max(kld, 0.0)
