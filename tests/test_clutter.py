"""Clutter set densities: Poisson, IID-cluster with pluggable cardinality,
and the composite family of Poisson background plus stationary sources."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pmbm.clutter import (
    ClutterSource,
    CompositeClutter,
    IidClusterClutter,
    NegBinomialCardinality,
    PoissonCardinality,
    PoissonClutter,
    Region,
    nb_from_mean_dispersion,
    poisson_nb_kld,
    truncation_bound,
)
from pmbm.densities import GaussianDensity, gaussian_logpdf
from pmbm.errors import ConfigurationError

NEG_INF = float("-inf")


class TestNegBinomial:
    def test_pmf_at_zero(self):
        card = NegBinomialCardinality(2.5, 0.3)
        assert_allclose(card.log_pmf(0), 2.5 * math.log(0.3), atol=1e-12)

    def test_geometric_case(self):
        assert_allclose(NegBinomialCardinality(1.0, 0.5).log_pmf(1), math.log(0.25), atol=1e-12)

    def test_pmf_sums_to_one(self):
        card = NegBinomialCardinality(10.0 / 19.0, 0.05)
        bound = truncation_bound(card.log_pmf, tail=1e-14)
        total = sum(math.exp(card.log_pmf(m)) for m in range(bound + 1))
        assert abs(total - 1.0) < 1e-10

    def test_mean_dispersion_parameterization(self):
        card = nb_from_mean_dispersion(10.0, 20.0)
        assert card.r == 10.0 / 19.0
        assert card.p == 0.05

    def test_unit_mean_double_dispersion(self):
        card = nb_from_mean_dispersion(1.0, 2.0)
        assert card.r == 1.0
        assert card.p == 0.5

    def test_dispersion_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            nb_from_mean_dispersion(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            nb_from_mean_dispersion(0.0, 20.0)

    def test_sampled_moments(self, rng):
        card = nb_from_mean_dispersion(10.0, 20.0)
        draws = np.array([card.sample(rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 10.0) < 0.2
        assert abs(draws.var() - 200.0) < 4.0

    @given(mean=st.floats(0.5, 30.0), disp=st.floats(1.01, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_analytic_moments_match_request(self, mean, disp):
        card = nb_from_mean_dispersion(mean, disp)
        got_mean = card.r * (1.0 - card.p) / card.p
        got_var = card.r * (1.0 - card.p) / card.p**2
        assert_allclose(got_mean, mean, rtol=1e-10)
        assert_allclose(got_var, disp * mean, rtol=1e-10)


class TestIidCluster:
    def test_empty_set(self, nb_clutter):
        want = nb_clutter.cardinality.log_pmf(0)
        assert_allclose(nb_clutter.log_density(np.zeros((0, 2))), want, atol=1e-12)

    def test_two_point_value(self, nb_clutter):
        Z = np.array([[10.0, 20.0], [250.0, 100.0]])
        want = math.log(2.0) + nb_clutter.cardinality.log_pmf(2) - 2.0 * math.log(9e4)
        assert_allclose(nb_clutter.log_density(Z), want, atol=1e-12)

    def test_point_outside_region(self, nb_clutter):
        Z = np.array([[10.0, 20.0], [301.0, 100.0]])
        assert nb_clutter.log_density(Z) == NEG_INF

    def test_poisson_cardinality_matches_poisson_clutter(self, rng, region):
        """The cluster family with Poisson counts is the same process."""
        ppp = PoissonClutter(7.5, region)
        iid = IidClusterClutter(PoissonCardinality(7.5), region)
        for m in range(5):
            Z = region.sample(rng, m)
            assert_allclose(iid.log_density(Z), ppp.log_density(Z), atol=1e-10)

    def test_set_integral_is_one(self, region):
        """Sum over cardinalities of the integrated m-point density."""
        c = IidClusterClutter(nb_from_mean_dispersion(4.0, 3.0), region)
        bound = truncation_bound(c.cardinality.log_pmf, tail=1e-12)
        z = np.array([150.0, 150.0])
        total = 0.0
        for m in range(bound + 1):
            Z = np.tile(z, (m, 1))
            # uniform density: the integral over A^m is |A|^m / m! times the value
            log_term = c.log_density(Z) + m * math.log(region.area) - math.lgamma(m + 1)
            total += math.exp(log_term)
        assert abs(total - 1.0) < 0.01


class TestCountTerms:
    """Count terms use ``math.lgamma``; scipy's ``gammaln`` is the reference."""

    @pytest.mark.parametrize(
        "card",
        [PoissonCardinality(3.0), NegBinomialCardinality(0.3, 0.2), nb_from_mean_dispersion(10.0, 20.0)],
        ids=["poisson", "nb-small-r", "nb-paper"],
    )
    def test_count_table_matches_gammaln(self, card, region, rng):
        from scipy.special import gammaln

        clutter = IidClusterClutter(card, region)
        table, _ = clutter.count_table(region.sample(rng, 60))
        log_area = math.log(region.area)
        for x, got in enumerate(table):
            if isinstance(card, PoissonCardinality):
                terms = [x * math.log(card.mean), -card.mean, -gammaln(x + 1)]
            else:
                terms = [gammaln(card.r + x), -gammaln(card.r), -gammaln(x + 1)]
                terms += [card.r * math.log(card.p), x * math.log(1.0 - card.p)]
            terms += [gammaln(x + 1), -x * log_area]
            # math.lgamma is within 4 ulps of gammaln on these arguments (3
            # near small integers such as 3); allow 8 of each term.
            assert abs(got - math.fsum(terms)) <= 8 * sum(np.spacing(abs(t)) for t in terms)
            assert abs(math.lgamma(x + 1) - gammaln(x + 1)) <= 8 * np.spacing(gammaln(x + 1))


class TestPoissonClutter:
    def test_zero_rate_allows_only_empty(self, region):
        c = PoissonClutter(0.0, region)
        assert c.log_density(np.zeros((0, 2))) == 0.0
        assert c.log_density(np.array([[1.0, 1.0]])) == NEG_INF

    def test_density_formula(self, region):
        c = PoissonClutter(10.0, region)
        Z = np.array([[1.0, 1.0], [2.0, 2.0]])
        want = -10.0 + 2.0 * (math.log(10.0) - math.log(9e4))
        assert_allclose(c.log_density(Z), want, atol=1e-12)

    def test_sample_stays_inside(self, rng, region):
        c = PoissonClutter(30.0, region)
        Z = c.sample(rng)
        assert region.contains(Z).all()


class TestComposite:
    def _source(self, loc=(100.0, 100.0), pd=0.9, rate=2.0):
        return ClutterSource(np.array(loc), pd, rate, 9.0 * np.eye(2))

    def test_no_sources_equals_poisson(self, rng, region):
        ppp = PoissonClutter(5.0, region)
        comp = CompositeClutter(ppp, ())
        for m in range(4):
            Z = region.sample(rng, m)
            assert comp.log_density(Z) == ppp.log_density(Z)

    def test_empty_set_factorizes(self, region):
        src = self._source()
        comp = CompositeClutter(PoissonClutter(5.0, region), (src,))
        want = -5.0 + src.log_density(np.zeros((0, 2)))
        assert_allclose(comp.log_density(np.zeros((0, 2))), want, atol=1e-12)

    def test_two_point_hand_enumeration(self, region):
        """One source, two measurements: sum over the 4 splits."""
        src = self._source()
        ppp = PoissonClutter(5.0, region)
        comp = CompositeClutter(ppp, (src,))
        Z = np.array([[99.0, 101.0], [103.0, 97.0]])
        terms = []
        for mask in range(4):
            to_src = [j for j in range(2) if mask & (1 << j)]
            to_ppp = [j for j in range(2) if not mask & (1 << j)]
            terms.append(ppp.log_density(Z[to_ppp]) + src.log_density(Z[to_src]))
        want = float(np.logaddexp.reduce(terms))
        assert_allclose(comp.log_density(Z), want, atol=1e-10)

    def test_large_set_matches_brute_force(self, rng, region):
        """13 measurements, seven of them near the source: the sum over source
        on/off patterns equals the sum over all 2^13 PPP/source splits."""
        src = self._source()
        ppp = PoissonClutter(5.0, region)
        comp = CompositeClutter(ppp, (src,))
        Z = np.vstack([src.location + 3.0 * rng.standard_normal((7, 2)), region.sample(rng, 6)])
        terms = []
        for mask in range(1 << 13):
            to_src = [j for j in range(13) if mask >> j & 1]
            to_ppp = [j for j in range(13) if not mask >> j & 1]
            terms.append(ppp.log_density(Z[to_ppp]) + src.log_density(Z[to_src]))
        want = float(np.logaddexp.reduce(terms))
        assert_allclose(comp.log_density(Z), want, atol=1e-10)

    def test_source_covariance_validated_on_construction(self):
        with pytest.raises(ConfigurationError):
            ClutterSource(np.array([1.0, 2.0]), 0.5, 2.0, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_source_meas_density_reads_its_own_factor(self, rng, monkeypatch):
        from pmbm import densities

        src = ClutterSource(np.array([100.0, 100.0]), 0.9, 2.0, np.array([[9.0, 2.0], [2.0, 4.0]]))
        calls = []
        real_factor = densities._factor
        monkeypatch.setattr(densities, "_factor", lambda a: calls.append(1) or real_factor(a))
        Z = src.location + rng.normal(size=(5, 2))
        want = [gaussian_logpdf(z, GaussianDensity(src.location, src.cov)) for z in Z]
        calls.clear()
        assert src.log_meas_density(Z).tolist() == want
        assert calls == []

    def test_sample_concatenates_parts(self, rng, region):
        comp = CompositeClutter(PoissonClutter(20.0, region), (self._source(rate=5.0),))
        Z = comp.sample(rng)
        assert Z.ndim == 2 and Z.shape[1] == 2


class TestKld:
    def test_nonnegative(self):
        for a in (1.2, 2.0, 7.0):
            assert poisson_nb_kld(5.0, a) >= 0.0

    def test_grows_with_dispersion(self):
        assert poisson_nb_kld(10.0, 20.0) > poisson_nb_kld(10.0, 2.0)

    def test_near_poisson_limit(self):
        assert poisson_nb_kld(1.0, 1.001) < 1e-3

    @pytest.mark.parametrize(
        "mean, dispersion, name",
        [(math.nan, 2.0, "mean"), (math.inf, 2.0, "mean"), (10.0, math.inf, "dispersion"), (10.0, math.nan, "dispersion")],
    )
    def test_non_finite_input_named(self, mean, dispersion, name):
        # nan used to reach the pmf-mass check and inf a negative r.
        for f in (poisson_nb_kld, nb_from_mean_dispersion):
            with pytest.raises(ConfigurationError, match=f"clutter {name} must be finite"):
                f(mean, dispersion)


PLANE = Region((0.0, 0.0), (300.0, 300.0))
SOURCE = ClutterSource(np.array([100.0, 100.0]), 0.9, 2.0, 9.0 * np.eye(2))


class TestParameters:
    @pytest.mark.parametrize(
        "build, name",
        [
            # nan rate made every merged-regime measurement a certain new
            # track; nan r and a nan source rate forced the all-clutter fallback.
            (lambda: PoissonClutter(math.nan, PLANE), "clutter rate"),
            (lambda: PoissonClutter(math.inf, PLANE), "clutter rate"),
            (lambda: IidClusterClutter(NegBinomialCardinality(math.nan, 0.5), PLANE), "negative binomial r"),
            (lambda: NegBinomialCardinality(math.inf, 0.5), "negative binomial r"),
            (lambda: PoissonCardinality(math.nan), "Poisson mean"),
            (lambda: PoissonCardinality(math.inf), "Poisson mean"),
            (lambda: ClutterSource(np.array([1.0, 1.0]), 0.5, math.nan, np.eye(2)), "rate"),
            (lambda: Region((0.0, 0.0), (1.0, math.inf)), "region bounds"),
            (lambda: Region((-math.inf, 0.0), (1.0, 1.0)), "region bounds"),
        ],
    )
    def test_non_finite_parameter_refused(self, build, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            build()


class TestScanWidth:
    """Every clutter evaluation refuses rows of another width than its
    region or source; numpy broadcast 1-wide rows and raised its own
    ValueError for 3-wide ones."""

    EVALUATIONS = [
        lambda Z: PLANE.contains(Z),
        lambda Z: PoissonClutter(5.0, PLANE).log_intensity(Z),
        lambda Z: PoissonClutter(5.0, PLANE).log_density(Z),
        lambda Z: PoissonClutter(0.0, PLANE).log_density(Z),
        lambda Z: IidClusterClutter(PoissonCardinality(5.0), PLANE).log_density(Z),
        lambda Z: IidClusterClutter(PoissonCardinality(5.0), PLANE).count_table(Z),
        lambda Z: SOURCE.log_density(Z),
        lambda Z: SOURCE.log_meas_density(Z),
        lambda Z: CompositeClutter(PoissonClutter(5.0, PLANE), (SOURCE,)).log_density(Z),
    ]

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("evaluate", EVALUATIONS)
    def test_other_width_refused(self, evaluate, width):
        with pytest.raises(ConfigurationError, match="need width 2"):
            evaluate(np.full((2, width), 50.0))

    @pytest.mark.parametrize("width", [1, 3])
    def test_composite_source_of_another_width_refused(self, width):
        # The composite was accepted and ran an update on an empty 2-D scan.
        source = ClutterSource(np.full(width, 0.5), 0.5, 0.5, np.eye(width))
        with pytest.raises(ConfigurationError, match="PPP region's width, 2"):
            CompositeClutter(PoissonClutter(1.0, PLANE), (source,))

    @pytest.mark.parametrize("evaluate", EVALUATIONS)
    def test_empty_scan_of_any_shape_is_the_empty_set(self, evaluate):
        assert repr(evaluate(np.zeros(0))) == repr(evaluate(np.zeros((0, 2))))
