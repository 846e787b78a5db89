"""Acceptance gate for the package.

Each test checks one release criterion at its stated tolerance and prints a
single [PASS]/[FAIL] line with the key numbers (run ``pytest -s`` to see
them).  The Monte Carlo experiment behind criteria 8 and 10 runs once per
session and is reused by both tests.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from pmbm.clutter import (
    IidClusterClutter,
    PoissonClutter,
    Region,
    nb_from_mean_dispersion,
    poisson_nb_kld,
)
from pmbm.densities import GaussianDensity, GaussianMixture, LinearGaussianSensor, predicted_measurement_loglik
from pmbm.filtering import PmbmDensity, update
from pmbm.gospa import GospaConfig, gospa
from pmbm.harness import DEFAULT_FILTERS, ScenarioConfig, experiment
from pmbm.hypotheses import GlobalHypothesis, count_hypotheses
from pmbm.measmodel import PointTargetModel
from pmbm.oracle import KEEP_ALL, check_composite, check_gibbs, check_update, target_marginals

LINE = Region((-100.0,), (100.0,))


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


# Global hypothesis counts after updating a prior with n targets, for
# m = 1, 2, 3, 4, 5, 10 measurements (n = 0 is a fresh-birth prior).
COUNT_TABLE = {
    ("point", "ppp"): {
        0: (1, 1, 1, 1, 1, 1),
        1: (2, 3, 4, 5, 6, 11),
        4: (5, 21, 73, 209, 501, 8501),
    },
    ("point", "arbitrary"): {
        0: (2, 4, 8, 16, 32, 1024),
        1: (3, 8, 20, 48, 112, 6144),
        4: (6, 32, 152, 648, 2512, 850944),
    },
    ("general", "ppp"): {
        0: (1, 2, 5, 15, 52, 115975),
        1: (2, 5, 15, 52, 203, 678570),
        4: (5, 26, 141, 799, 4736, 67310847),
    },
    ("general", "arbitrary"): {
        0: (2, 5, 15, 52, 203, 678570),
        1: (3, 10, 37, 151, 674, 3535027),
        4: (6, 37, 235, 1540, 10427, 247126450),
    },
}
TABLE_M = (1, 2, 3, 4, 5, 10)


def test_criterion_01_hypothesis_count_table():
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for (target, clutter), rows in COUNT_TABLE.items():
        for n, expected in rows.items():
            for m, want in zip(TABLE_M, expected):
                got = count_hypotheses(target, clutter, n, m)
                checked += 1
                if got != want:
                    bad.append(f"{target}/{clutter} n={n} m={m}: {got} != {want}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    report(1, ok, f"hypothesis-count table {checked} entries exact, {elapsed:.3f}s" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_02_update_matches_enumeration_oracle():
    t0 = time.perf_counter()
    ok, msg = check_update(seed=0, trials=200)
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 60.0, f"{msg}, {elapsed:.1f}s")


def test_criterion_03_composite_clutter_equivalence():
    ok, msg = check_composite(seed=0, trials=60)
    report(3, ok, msg)


def test_criterion_04_new_track_existence_closed_forms():
    sensor = LinearGaussianSensor(np.array([[1.0]]), np.array([[1.0]]), 0.9)
    model = PointTargetModel(sensor)
    comp = GaussianDensity(np.zeros(1), np.eye(1))

    def prior():
        return PmbmDensity(
            GaussianMixture([0.0], [comp]),
            [], [], [GlobalHypothesis(0.0, (), ())], frozenset(), 0,
        )

    def born_r(d):
        recs = [r for r in target_marginals(d) if r["origin"] == ("meas", 1, (1,))]
        return recs[0]["r"]

    z1 = np.array([[0.3]])
    z12 = np.array([[0.3], [8.0]])
    log_l1 = math.log(0.9) + float(predicted_measurement_loglik(comp, sensor, z1)[0])
    log_l2 = math.log(0.9) + float(predicted_measurement_loglik(comp, sensor, z12[1:])[0])

    # Poisson clutter: the closed form, and no response to a far measurement.
    ppp_c = PoissonClutter(10.0, LINE)
    cfg_m = replace(KEEP_ALL, clutter_regime="ppp-merged")
    lam = math.exp(float(ppp_c.log_intensity(z1)[0]))
    want = math.exp(log_l1) / (lam + math.exp(log_l1))
    r_one = born_r(update(prior(), z1, model, ppp_c, cfg_m))
    r_two = born_r(update(prior(), z12, model, ppp_c, cfg_m))
    err_form = abs(r_one - want)
    err_invariant = abs(r_two - r_one)

    # Non-Poisson clutter: closed form again, but the far measurement now
    # shifts the existence because the cardinality pmf does not factorize.
    nb = IidClusterClutter(nb_from_mean_dispersion(10.0, 20.0), LINE)
    cfg_a = replace(KEEP_ALL, clutter_regime="arbitrary")
    c_empty = nb.log_density(z1[:0])
    c_z1 = nb.log_density(z1)
    c_z2 = nb.log_density(z12[1:])
    c_both = nb.log_density(z12)
    r_nb_one = born_r(update(prior(), z1, model, nb, cfg_a))
    want_nb_one = math.exp(c_empty + log_l1 - logsumexp([c_z1, c_empty + log_l1]))
    r_nb_two = born_r(update(prior(), z12, model, nb, cfg_a))
    log_num = np.logaddexp(log_l1 + c_z2, log_l1 + log_l2 + c_empty)
    log_den = logsumexp([log_num, c_z1 + log_l2, c_both])
    want_nb_two = math.exp(log_num - log_den)
    err_nb_one = abs(r_nb_one - want_nb_one)
    err_nb_two = abs(r_nb_two - want_nb_two)
    shift = abs(r_nb_two - r_nb_one)

    ok = (
        err_form <= 1e-10
        and err_invariant <= 1e-10
        and err_nb_one <= 1e-10
        and err_nb_two <= 1e-10
        and shift > 1e-6
    )
    report(
        4,
        ok,
        f"poisson closed form err={err_form:.2e}, far-measurement invariance "
        f"err={err_invariant:.2e}; nb closed form errs={err_nb_one:.2e}/{err_nb_two:.2e}, "
        f"nb shift={shift:.2e} (> 1e-6)",
    )


def test_criterion_05_sampled_associations_match_enumeration():
    t0 = time.perf_counter()
    ok, msg = check_gibbs(seed=0, sweeps=100_000, tv_bound=0.05)
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 30.0, f"{msg}, {elapsed:.1f}s")


def test_criterion_06_cardinality_sampler_moments():
    card = nb_from_mean_dispersion(10.0, 20.0)
    exact = card.r == 10.0 / 19.0 and card.p == 0.05
    rng = np.random.default_rng(2026)
    draws = np.array([card.sample(rng) for _ in range(100_000)], dtype=float)
    mean, var = draws.mean(), draws.var()
    ok = exact and abs(mean - 10.0) <= 0.3 and abs(var - 200.0) <= 6.0
    report(
        6,
        ok,
        f"parameters exact (r=10/19, p=0.05): {exact}; sampled mean={mean:.3f} "
        f"(target 10 +-3%), var={var:.1f} (target 200 +-3%)",
    )


def test_criterion_07_divergence_grows_with_dispersion():
    grid = (1.5, 2.0, 5.0, 10.0, 20.0)
    vals = [poisson_nb_kld(10.0, a) for a in grid]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    near = poisson_nb_kld(1.0, 1.001)
    ok = increasing and 0.0 <= near < 1e-3
    report(
        7,
        ok,
        f"divergence at mean 10 over dispersions {grid}: "
        + ", ".join(f"{v:.4f}" for v in vals)
        + f" strictly increasing={increasing}; near-poisson value {near:.2e} < 1e-3",
    )


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    cfg = ScenarioConfig()
    root = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    _, summary = experiment(cfg, DEFAULT_FILTERS, out_dir=str(root / "a"))
    elapsed = time.perf_counter() - t0
    experiment(cfg, DEFAULT_FILTERS, out_dir=str(root / "b"))
    return elapsed, summary, root


def test_criterion_08_experiment_beats_merged_baselines(desk_run):
    elapsed, summary, _ = desk_run
    metrics = summary["metrics"]
    rms = {name: metrics[name]["rms_total"] for name in DEFAULT_FILTERS}
    failed = sum(metrics[name]["failed_runs"] for name in DEFAULT_FILTERS)
    in_band = all(4.5 <= rms[name] <= 7.0 for name in ("a-pmbm", "a-pmb"))
    wins_m, comp_m = summary["paired"]["a-pmbm_vs_pmbm"]
    wins_b, comp_b = summary["paired"]["a-pmb_vs_pmb"]
    ok = (
        in_band
        and comp_m == comp_b == 20
        and wins_m >= 15
        and wins_b >= 15
        and failed == 0
        and elapsed < 900.0
    )
    report(
        8,
        ok,
        "rms " + ", ".join(f"{n}={rms[n]:.3f}" for n in DEFAULT_FILTERS)
        + f"; paired wins {wins_m}/{comp_m} and {wins_b}/{comp_b} (need >=15/20); "
        f"failed runs {failed}; {elapsed:.0f}s (< 900s)",
    )


def test_criterion_09_metric_examples_and_decomposition():
    cfg = GospaConfig(order=2.0, cutoff=10.0, alpha=2.0)
    empty = gospa([], [], cfg)
    miss = gospa([], [(120.0, 80.0)], cfg)
    loc = gospa([(0.0, 0.0)], [(3.0, 4.0)], cfg)
    examples = (
        empty.total == 0.0
        and abs(miss.total - math.sqrt(50.0)) <= 1e-12
        and miss.missed == 50.0
        and abs(loc.total - 5.0) <= 1e-12
        and loc.missed == loc.false_ == 0.0
    )
    rng = np.random.default_rng(99)
    sym_ok = True
    decomp_err = 0.0
    for _ in range(50):
        X = rng.uniform(0.0, 30.0, size=(int(rng.integers(0, 5)), 2))
        Y = rng.uniform(0.0, 30.0, size=(int(rng.integers(0, 5)), 2))
        a, b = gospa(X, Y, cfg), gospa(Y, X, cfg)
        sym_ok = sym_ok and abs(a.total - b.total) <= 1e-12 and a.missed == b.false_ and a.false_ == b.missed
        decomp_err = max(
            decomp_err,
            abs(a.total**2 - (a.localization + a.missed + a.false_)),
        )
    ok = examples and sym_ok and decomp_err <= 1e-12
    report(
        9,
        ok,
        f"examples exact={examples}, symmetry holds={sym_ok}, "
        f"max decomposition error {decomp_err:.2e} (<= 1e-12)",
    )


def test_criterion_10_rerun_is_byte_identical(desk_run):
    _, _, root = desk_run
    same = {}
    for name in ("gospa.csv", "curves.csv", "config.yaml"):
        same[name] = (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes()
    ok = all(same.values())
    report(10, ok, "rerun outputs byte-identical: " + ", ".join(f"{k}={v}" for k, v in same.items()))
