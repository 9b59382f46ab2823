"""Acceptance suite: one test per shipping criterion.

Each test gathers every sub-check for its criterion, records a single
PASS/FAIL line through conftest.record_criterion (echoed in the
terminal summary), then asserts.  The expensive artifacts, namely the
100-replicate recovery study, the full comparison run, and the five
real-data fits, are session fixtures so each is built exactly once.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom

from conftest import (REAL_DATA_CSV, charpoly_eigenvalues_3x3,
                      record_criterion, run_cli_subprocess)
from masshist.analysis import cross_section, pca_cumvar
from masshist.core import SsbParams
from masshist.estimation import observed_information
from masshist.likelihood import (delta_factor, lrm_loglik, marginal_count_pmf,
                                 mc_count_pmf, ssb_count_loglik)
from masshist.quadrature import integrate_weibull, weibull_cdf, weibull_logsf


def _run(cli_env, args, cwd):
    return run_cli_subprocess(cli_env, args, cwd, timeout=1800)


# ---------------------------------------------------------------------------
# session artifacts


@pytest.fixture(scope="session")
def study_run(cli_env, tmp_path_factory):
    """The default 100-replicate recovery study (theta0, mass 300, ten
    sacrifice times, ten groups each), wall-clock timed."""
    out = tmp_path_factory.mktemp("study") / "run"
    t0 = time.monotonic()
    r = _run(cli_env, ["replicate-study", "--n-reps", "100", "--seed", "0",
                       "--out", str(out)], str(out.parent))
    elapsed = time.monotonic() - t0
    assert r.returncode == 0, r.stderr
    rows = {}
    for ln in (out / "summary.csv").read_text().strip().split("\n")[1:]:
        name, mean, sd = ln.split(",")
        rows[name] = (mean, sd)
    return rows, elapsed


@pytest.fixture(scope="session")
def compare_run(cli_env, tmp_path_factory):
    """One full comparison run at the default generator settings."""
    out = tmp_path_factory.mktemp("compare_full") / "run"
    r = _run(cli_env, ["compare", "--seed", "0", "--out", str(out)],
             str(out.parent))
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "summary.json").read_text())
    spectra = {}
    for name in ("ssb", "re"):
        lines = (out / f"spectrum_{name}.csv").read_text().strip().split("\n")
        spectra[name] = np.array([float(ln.split(",")[2])
                                  for ln in lines[1:]])
    return summary, spectra


@pytest.fixture(scope="session")
def real_bic(cli_env, tmp_path_factory):
    """Delta-BIC per model from fitting all five models to the observed
    invasion counts."""
    out = tmp_path_factory.mktemp("real_fit") / "run"
    r = _run(cli_env, ["fit", str(REAL_DATA_CSV), "--all-models",
                       "--mass", "300", "--no-se", "--out", str(out)],
             str(out.parent))
    assert r.returncode == 0, r.stderr
    delta = {}
    for ln in (out / "bic.csv").read_text().strip().split("\n")[1:]:
        model, _, _, _, d = ln.split(",")
        delta[model] = float(d)
    return delta


# ---------------------------------------------------------------------------
# criterion 1: parameter recovery

# Cramer-Rao standard error of beta for this design: the inverse expected
# Fisher information of the exact count law (marginal_count_pmf, held to
# 1e-8 by criteria 2-4) at theta0, mass 300, the default schedule and ten
# groups per time, with the score by centred differences over (alpha,
# beta, lambda, gamma).  The same reckoning gives 0.0695 for alpha.
CRAMER_RAO_SE_BETA = 0.00284


class TestCriterion1:
    def test_recovery_study_summary(self, study_run):
        rows, elapsed = study_run
        mean = {k: float(rows[k][0])
                for k in ("alpha", "beta", "lambda", "gamma")}
        sd = {k: float(rows[k][1]) for k in ("alpha", "beta")}
        checks = {
            "mean_alpha": -3.1 <= mean["alpha"] <= -2.9,
            "sd_alpha": 0.06 <= sd["alpha"] <= 0.14,
            "mean_beta": 0.145 <= mean["beta"] <= 0.155,
            # No asymptotically unbiased estimator beats CRAMER_RAO_SE_BETA, so
            # the floor sits at the alpha floor's ratio to its SE (0.06/0.0695,
            # about 0.86): it still fails a collapsed or grid-snapped beta.
            "sd_beta": 0.0024 <= sd["beta"] <= 0.008,
            "mean_lambda": 3.5 <= mean["lambda"] <= 5.5,
            "mean_gamma": 1.2 <= mean["gamma"] <= 2.2,
            "runtime": elapsed <= 900.0,
        }
        bad = sorted(k for k, ok in checks.items() if not ok)
        detail = (f"100 replicates in {elapsed:.0f}s: "
                  f"mean(alpha)={mean['alpha']:.4f} sd(alpha)={sd['alpha']:.4f} "
                  f"mean(beta)={mean['beta']:.5f} sd(beta)={sd['beta']:.5f} "
                  f"(Cramer-Rao SE {CRAMER_RAO_SE_BETA:.5f}) "
                  f"mean(lambda)={mean['lambda']:.3f} "
                  f"mean(gamma)={mean['gamma']:.3f}")
        if bad:
            detail += "; outside bounds: " + ", ".join(bad)
        record_criterion(1, not bad, detail)
        assert not bad, detail


# ---------------------------------------------------------------------------
# criterion 2: the zero-count identities linking the count law to the
# lead-time law when every individual is responsive


IDENTITY_GRID = [
    (SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5, eta=1.0), 10),
    (SsbParams(alpha=-2.0, beta=0.30, lam=2.5, gamma=0.8, eta=1.0), 5),
    (SsbParams(alpha=-3.5, beta=0.10, lam=6.0, gamma=2.0, eta=1.0), 50),
    (SsbParams(alpha=-1.5, beta=0.50, lam=3.0, gamma=1.2, eta=1.0), 20),
    (SsbParams(alpha=-4.0, beta=0.25, lam=5.0, gamma=0.6, eta=1.0), 300),
]


class TestCriterion2:
    def test_zero_count_identities(self):
        worst_pos = worst_zero = 0.0
        n_points = 0
        for params, mass in IDENTITY_GRID:
            for t in (2.0, 6.0, 12.0, 24.0):
                n_points += 1
                p_before = float(weibull_cdf(t, params.lam, params.gamma))
                p_after = math.exp(float(
                    weibull_logsf(t, params.lam, params.gamma)))
                p_zero = math.exp(ssb_count_loglik(params, mass, t, 0))
                delta = delta_factor(params, mass, t)
                worst_pos = max(worst_pos,
                                abs(p_before - (1.0 - p_zero) - delta))
                worst_zero = max(worst_zero, abs(p_zero - p_after - delta))
        assert n_points == 20
        passed = worst_pos < 1e-8 and worst_zero < 1e-8
        detail = (f"20-point grid at eta=1: "
                  f"max |Pr[U<t] - Pr[N>0] - Delta| = {worst_pos:.1e}, "
                  f"max |Pr[N=0] - Pr[U>=t] - Delta| = {worst_zero:.1e} "
                  f"(tol 1e-8)")
        record_criterion(2, passed, detail)
        assert passed, detail


# ---------------------------------------------------------------------------
# criterion 3: quadrature pmf against the simulation oracle


class TestCriterion3:
    def test_pmf_matches_simulation_oracle(self, theta0):
        n_sims = 1_000_000
        worst_ratio = 0.0
        worst_sum = 0.0
        for mass in (1, 5, 10):
            for t in (2.0, 6.0, 20.0):
                pmf = marginal_count_pmf(theta0, mass, t)
                mc = mc_count_pmf(theta0, mass, t, n_sims,
                                  seed=int(9000 + 10 * mass + t))
                band = 3.0 * np.maximum(mc.se, 1.0 / n_sims)
                ratio = np.abs(pmf.probs - mc.probs) / band
                worst_ratio = max(worst_ratio, float(ratio.max()))
                worst_sum = max(worst_sum,
                                abs(float(pmf.probs.sum()) - 1.0))
        passed = worst_ratio <= 1.0 and worst_sum < 1e-8
        detail = (f"mass in {{1,5,10}} x t in {{2,6,20}} at 1e6 sims: "
                  f"worst |pmf - mc| = {worst_ratio:.2f} of its 3 SE band, "
                  f"max |sum(pmf) - 1| = {worst_sum:.1e}")
        record_criterion(3, passed, detail)
        assert passed, detail


# ---------------------------------------------------------------------------
# criterion 4: flat action-hazard closed form


class TestCriterion4:
    def test_flat_hazard_binomial_mixture(self):
        # beta enters only through beta * (t - u) <= 24 * 1e-15, far
        # below double resolution next to |alpha| = 3, so this probes
        # the beta -> 0 limit while honoring the beta > 0 invariant
        params = SsbParams(alpha=-3.0, beta=1e-15, lam=4.0, gamma=1.5,
                           eta=1.0)
        worst = 0.0
        k = np.arange(301)
        for t in (2.0, 6.0, 20.0):
            pmf = marginal_count_pmf(params, 300, t).probs
            p_before = float(weibull_cdf(t, params.lam, params.gamma))
            mix = binom.pmf(k, 300, expit(params.alpha)) * p_before
            mix[0] += 1.0 - p_before
            worst = max(worst, float(np.max(np.abs(pmf - mix))))
        passed = worst < 1e-9
        detail = (f"mass 300, t in {{2,6,20}}: max |pmf - binomial "
                  f"mixture| = {worst:.1e} (tol 1e-9)")
        record_criterion(4, passed, detail)
        assert passed, detail


# ---------------------------------------------------------------------------
# criteria 5 and 6: one full comparison run


class TestCriterion5:
    def test_model_separation(self, compare_run):
        summary, _ = compare_run
        log_lr = float(summary["log_lr"])
        delta = {row["model"]: float(row["delta_bic"])
                 for row in summary["bic"]}
        passed = log_lr > 20.0 and delta["ssb"] < delta["lrm_re"]
        detail = (f"log-LR(shared lead time vs random effects) = "
                  f"{log_lr:.1f} (need > 20); delta-BIC ssb = "
                  f"{delta['ssb']:.1f} vs lrm_re = {delta['lrm_re']:.1f}")
        record_criterion(5, passed, detail)
        assert passed, detail


class TestCriterion6:
    def test_spectrum_contrast(self, compare_run):
        _, spectra = compare_run
        ssb_first = float(spectra["ssb"][0])
        re_first = float(spectra["re"][0])
        needed = int(np.searchsorted(spectra["re"], ssb_first) + 1)
        checks = {
            "re_first_below_half": re_first < 0.5,
            "gap_at_least_0.2": ssb_first - re_first >= 0.2,
            "re_needs_3_components": needed >= 3,
        }
        bad = sorted(k for k, ok in checks.items() if not ok)
        detail = (f"first-component variance fraction: shared = "
                  f"{ssb_first:.3f}, random effects = {re_first:.3f}; "
                  f"random effects needs {needed} components to match")
        if bad:
            detail += "; failed: " + ", ".join(bad)
        record_criterion(6, not bad, detail)
        assert not bad, detail


# ---------------------------------------------------------------------------
# criterion 7: early cross-section dominated by zero counts


class TestCriterion7:
    def test_hour4_zero_fraction(self, ssb_ensemble_2000):
        cs = cross_section(ssb_ensemble_2000, 4.0)
        frac = cs.get(0, 0) / float(len(ssb_ensemble_2000))
        passed = 0.45 <= frac <= 0.75
        detail = (f"zero-count fraction at hour 4 = {frac:.3f} over "
                  f"{len(ssb_ensemble_2000)} trajectories "
                  f"(need [0.45, 0.75])")
        record_criterion(7, passed, detail)
        assert passed, detail


# ---------------------------------------------------------------------------
# criterion 8: BIC ordering on the observed invasion counts


class TestCriterion8:
    def test_real_data_bic_ordering(self, real_bic):
        order = sorted(real_bic, key=real_bic.get)
        passed = order[0] == "ssb_plus" and order[1] == "ssb"
        ranking = " < ".join(f"{m}({real_bic[m]:+.1f})" for m in order)
        detail = f"delta-BIC ranking: {ranking} (need ssb_plus < ssb < rest)"
        record_criterion(8, passed, detail)
        assert passed, detail


# ---------------------------------------------------------------------------
# criterion 9: numerical-analysis spot checks


class TestCriterion9:
    def test_numerical_suite(self, sim_dataset):
        # density normalization over an interval carrying all but
        # exp(-40) of the mass, for shapes from heavy- to light-tailed
        norm_worst = 0.0
        for gamma in (0.5, 1.0, 1.5, 2.0):
            t_all = 4.0 * 40.0 ** (1.0 / gamma)
            res = integrate_weibull(lambda u: np.ones_like(u), 4.0, gamma,
                                    t_all)
            norm_worst = max(norm_worst, abs(res.value - 1.0))

        # the spectrum's eigensolver against characteristic-polynomial roots
        rng = np.random.default_rng(907)
        eig_worst = 0.0
        for _ in range(5):
            b = rng.normal(size=(3, 3))
            a = b + b.T
            diff = pca_cumvar(a).eigenvalues - charpoly_eigenvalues_3x3(a)
            eig_worst = max(eig_worst, float(np.max(np.abs(diff))))

        # curvature probe is exact on a quadratic
        a_quad = np.array([[4.0, 1.0, 0.0],
                           [1.0, 3.0, 0.5],
                           [0.0, 0.5, 2.0]])
        b_vec = np.array([0.3, -1.2, 0.7])

        def quad_loglik(x):
            return -0.5 * float(x @ a_quad @ x) + float(b_vec @ x)

        info = observed_information(quad_loglik, np.array([0.4, -0.2, 1.1]))
        info_worst = float(np.max(np.abs(info - a_quad)))

        # finite-difference gradient of the closed-form logistic loglik
        # against its analytic score
        grad_worst = 0.0
        for alpha, beta in ((-3.0, 0.15), (-2.5, 0.2)):
            s_alpha = s_beta = 0.0
            for t, col in zip(sim_dataset.schedule, sim_dataset.counts):
                p = float(expit(alpha + beta * t))
                for k in col:
                    s_alpha += k - sim_dataset.mass * p
                    s_beta += t * (k - sim_dataset.mass * p)
            h_a = 1e-6 * (1.0 + abs(alpha))
            h_b = 1e-6 * (1.0 + abs(beta))
            fd_alpha = (lrm_loglik(alpha + h_a, beta, sim_dataset)
                        - lrm_loglik(alpha - h_a, beta, sim_dataset)) / (2 * h_a)
            fd_beta = (lrm_loglik(alpha, beta + h_b, sim_dataset)
                       - lrm_loglik(alpha, beta - h_b, sim_dataset)) / (2 * h_b)
            grad_worst = max(grad_worst,
                             abs(fd_alpha - s_alpha) / abs(s_alpha),
                             abs(fd_beta - s_beta) / abs(s_beta))

        checks = {
            "normalization_1e-10": norm_worst < 1e-10,
            "eigensolver_1e-9": eig_worst < 1e-9,
            "information_1e-6": info_worst < 1e-6,
            "gradient_1e-5": grad_worst < 1e-5,
        }
        bad = sorted(k for k, ok in checks.items() if not ok)
        detail = (f"|int f_U - 1| = {norm_worst:.1e}, eigenvalue err = "
                  f"{eig_worst:.1e}, information err = {info_worst:.1e}, "
                  f"gradient rel err = {grad_worst:.1e}")
        if bad:
            detail += "; failed: " + ", ".join(bad)
        record_criterion(9, not bad, detail)
        assert not bad, detail
