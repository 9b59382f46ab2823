"""Count-model likelihoods.

Oracles: direct simulation of the data-generating process (mc_count_pmf
plus inline Monte Carlo for the random-effects model), closed forms in
the separated and degenerate corners, scipy.integrate.quad for single
shared-lead-time counts, the per-count adaptive integral
(_count_loglik_ref) for the batched count kernel, and an inline tensor
Gauss-Hermite rule for the single-observation random-effects case.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad
from scipy.special import expit, gammaln, log_expit, logit, logsumexp

from masshist.core import CountDataset, ReParams, SsbParams
from masshist.errors import DomainError
from masshist.likelihood import (delta_factor, frozen_dataset_loglik,
                                 lrm_count_logpmf, lrm_loglik,
                                 marginal_count_pmf, mc_count_pmf, re_loglik,
                                 ssb_count_loglik, ssb_dataset_loglik)
from masshist.likelihood import (_binom_kernel_peak, _counts_loglik,
                                 _log_binom_coef, _log_failure, _log_success,
                                 _re_batch_loglik, _shared_breakpoints)
from masshist.quadrature import (DEFAULT_QUAD, QuadConfig, integrate_weibull,
                                 weibull_cdf, weibull_logsf)

# beta -> 0 proxy: small enough that beta*t is lost against alpha in
# double arithmetic, yet valid for construction (beta must be > 0)
BETA_EPS = 1e-15


def binom_logpmf(k, mass, p):
    k = np.asarray(k, dtype=float)
    logc = gammaln(mass + 1) - gammaln(k + 1) - gammaln(mass - k + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.where(k > 0, k * np.log(p), 0.0)
        lq = np.where(k < mass, (mass - k) * np.log1p(-p), 0.0)
    return logc + lp + lq


def mc_band(se, n_sims):
    """3 sigma with a one-hit Poisson floor for never-observed cells."""
    return 3.0 * np.maximum(se, 1.0 / n_sims)


def single_obs(t, k, mass):
    return CountDataset(schedule=(float(t),), counts=((int(k),),), mass=mass)


class TestSsbCountLoglik:
    def test_tiny_t_zero_count_is_certain(self, theta0):
        ll = ssb_count_loglik(theta0, 300, 1e-9, 0)
        assert abs(ll) < 1e-6

    def test_eta_zero(self):
        p = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5, eta=0.0)
        assert ssb_count_loglik(p, 10, 6.0, 1) == -np.inf
        assert abs(ssb_count_loglik(p, 10, 6.0, 0)) < 1e-12

    def test_beta_zero_proxy_separates(self):
        # with beta ~ 0 the success probability is expit(alpha) whenever
        # the lead time has passed, so the pmf is an explicit mixture
        mass, t = 300, 6.0
        p = SsbParams(alpha=-1.0, beta=BETA_EPS, lam=4.0, gamma=1.5, eta=1.0)
        pmf = marginal_count_pmf(p, mass, t).probs
        q = expit(p.alpha)
        cdf = weibull_cdf(t, p.lam, p.gamma)
        ks = np.arange(mass + 1)
        expected = np.exp(binom_logpmf(ks, mass, q)) * cdf
        expected[0] += 1.0 - cdf
        assert np.max(np.abs(pmf - expected)) < 1e-9

    def test_matches_direct_simulation(self, theta0):
        n = 1_000_000
        mc = mc_count_pmf(theta0, 10, 6.0, n, seed=42)
        ll = ssb_count_loglik(theta0, 10, 6.0, 3)
        assert abs(math.exp(ll) - mc.probs[3]) < mc_band(mc.se[3], n)

    def test_rejects_invalid_observation(self, theta0):
        with pytest.raises(DomainError):
            ssb_count_loglik(theta0, 10, 6.0, 11)
        with pytest.raises(DomainError):
            ssb_count_loglik(theta0, 10, 6.0, -1)
        with pytest.raises(DomainError):
            ssb_count_loglik(theta0, 10, 0.0, 0)

    def test_eta_one_matches_base_model_exactly(self, theta0):
        # eta = 1 passed explicitly must agree with the default
        explicit = SsbParams(alpha=theta0.alpha, beta=theta0.beta,
                             lam=theta0.lam, gamma=theta0.gamma, eta=1.0)
        for k in (0, 2, 7):
            a = ssb_count_loglik(theta0, 10, 6.0, k)
            b = ssb_count_loglik(explicit, 10, 6.0, k)
            assert a == pytest.approx(b, rel=1e-12)


def _count_loglik_ref(p, mass, t, k, cfg=DEFAULT_QUAD, panels=None):
    """log Pr[N(t) = k] from one scalar adaptive integral for this count
    alone, with its own shift and breakpoints: the per-count loop that
    _counts_loglik batches, kept as its reference.  Returns (loglik,
    converged, panels)."""
    a, b, lam, gam, eta = p.alpha, p.beta, p.lam, p.gamma, p.eta
    if eta == 0.0:
        return (0.0 if k == 0 else -np.inf), True, ()

    def kernel(u, shift):
        z = a + b * (t - u)
        lg = (mass - k) * _log_failure(z, eta)
        if k > 0:
            lg = lg + k * _log_success(z, eta)
        return np.exp(lg - shift)

    shift = _binom_kernel_peak(a, b, t, mass, k, eta)
    breaks = None if panels is not None else _shared_breakpoints(
        a, b, t, mass, [k], eta)
    res = integrate_weibull(lambda u: kernel(u, shift), lam, gam, t, cfg,
                            panels=panels, breakpoints=breaks)
    log_int = shift + math.log(res.value) if res.value > 0.0 else -np.inf
    if k == 0:
        ll = float(np.logaddexp(weibull_logsf(t, lam, gam), log_int))
    else:
        ll = _log_binom_coef(mass, k) + log_int
    return ll, res.converged, res.panels


def _quad_count_loglik(p, mass, t, k, points):
    """log Pr[N(t) = k] for k > 0 by scipy.integrate.quad over u, with
    the kernel shifted by its value at u = 0 (where it peaks in the
    cases used) and the Weibull density written out."""
    def lg(u):
        z = p.alpha + p.beta * (t - u)
        return (k * (log_expit(z) + math.log(p.eta))
                + (mass - k) * math.log1p(-p.eta * expit(z)))

    def f(u):
        r = u / p.lam
        dens = p.gamma / p.lam * r ** (p.gamma - 1.0) * math.exp(-r ** p.gamma)
        return math.exp(lg(u) - lg(0.0)) * dens

    val, _ = quad(f, 0.0, t, points=points, epsabs=0.0, epsrel=1e-13,
                  limit=500)
    logc = gammaln(mass + 1) - gammaln(k + 1) - gammaln(mass - k + 1)
    return float(logc + lg(0.0) + math.log(val))


# The batched kernel is compared with the per-count reference with every
# integral held to relative accuracy.  Under the default abs_tol, a
# count whose shifted integral lies far below 1e-14 meets only an
# absolute tolerance, and the per-count value then misses the
# tight-tolerance one by up to 2e-5 nats (gamma 1.5, beta 1, mass 10,
# t 60, k 0) while the batched pass, refined for the other counts too,
# stays within 1e-13: the gap would measure the reference, not the kernel.
REL_ONLY = QuadConfig(abs_tol=1e-300)
NATS = 1e-8


def _assert_nats(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= NATS)


class TestBatchedCounts:
    @pytest.mark.parametrize("mass", [10, 300, 1000])
    @pytest.mark.parametrize("beta", [0.15, 1.0])
    @pytest.mark.parametrize("eta", [1.0, 0.7])
    @pytest.mark.parametrize("gamma", [0.5, 0.75, 1.5])
    def test_matches_per_count_reference(self, gamma, eta, beta, mass):
        p = SsbParams(alpha=-3.0, beta=beta, lam=4.0, gamma=gamma, eta=eta)
        few = np.unique([0, 1, mass // 10, mass // 3, mass])
        every = np.arange(mass + 1)
        sampled = every[::max(1, mass // 30)]
        for t in (1.0, 4.0, 16.0, 60.0):
            ref = {int(k): _count_loglik_ref(p, mass, t, int(k), REL_ONLY)[0]
                   for k in np.union1d(few, sampled)}
            for k in few:
                ll, _, _ = _counts_loglik(p, mass, t, [k], REL_ONLY)
                _assert_nats(ll, [ref[int(k)]])
            ll, _, _ = _counts_loglik(p, mass, t, few, REL_ONLY)
            _assert_nats(ll, [ref[int(k)] for k in few])
            ll, conv, _ = _counts_loglik(p, mass, t, every, REL_ONLY)
            assert conv
            _assert_nats(ll[sampled], [ref[int(k)] for k in sampled])

    @pytest.mark.parametrize("ks", [[3], [0, 5, 40]])
    def test_small_budget_reports_not_converged(self, theta0, ks):
        tiny = QuadConfig(max_subdivisions=1)
        _, conv, _ = _counts_loglik(theta0, 300, 6.0, ks, tiny)
        assert not conv
        _, conv, _ = _counts_loglik(theta0, 300, 6.0, ks, DEFAULT_QUAD)
        assert conv

    @pytest.mark.parametrize("k", [500, 501])
    def test_peak_on_the_z_ceiling_against_quad(self, k):
        # z_hi = alpha + beta t = 0 = logit(500/1000): the k = 500
        # kernel peaks exactly on the ceiling, with zero log-slope there
        p = SsbParams(alpha=-8.0, beta=2.0, lam=10.0, gamma=3.0, eta=1.0)
        want = _quad_count_loglik(p, 1000, 4.0, k, (0.01, 0.03, 0.1, 0.3))
        ll, conv, _ = _counts_loglik(p, 1000, 4.0, [k], DEFAULT_QUAD)
        assert conv
        assert abs(ll[0] - want) <= NATS
        assert abs(ssb_count_loglik(p, 1000, 4.0, k) - want) <= NATS

    def test_frozen_loglik_evaluates_each_time_on_its_anchor_mesh(
            self, theta0, sim_dataset):
        # far enough from theta0 that the anchor meshes lose digits
        # there: re-adapting moves the value by 5.5e-7 nats, and
        # per-count anchor meshes by 2e-9
        mass = sim_dataset.mass
        ll = frozen_dataset_loglik(theta0, sim_dataset)
        moved = SsbParams(alpha=-2.5, beta=0.25, lam=5.0, gamma=1.2)
        want = 0.0
        for t, ks, mult in sim_dataset.grouped():
            _, _, panels = _counts_loglik(theta0, mass, t, ks, DEFAULT_QUAD)
            want += sum(m * _count_loglik_ref(moved, mass, t, int(k),
                                              panels=panels)[0]
                        for k, m in zip(ks, mult))
        theta = np.array([moved.alpha, moved.beta, moved.lam, moved.gamma])
        assert abs(ll(theta) - want) <= 1e-10


class TestSsbDatasetLoglik:
    def test_empty_dataset(self, theta0):
        data = CountDataset(schedule=(2.0,), counts=((),), mass=10)
        assert ssb_dataset_loglik(theta0, data) == 0.0

    def test_single_observation(self, theta0):
        data = single_obs(6.0, 3, 10)
        assert ssb_dataset_loglik(theta0, data) == pytest.approx(
            ssb_count_loglik(theta0, 10, 6.0, 3), rel=1e-14)

    def test_multiplicities_accumulate(self, theta0):
        data = CountDataset(schedule=(6.0,), counts=((2, 2, 3),), mass=10)
        expected = (2.0 * ssb_count_loglik(theta0, 10, 6.0, 2)
                    + ssb_count_loglik(theta0, 10, 6.0, 3))
        assert ssb_dataset_loglik(theta0, data) == pytest.approx(
            expected, rel=1e-13)

    def test_truth_beats_distorted_scale(self, theta0, sim_dataset):
        distorted = SsbParams(alpha=theta0.alpha, beta=theta0.beta,
                              lam=40.0, gamma=theta0.gamma, eta=theta0.eta)
        assert (ssb_dataset_loglik(theta0, sim_dataset)
                > ssb_dataset_loglik(distorted, sim_dataset))


class TestMarginalCountPmf:
    def test_sums_to_one(self, theta0):
        pmf = marginal_count_pmf(theta0, 300, 6.0)
        assert pmf.converged
        assert abs(pmf.probs.sum() - 1.0) < 1e-8

    @pytest.mark.parametrize("gamma,t", [(1.5, 4.0), (0.75, 16.0)])
    def test_default_matches_tight_tolerance(self, gamma, t):
        # the two pmfs of the ensemble benchmark, against 1000x tighter
        # rel_tol with 30x the subdivisions
        p = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=gamma)
        tight = QuadConfig(rel_tol=1e-13, abs_tol=1e-300,
                           max_subdivisions=2000)
        got = marginal_count_pmf(p, 300, t).probs
        want = marginal_count_pmf(p, 300, t, tight).probs
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_large_mass_memory(self, theta0):
        # one pass over 3001 counts holds values per (panel, count) only
        # for a group of panels at a time
        tracemalloc.start()
        try:
            pmf = marginal_count_pmf(theta0, 3000, 4.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pmf.converged
        assert abs(pmf.probs.sum() - 1.0) <= 1e-8
        assert peak < 32 * 2 ** 20

    def test_point_mass_at_tiny_t(self, theta0):
        pmf = marginal_count_pmf(theta0, 20, 1e-9)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-8)

    def test_zero_cell_matches_atom_plus_overlap(self, theta0):
        # Pr[N(t)=0] = Pr[U >= t] + Delta(t)
        for t in (2.0, 6.0, 20.0):
            pmf = marginal_count_pmf(theta0, 10, t)
            expected = (math.exp(weibull_logsf(t, theta0.lam, theta0.gamma))
                        + delta_factor(theta0, 10, t))
            assert pmf.probs[0] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("mass,t", [(1, 2.0), (5, 6.0), (10, 20.0)])
    def test_componentwise_against_simulation(self, theta0, mass, t):
        n = 1_000_000
        pmf = marginal_count_pmf(theta0, mass, t)
        mc = mc_count_pmf(theta0, mass, t, n, seed=1000 + mass)
        band = mc_band(mc.se, n)
        assert np.all(np.abs(pmf.probs - mc.probs) < band)


class TestDeltaFactor:
    def test_vanishes_with_t(self, theta0):
        assert delta_factor(theta0, 300, 1e-12) < 1e-12

    def test_flat_response_reduces_to_lead_time_cdf(self):
        # alpha = -50 makes the response negligible: nobody acts, so the
        # overlap is just the probability the lead time has passed
        p = SsbParams(alpha=-50.0, beta=BETA_EPS, lam=4.0, gamma=1.5)
        expected = 1.0 - math.exp(-((6.0 / 4.0) ** 1.5))
        assert delta_factor(p, 300, 6.0) == pytest.approx(expected, abs=1e-6)

    def test_latent_cdf_identity_on_grid(self):
        # Pr[U<t] = Pr[N(t)>0] + Delta(t), five parameter points by
        # four times = the 20-point grid
        thetas = [
            SsbParams(-3.0, 0.15, 4.0, 1.5),
            SsbParams(-2.0, 0.5, 3.0, 0.8),
            SsbParams(-1.0, 0.25, 6.0, 2.2),
            SsbParams(-4.0, 0.8, 2.0, 1.0),
            SsbParams(-2.5, 0.1, 5.0, 1.2),
        ]
        mass = 10
        for p in thetas:
            for t in (2.0, 6.0, 12.0, 24.0):
                pr_zero = math.exp(ssb_count_loglik(p, mass, t, 0))
                lhs = weibull_cdf(t, p.lam, p.gamma)
                rhs = (1.0 - pr_zero) + delta_factor(p, mass, t)
                assert abs(lhs - rhs) < 1e-8


# datasets for the cell-table passes: ragged columns, an empty column,
# counts at 0 and at mass, several counts per time
CELL_DATASETS = (
    CountDataset(schedule=(1.0, 3.0, 6.0, 12.0, 20.0),
                 counts=((0, 0, 1, 20), (0, 4, 20, 20), (),
                         (0, 9, 13, 20, 9), (20, 20, 17)),
                 mass=20),
    CountDataset(schedule=(2.0, 4.0, 8.0, 16.0, 32.0),
                 counts=((1, 0, 2, 0), (3, 4), (10, 12, 9, 12), (40, 38),
                         (85, 90, 100)),
                 mass=100),
)
CELL_IDS = ["zero_mass_gap", "mass100"]


class TestLrmLoglik:
    def test_symmetric_pair(self):
        data = single_obs(1.0, 1, 2)
        assert lrm_loglik(0.0, BETA_EPS, data) == pytest.approx(
            math.log(0.5), abs=1e-12)

    def test_steep_slope_certain_count(self):
        data = single_obs(1.0, 5, 5)
        assert abs(lrm_loglik(-3.0, 1e3, data)) < 1e-12

    def test_eta_zero(self):
        assert lrm_count_logpmf(-3.0, 0.15, 0.0, 5, 6.0, 0) == 0.0
        assert lrm_count_logpmf(-3.0, 0.15, 0.0, 5, 6.0, 2) == -np.inf

    def test_rejects_out_of_range_count(self):
        with pytest.raises(DomainError):
            lrm_count_logpmf(-3.0, 0.15, 1.0, 5, 6.0, 6)

    def test_broadcasts_like_scalar_loop(self):
        ts = np.array([2.0, 4.0, 8.0])
        ks = np.array([0, 3, 5])
        vec = lrm_count_logpmf(-2.0, 0.2, 0.9, 5, ts, ks)
        scalars = [lrm_count_logpmf(-2.0, 0.2, 0.9, 5, t, int(k))
                   for t, k in zip(ts, ks)]
        assert np.allclose(vec, scalars, rtol=1e-15)

    def test_gradient_matches_finite_differences(self):
        data = CountDataset(
            schedule=(2.0, 4.0, 8.0, 16.0, 32.0),
            counts=((1, 0, 2), (3, 4), (10, 12, 9), (40, 38), (85, 90)),
            mass=100)
        alpha, beta = -2.0, 0.1

        # closed-form score for eta = 1: sum of m*(k - M*p) per cell,
        # with the beta component weighted by t
        ga = gb = 0.0
        for t, ks, mult in data.grouped():
            p = expit(alpha + beta * t)
            resid = np.asarray(ks, dtype=float) - data.mass * p
            ga += float(np.dot(mult, resid))
            gb += float(np.dot(mult, resid)) * t

        h = 1e-6
        fda = (lrm_loglik(alpha + h, beta, data)
               - lrm_loglik(alpha - h, beta, data)) / (2 * h)
        fdb = (lrm_loglik(alpha, beta + h, data)
               - lrm_loglik(alpha, beta - h, data)) / (2 * h)
        assert fda == pytest.approx(ga, rel=1e-5)
        assert fdb == pytest.approx(gb, rel=1e-5)


    @pytest.mark.parametrize("eta", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("data", CELL_DATASETS, ids=CELL_IDS)
    def test_cell_pass_matches_per_time_loop(self, data, eta):
        for alpha, beta in ((-3.0, 0.15), (-1.0, 0.8), (-12.0, 2.5)):
            want = 0.0
            for t, col in zip(data.schedule, data.counts):
                if col:
                    ks, mult = np.unique(np.asarray(col), return_counts=True)
                    want += float(np.dot(mult, lrm_count_logpmf(
                        alpha, beta, eta, data.mass, t, ks)))
            got = lrm_loglik(alpha, beta, data, eta)
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-12 * abs(want)


def _re_obs_loglik(mz: float, vz: float, mass: int, k: int, eta: float,
                   gh_x: np.ndarray, gh_logw: np.ndarray) -> float:
    """log E[Binom(k; mass, eta*expit(Z))] for Z ~ N(mz, vz), by
    Gauss-Hermite recentered on the integrand's mode: one observation at
    a time, with plain loops where re_loglik's batch uses latched masks.
    It is the reference for test_batch_agrees_with_scalar_path."""

    def logh(z):
        z = np.asarray(z, dtype=float)
        out = -0.5 * (z - mz) ** 2 / vz
        out = out + (mass - k) * _log_failure(z, eta)
        if k > 0:
            out = out + k * _log_success(z, eta)
        return out

    sd = math.sqrt(vz)
    grid = mz + sd * np.linspace(-8.0, 8.0, 81)
    if 0 < k < mass * eta:
        grid = np.append(grid, float(logit(k / (mass * eta))))
    m0 = float(grid[int(np.argmax(logh(grid)))])
    # a few damped Newton steps via central differences
    h = 1e-5 * max(sd, 1.0)
    for _ in range(8):
        f0, fp, fm = logh([m0, m0 + h, m0 - h])
        g1 = (fp - fm) / (2.0 * h)
        g2 = (fp - 2.0 * f0 + fm) / (h * h)
        if g2 >= 0.0:
            break
        step = -g1 / g2
        step = max(-4.0 * sd, min(4.0 * sd, step))
        m1 = m0 + step
        if logh(m1) >= f0:
            m0 = m1
        if abs(step) < 1e-10 * max(1.0, abs(m0)):
            break
    f0, fp, fm = logh([m0, m0 + h, m0 - h])
    g2 = (fp - 2.0 * f0 + fm) / (h * h)
    scale = math.sqrt(-1.0 / g2) if g2 < 0.0 else sd
    z_n = m0 + math.sqrt(2.0) * scale * gh_x
    lse = float(logsumexp(gh_logw + gh_x ** 2 + logh(z_n)))
    return (lse + math.log(scale) + 0.5 * math.log(2.0)
            - 0.5 * math.log(2.0 * math.pi * vz))


class TestReLoglik:
    PARAMS = ReParams(mu1=-2.5, mu2=0.2, rho=-0.3, sigma1=1.2, sigma2=0.08,
                      eta=0.9)

    @staticmethod
    def make_data(mass=50):
        sched = (1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 24.0, 48.0)
        counts = ((0,), (1,), (3,), (8,), (12,), (25,), (40,), (48,))
        return CountDataset(schedule=sched, counts=counts, mass=mass)

    def test_degenerate_spread_matches_fixed_effects(self):
        p = ReParams(mu1=-2.0, mu2=0.1, rho=0.0, sigma1=1e-8, sigma2=1e-8,
                     eta=0.9)
        data = CountDataset(schedule=(1.0, 4.0, 8.0, 24.0, 48.0),
                            counts=((0,), (2,), (5,), (14,), (19,)),
                            mass=20)
        got = re_loglik(p, data)
        want = lrm_loglik(-2.0, 0.1, data, eta=0.9)
        assert got == pytest.approx(want, abs=1e-6)

    def test_single_observation_tensor_oracle(self):
        # independent route: full 2-D tensor Gauss-Hermite over (a, b)
        # with rho = 0, directly on the binomial probability
        p = ReParams(mu1=-1.0, mu2=0.15, rho=0.0, sigma1=0.8, sigma2=0.05,
                     eta=0.9)
        t, mass, k = 6.0, 1, 1
        data = single_obs(t, k, mass)
        x, w = hermgauss(80)
        a = p.mu1 + math.sqrt(2.0) * p.sigma1 * x[:, None]
        b = p.mu2 + math.sqrt(2.0) * p.sigma2 * x[None, :]
        vals = p.eta * expit(a + b * t)
        oracle = float((w[:, None] * w[None, :] * vals).sum() / math.pi)
        assert math.exp(re_loglik(p, data)) == pytest.approx(oracle, abs=1e-9)

    def test_batch_agrees_with_scalar_path(self):
        p = ReParams(mu1=-2.0, mu2=0.18, rho=-0.999, sigma1=1.5, sigma2=0.1,
                     eta=0.95)
        data = CountDataset(schedule=(2.0, 6.0, 12.0, 48.0),
                            counts=((0, 1), (5,), (0, 12, 12), (20,)),
                            mass=20)
        x, w = hermgauss(32)
        logw = np.log(w)
        total = 0.0
        for t, ks, mult in data.grouped():
            mz = p.mu1 + p.mu2 * t
            vz = (p.sigma1 ** 2 + 2 * p.rho * p.sigma1 * p.sigma2 * t
                  + (p.sigma2 * t) ** 2)
            for k, m in zip(ks, mult):
                logc = (gammaln(21) - gammaln(k + 1) - gammaln(21 - k))
                ll = _re_obs_loglik(mz, vz, 20, int(k), p.eta, x, logw)
                total += m * (ll + logc)
        assert re_loglik(p, data) == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("data", CELL_DATASETS, ids=CELL_IDS)
    def test_cell_pass_matches_per_cell_loop(self, data, eta):
        # the per-cell loop re_loglik ran before its cell-table pass
        x, w = hermgauss(32)
        logw = np.log(w)
        for p in (ReParams(mu1=-2.5, mu2=0.2, rho=-0.3, sigma1=1.2,
                           sigma2=0.08, eta=eta),
                  ReParams(mu1=-4.0, mu2=0.6, rho=-0.999, sigma1=2.0,
                           sigma2=0.1, eta=eta)):
            total = 0.0
            mzs, vzs, kss, mults, logcs = [], [], [], [], []
            for t, col in zip(data.schedule, data.counts):
                if not col:
                    continue
                ks, mult = np.unique(np.asarray(col), return_counts=True)
                mz = p.mu1 + p.mu2 * t
                vz = (p.sigma1 * p.sigma1
                      + 2.0 * p.rho * p.sigma1 * p.sigma2 * t
                      + (p.sigma2 * t) ** 2)
                for k, m in zip(ks, mult):
                    k = int(k)
                    if eta == 0.0:
                        total += float(m) * (0.0 if k == 0 else -np.inf)
                        continue
                    mzs.append(mz)
                    vzs.append(vz)
                    kss.append(k)
                    mults.append(float(m))
                    logcs.append(_log_binom_coef(data.mass, k))
            if kss:
                ll = _re_batch_loglik(np.asarray(mzs), np.asarray(vzs),
                                      np.asarray(kss), data.mass, eta, x,
                                      logw)
                total += float(np.dot(np.asarray(mults),
                                      ll + np.asarray(logcs)))
            got = re_loglik(p, data)
            if math.isinf(total):
                assert got == total
            else:
                assert abs(got - total) <= 1e-12 * abs(total)

    def test_eta_zero(self):
        p = ReParams(mu1=-2.0, mu2=0.1, rho=0.0, sigma1=1.0, sigma2=0.1,
                     eta=0.0)
        assert re_loglik(p, single_obs(6.0, 0, 10)) == 0.0
        assert re_loglik(p, single_obs(6.0, 3, 10)) == -np.inf

    def test_dataset_loglik_against_monte_carlo(self):
        # per-observation MC with fresh normal draws; delta-method SE on
        # each log probability, summed in quadrature
        p = self.PARAMS
        data = self.make_data()
        mean = np.array([p.mu1, p.mu2])
        cov = np.array([
            [p.sigma1 ** 2, p.rho * p.sigma1 * p.sigma2],
            [p.rho * p.sigma1 * p.sigma2, p.sigma2 ** 2]])
        rng = np.random.default_rng(99)
        n = 400_000
        total, var = 0.0, 0.0
        for t, ks, mult in data.grouped():
            draws = rng.multivariate_normal(mean, cov, size=n)
            prob = p.eta * expit(draws[:, 0] + draws[:, 1] * t)
            for k, m in zip(ks, mult):
                vals = np.exp(binom_logpmf(float(k), data.mass, prob))
                est = vals.mean()
                se = vals.std(ddof=1) / math.sqrt(n)
                total += m * math.log(est)
                var += (m * se / est) ** 2
        got = re_loglik(p, data)
        assert abs(got - total) < 3.0 * math.sqrt(var)


class TestMcCountPmf:
    def test_eta_zero_concentrates_at_zero(self):
        p = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5, eta=0.0)
        mc = mc_count_pmf(p, 5, 6.0, 10_000, seed=3)
        assert mc.probs[0] == 1.0
        assert mc.se[0] == 0.0

    def test_reproducible(self, theta0):
        a = mc_count_pmf(theta0, 5, 6.0, 50_000, seed=11)
        b = mc_count_pmf(theta0, 5, 6.0, 50_000, seed=11)
        assert np.array_equal(a.probs, b.probs)

    def test_single_agent_matches_quadrature(self, theta0):
        n = 200_000
        mc = mc_count_pmf(theta0, 1, 6.0, n, seed=5)
        pmf = marginal_count_pmf(theta0, 1, 6.0)
        assert abs(mc.probs[1] - pmf.probs[1]) < mc_band(mc.se[1], n)

    def test_rejects_bad_sim_count(self, theta0):
        with pytest.raises(DomainError):
            mc_count_pmf(theta0, 5, 6.0, 0, seed=1)
