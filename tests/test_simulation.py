"""Trajectory simulation and the sacrifice protocol.

Oracles: inverse-CDF closed forms, a Kolmogorov-Smirnov bound against
the analytic lead-time CDF, binomial confidence bands on empirical
survival, and the quadrature integrator for ensemble means.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from masshist import simulation
from masshist.analysis import cross_section
from masshist.core import ModelKind, ReParams, SsbParams, Trajectory
from masshist.errors import (DomainError, RejectionBudgetExceeded,
                             SizeMismatch)
from masshist.estimation import FitConfig, fit_model
from masshist.quadrature import integrate_weibull, weibull_cdf
from masshist.simulation import (SimConfig, action_time_from_uniform,
                                 lead_time_from_uniform, run_protocol,
                                 sacrifice_sample, simulate_design,
                                 simulate_re_trajectory, simulate_trajectory,
                                 substream)


class TestSubstream:
    def test_same_key_same_stream(self):
        a = substream(42, 0, 3).random(8)
        b = substream(42, 0, 3).random(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = substream(42, 0, 3).random(8)
        b = substream(42, 0, 4).random(8)
        c = substream(42, 1).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestLeadTimeSampler:
    def test_median_closed_form(self):
        assert lead_time_from_uniform(4.0, 1.0, 0.5) == pytest.approx(
            4.0 * math.log(2.0), rel=1e-14)

    def test_unit_quantile(self):
        assert lead_time_from_uniform(4.0, 1.5, 1.0 - math.exp(-1.0)) == (
            pytest.approx(4.0, rel=1e-14))

    def test_kolmogorov_smirnov(self):
        n = 100_000
        rng = np.random.default_rng(314)
        draws = np.sort(lead_time_from_uniform(4.0, 1.5, rng.random(n)))
        cdf = weibull_cdf(draws, 4.0, 1.5)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert ks < 1.63 / math.sqrt(n)


class TestActionTimeSampler:
    def test_median_closed_form(self):
        # survival one half where alpha + beta*s crosses zero
        assert action_time_from_uniform(-3.0, 0.15, 0.5) == pytest.approx(
            20.0, rel=1e-12)

    def test_atom_at_zero(self):
        atom = expit(-3.0)
        assert action_time_from_uniform(-3.0, 0.15, atom) == 0.0
        assert action_time_from_uniform(-3.0, 0.15, 0.5 * atom) == 0.0

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(DomainError):
            action_time_from_uniform(-3.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            action_time_from_uniform(-3.0, -0.1, 0.5)

    def test_empirical_survival_curve(self):
        n = 100_000
        rng = np.random.default_rng(2718)
        s = action_time_from_uniform(-3.0, 0.15, rng.random(n))
        for x in (0.0, 10.0, 20.0, 40.0):
            surv = 1.0 / (1.0 + math.exp(-3.0 + 0.15 * x))
            got = float(np.mean(s > x))
            band = 3.0 * math.sqrt(surv * (1.0 - surv) / n)
            assert abs(got - surv) < band


class TestSimulateTrajectory:
    def test_dormant_phase_never_acts(self):
        p = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5, eta=0.0)
        traj = simulate_trajectory(p, 20, 12, substream(9, 0, 0))
        assert np.all(traj.counts == 0)

    def test_invariants(self, theta0):
        traj = simulate_trajectory(theta0, 30, 24, substream(11, 0, 0))
        assert traj.horizon == 24
        assert traj.counts.shape == (25,)
        assert np.all(np.diff(traj.counts) >= 0)
        assert traj.counts[0] == 0 and traj.counts[-1] <= 30
        assert traj.lead_time >= 0.0
        # the hourly record agrees with the event times redrawn from the
        # same stream in the documented order
        rng = substream(11, 0, 0)
        u = lead_time_from_uniform(theta0.lam, theta0.gamma, rng.random())
        phase = rng.random(30) < theta0.eta
        ev = u + action_time_from_uniform(theta0.alpha, theta0.beta,
                                          rng.random(30))[phase]
        assert traj.lead_time == u
        for tau in range(25):
            assert traj.events_before(tau) == int(np.sum(ev < tau))

    def test_deterministic_given_stream(self, theta0):
        a = simulate_trajectory(theta0, 30, 24, substream(11, 0, 5))
        b = simulate_trajectory(theta0, 30, 24, substream(11, 0, 5))
        assert np.array_equal(a.counts, b.counts)
        assert a.lead_time == b.lead_time

    def test_ensemble_mean_matches_quadrature(self, theta0,
                                              ssb_ensemble_2000):
        # E[counts[tau]] = M * eta * int_0^tau F_S(tau-u) dF_U(u)
        stack = np.stack([t.counts for t in ssb_ensemble_2000])
        n = stack.shape[0]
        for tau in (2, 4, 8, 24, 48):
            t_edge = float(tau)
            g = lambda u: expit(theta0.alpha + theta0.beta * (t_edge - u))
            mean_model = 300.0 * theta0.eta * integrate_weibull(
                g, theta0.lam, theta0.gamma, t_edge).value
            got = stack[:, tau].mean()
            se = stack[:, tau].std(ddof=1) / math.sqrt(n)
            assert abs(got - mean_model) < 3.0 * se


class TestSimulateReTrajectory:
    PARAMS = ReParams(mu1=-3.0, mu2=0.15, rho=0.0, sigma1=1e-9, sigma2=1e-9)

    def test_deterministic_given_stream(self):
        a = simulate_re_trajectory(self.PARAMS, 30, 24, substream(13, 2, 1))
        b = simulate_re_trajectory(self.PARAMS, 30, 24, substream(13, 2, 1))
        assert np.array_equal(a.counts, b.counts)

    def test_degenerate_spread_matches_logistic_curve(self):
        # sigma ~ 0 pins (a, b); counts[tau] is Binomial(M, F_S(tau))
        # for tau > 0 (counts[0] = 0: nothing acts before hour 0)
        n, mass = 400, 50
        stack = np.stack([
            simulate_re_trajectory(self.PARAMS, mass, 24,
                                   substream(17, 2, i)).counts
            for i in range(n)])
        assert not stack[:, 0].any()
        for tau in (1, 5, 13, 24):
            p = expit(-3.0 + 0.15 * tau)
            got = stack[:, tau].mean()
            se = math.sqrt(mass * p * (1.0 - p) / n)
            assert abs(got - mass * p) < 3.0 * se

    def test_no_lead_time_means_earlier_onset(self, theta0):
        # matched logistic parameters: the lead-time model must show
        # fewer active groups in the first hour
        n = 200
        re_first = np.array([
            simulate_re_trajectory(self.PARAMS, 50, 4,
                                   substream(19, 2, i)).counts[1]
            for i in range(n)])
        ssb_first = np.array([
            simulate_trajectory(theta0, 50, 4, substream(19, 0, i)).counts[1]
            for i in range(n)])
        assert np.mean(re_first > 0) > np.mean(ssb_first > 0) + 0.3

    def test_cached_factor_gives_the_fresh_factor_trajectories(self):
        # the covariance is factored once per parameter value; every
        # trajectory must equal one drawn with a freshly computed factor
        p = ReParams(mu1=-4.0, mu2=0.15, rho=-0.3, sigma1=1.0, sigma2=0.04)
        simulation._re_cholesky.cache_clear()
        cached = [simulate_re_trajectory(p, 300, 60, substream(31, 1, i))
                  for i in range(40)]
        assert simulation._re_cholesky.cache_info().misses == 1
        for i, traj in enumerate(cached):
            simulation._re_cholesky.cache_clear()
            fresh = simulate_re_trajectory(
                ReParams(**vars(p)), 300, 60, substream(31, 1, i))
            assert np.array_equal(traj.counts, fresh.counts)
            assert traj.lead_time == fresh.lead_time
        assert np.array_equal(simulation._re_cholesky(p),
                              np.linalg.cholesky(p.cov()))

    def test_impossible_slope_exhausts_rejections(self, monkeypatch):
        # a small budget keeps the test fast; the loop is the same
        monkeypatch.setattr(simulation, "_REJECTION_BUDGET", 1000)
        p = ReParams(mu1=-3.0, mu2=-50.0, rho=0.0, sigma1=1.0, sigma2=1e-6)
        with pytest.raises(RejectionBudgetExceeded, match="1000 attempts"):
            simulate_re_trajectory(p, 5, 4, substream(23, 2, 0))


def flat_trajectory(event_times, horizon=30):
    """counts[h] = number of the given event times strictly before h."""
    ev = np.sort(np.asarray(event_times, dtype=float))
    counts = np.searchsorted(ev, np.arange(horizon + 1), side="left")
    return Trajectory(counts=counts, lead_time=0.0)


class TestSacrificeSample:
    def test_size_mismatch(self):
        trajs = [flat_trajectory([1.0])] * 5
        with pytest.raises(SizeMismatch):
            sacrifice_sample(trajs, (2.0, 4.0), 3, substream(1, 1), 10)

    def test_identical_trajectories_give_deterministic_counts(self):
        traj = flat_trajectory([0.5, 1.5, 3.0, 9.9])
        data = sacrifice_sample([traj] * 6, (2.0, 4.0), 3, substream(2, 1),
                                10)
        assert data.counts[0] == (2, 2, 2)
        assert data.counts[1] == (3, 3, 3)

    def test_permutation_consumes_each_trajectory_once(self):
        trajs = [flat_trajectory([0.5] * k) for k in range(4)]
        data = sacrifice_sample(trajs, (2.0,), 4, substream(3, 1), 10)
        assert sorted(data.counts[0]) == [0, 1, 2, 3]

    def test_counts_are_strictly_before_the_sacrifice_time(self):
        traj = flat_trajectory([1.0, 4.0, 5.0])
        data = sacrifice_sample([traj], (4.0,), 1, substream(4, 1), 10)
        assert data.counts[0] == (1,)

    def test_records_the_cross_section(self, theta0):
        # the sacrificed count at t is the same N(t) that cross_section
        # reads: sacrificing the whole ensemble at t gives its column
        trajs = [simulate_trajectory(theta0, 300, 60, substream(29, 0, i))
                 for i in range(200)]
        for t in SimConfig(seed=0).schedule:
            data = sacrifice_sample(trajs, (t,), len(trajs),
                                    substream(29, 1), 300)
            ks, n = np.unique(data.counts[0], return_counts=True)
            assert dict(zip(ks.tolist(), n.tolist())) == cross_section(trajs, t)


class TestSimConfig:
    def test_default_shape(self):
        cfg = SimConfig(seed=1)
        assert cfg.n_trajectories == len(cfg.schedule) * cfg.group_size

    def test_rejects_fractional_schedule(self):
        with pytest.raises(DomainError):
            SimConfig(seed=1, schedule=(2.5,), group_size=2)

    def test_rejects_schedule_past_horizon(self):
        with pytest.raises(DomainError):
            SimConfig(seed=1, schedule=(80.0,), group_size=2, horizon=60)


class TestSimulateDesign:
    THETA = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5)

    def test_matches_explicit_substreams(self):
        cfg = SimConfig(seed=8, mass=40, horizon=12,
                        schedule=(2.0, 6.0, 12.0), group_size=3)
        trajs, data = simulate_design(self.THETA, cfg)
        want = [simulate_trajectory(self.THETA, 40, 12, substream(8, 0, i))
                for i in range(9)]
        assert len(trajs) == 9
        for got, ref in zip(trajs, want):
            assert got.lead_time == ref.lead_time
            assert np.array_equal(got.counts, ref.counts)
        ref_data = sacrifice_sample(want, cfg.schedule, 3, substream(8, 1), 40)
        assert data == ref_data

    def test_small_design_pinned(self):
        # values from the inline simulate/sacrifice loops of the CLI, so
        # a change to the substream keys or the draw order shows here
        cfg = SimConfig(seed=3, mass=10, horizon=4, schedule=(2.0, 4.0),
                        group_size=2)
        trajs, data = simulate_design(self.THETA, cfg)
        assert data.schedule == (2.0, 4.0)
        assert data.counts == ((1, 0), (1, 1))
        # counts[h] is N(h), so each record starts at 0 and ends at N(4)
        assert [int(tr.counts[-1]) for tr in trajs] == [1, 0, 1, 1]
        assert [tr.counts.tolist() for tr in trajs] == [
            [0, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 1, 1, 1]]
        assert [tr.lead_time for tr in trajs] == pytest.approx(
            [0.8005855559735618, 4.737059670447552, 3.686332384236105,
             0.7703952283967139], rel=1e-12)


class TestRunProtocol:
    @staticmethod
    def small_result(seed=5):
        cfg = SimConfig(seed=seed, mass=50, horizon=24,
                        schedule=(2.0, 6.0, 12.0, 24.0), group_size=3)
        theta = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5)
        return run_protocol(theta, cfg, FitConfig(compute_se=False))

    def test_reproducible_end_to_end(self):
        a = self.small_result()
        b = self.small_result()
        assert a.dataset.counts == b.dataset.counts
        assert a.ssb_fit.estimates == b.ssb_fit.estimates
        assert a.re_fit.estimates == b.re_fit.estimates
        assert a.log_lr == b.log_lr

    def test_shapes_and_parameter_counts(self):
        res = self.small_result(seed=6)
        assert len(res.trajectories) == 12
        assert len(res.re_trajectories) == 12
        assert res.dataset.schedule == (2.0, 6.0, 12.0, 24.0)
        assert res.dataset.n_obs == 12
        assert res.ssb_fit.model is ModelKind.SSB
        assert res.ssb_fit.n_params == 4
        assert res.re_fit.model is ModelKind.LRM_RE
        assert res.re_fit.n_params == 5
        assert res.log_lr == res.ssb_fit.loglik - res.re_fit.loglik
        assert res.lrm_fit == fit_model(res.dataset, ModelKind.LRM,
                                        FitConfig(compute_se=False))
