"""Fitting machinery: grid search, profiling, information, BIC.

Oracles: inline brute-force scans of closed-form likelihoods,
quadratics whose Hessians are known exactly, self-recovery on data
simulated from known parameters, and per-count loop versions of the
fixed-mesh sweeps that the batched kernel replaced.
"""

import math

import numpy as np
import pytest
from scipy.special import expit, log_expit, logsumexp

from masshist.analysis import jacobi_eigenvalues
from masshist.core import CountDataset, FitResult, ModelKind, SsbParams
from masshist.errors import (DomainError, InsufficientTimes, MissingBaseline,
                             NoFiniteMle, SingularInformation)
from masshist.estimation import (FitConfig, GridAxis, GridSpec, _DatasetTables,
                                 _lead_time_box, _log_sigmoid,
                                 _logsumexp_last, _mesh_loglik, bic_delta,
                                 current_status_loglik, default_logistic_grid,
                                 fit_model, grid_refine_max,
                                 grid_search_logistic,
                                 initial_weibull_estimate,
                                 observed_information, profile_iterate,
                                 std_errors_from_information)
from masshist.likelihood import (_log_failure, _log_success,
                                 frozen_dataset_loglik, ssb_dataset_loglik)
from masshist.quadrature import weibull_logpdf


def axis(name, lo, hi, n, log=False):
    return GridAxis(name, lo, hi, n, log=log)


class TestGridRefineMax:
    def test_recovers_quadratic_maximum(self):
        spec = GridSpec(axes=(axis("x", 0.0, 2.0, 21),
                              axis("y", 0.0, 3.0, 21)),
                        refine_levels=3, shrink=0.2)

        def f(x, y):
            return (-(x[:, None] - 0.37) ** 2
                    - (y[None, :] - 1.23) ** 2)

        res = grid_refine_max(f, spec)
        assert res.point[0] == pytest.approx(0.37, abs=2e-3)
        assert res.point[1] == pytest.approx(1.23, abs=2e-3)
        assert not res.on_boundary

    def test_tie_goes_to_first_scan_point(self):
        spec = GridSpec(axes=(axis("x", 0.0, 2.0, 3),
                              axis("y", 0.0, 2.0, 3)),
                        refine_levels=0)

        def f(x, y):
            return -((x[:, None] - 1.0) ** 2) + 0.0 * y[None, :]

        res = grid_refine_max(f, spec)
        assert res.point == (1.0, 0.0)

    def test_pinned_axis(self):
        spec = GridSpec(axes=(axis("x", 2.0, 2.0, 1),
                              axis("y", 0.0, 1.0, 11)),
                        refine_levels=1)
        res = grid_refine_max(
            lambda x, y: 0.0 * x[:, None] - (y[None, :] - 0.5) ** 2, spec)
        assert res.point[0] == 2.0
        assert res.point[1] == pytest.approx(0.5, abs=1e-6)

    def test_incumbent_only_displaced_by_strict_improvement(self):
        spec = GridSpec(axes=(axis("x", 0.0, 1.0, 11),), refine_levels=0)
        best = grid_refine_max(lambda x: -(x - 0.5) ** 2, spec,
                               incumbent=((0.123,), 99.0))
        assert best.point == (0.123,) and best.value == 99.0
        worse = grid_refine_max(lambda x: -(x - 0.5) ** 2, spec,
                                incumbent=((0.123,), -99.0))
        assert worse.point == (0.5,) and worse.value == 0.0

    def test_boundary_flag(self):
        spec = GridSpec(axes=(axis("x", 0.0, 1.0, 11),), refine_levels=0)
        res = grid_refine_max(lambda x: x.copy(), spec)
        assert res.point == (1.0,) and res.on_boundary

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(axes=(axis("x", 0.0, 1.0, 5),), refine_levels=0)
        with pytest.raises(DomainError):
            grid_refine_max(lambda x: np.zeros(3), spec)

    def test_axis_and_spec_validation(self):
        with pytest.raises(DomainError):
            axis("x", 0.0, 1.0, 2)
        with pytest.raises(DomainError):
            axis("x", -1.0, 1.0, 5, log=True)
        with pytest.raises(DomainError):
            GridSpec(axes=())
        with pytest.raises(DomainError):
            GridSpec(axes=(axis("x", 0.0, 1.0, 5),), shrink=1.0)


def current_status_data(seed, n, schedule, lam=4.0, gamma=1.5):
    """Mass-1 zero/one counts: did the lead time arrive before t."""
    rng = np.random.default_rng(seed)
    cols = [[] for _ in schedule]
    for i in range(n):
        u = lam * (-math.log1p(-rng.random())) ** (1.0 / gamma)
        j = i % len(schedule)
        cols[j].append(1 if u < schedule[j] else 0)
    return CountDataset(schedule=schedule, counts=tuple(map(tuple, cols)),
                        mass=1)


class TestCurrentStatus:
    def test_matches_inline_closed_form(self):
        data = current_status_data(7, 60, (1.0, 2.0, 4.0, 8.0, 16.0))
        lams = np.linspace(1.0, 12.0, 25)
        gammas = np.linspace(0.3, 4.0, 21)
        got = current_status_loglik(data, lams, gammas)
        assert got.shape == (25, 21)

        want = np.zeros_like(got)
        for t, ks, mult in data.grouped():
            nz = float(mult[np.asarray(ks) == 0].sum())
            np_ = float(mult[np.asarray(ks) > 0].sum())
            for i, lam in enumerate(lams):
                for j, g in enumerate(gammas):
                    q = (t / lam) ** g
                    want[i, j] += -nz * q + np_ * math.log(-math.expm1(-q))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_median_matching_with_pinned_shape(self):
        # equal zero/positive split at one time puts the exponential
        # median there: lambda = t / ln 2
        data = CountDataset(schedule=(4.0,), counts=((0,) * 10 + (1,) * 10,),
                            mass=1)
        spec = GridSpec(axes=(axis("lambda", 1.0, 20.0, 41, log=True),
                              axis("gamma", 1.0, 1.0, 1)),
                        refine_levels=4, shrink=0.2)
        res = grid_refine_max(
            lambda l, g: current_status_loglik(data, l, g), spec)
        assert res.point[0] == pytest.approx(4.0 / math.log(2.0), abs=1e-2)

    def test_initial_estimate_recovers_simulated_lead_time(self):
        data = current_status_data(21, 400, tuple(float(t) for t in
                                                  range(1, 11)))
        lam, gamma = initial_weibull_estimate(data)
        assert 3.0 < lam < 5.5
        assert 1.0 < gamma < 2.2

    def test_degenerate_patterns_rejected(self):
        all_zero = CountDataset(schedule=(2.0, 4.0), counts=((0, 0), (0, 0)),
                                mass=1)
        with pytest.raises(NoFiniteMle):
            initial_weibull_estimate(all_zero)
        all_pos = CountDataset(schedule=(2.0, 4.0), counts=((1, 1), (1, 1)),
                               mass=1)
        with pytest.raises(NoFiniteMle):
            initial_weibull_estimate(all_pos)
        one_time = CountDataset(schedule=(4.0,), counts=((0, 1, 0, 1),),
                                mass=1)
        with pytest.raises(InsufficientTimes):
            initial_weibull_estimate(one_time)


class TestGridSearchLogistic:
    def test_rejects_logistic_families(self, sim_dataset):
        for m in (ModelKind.LRM, ModelKind.LRM_PLUS, ModelKind.LRM_RE):
            with pytest.raises(DomainError):
                grid_search_logistic(sim_dataset, 4.0, 1.5, m)

    def test_recovery_at_true_lead_time(self, sim_dataset, theta0):
        res = grid_search_logistic(sim_dataset, theta0.lam, theta0.gamma,
                                   ModelKind.SSB)
        assert res.point[0] == pytest.approx(theta0.alpha, abs=0.2)
        assert res.point[1] == pytest.approx(theta0.beta, abs=0.02)

    def test_incumbent_survives(self, sim_dataset):
        inc = ((-3.3, 0.3), 1e9)
        res = grid_search_logistic(sim_dataset, 4.0, 1.5, ModelKind.SSB,
                                   incumbent=inc)
        assert res.point == (-3.3, 0.3) and res.value == 1e9


# Loop reference for the fixed-mesh kernel: one array pass per count,
# with the likelihood module's scipy log_expit helpers and an unclamped
# exp.


def _ref_lse_last(x):
    m = np.max(x, axis=-1)
    safe = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(x - safe[..., None]), axis=-1))
    return np.where(np.isfinite(m), out + safe, m)


def ref_logistic_sweep(tables, lam, gamma, alphas, betas, etas):
    """Dataset log-likelihood on the (alpha, beta, eta) grid at fixed
    lead-time parameters; shape (A, B, E)."""
    A, B, E = len(alphas), len(betas), len(etas)
    out = np.zeros((A, B, E))
    mass = tables.mass
    al = np.asarray(alphas, dtype=float)[:, None, None]
    be = np.asarray(betas, dtype=float)[None, :, None]
    for e in tables.entries:
        t, u = e["t"], e["u"]
        logfu = weibull_logpdf(u, lam, gamma) + e["logw"]
        log_sf = -(t / lam) ** gamma
        z = al + be * (t - u)[None, None, :]
        for ei in range(E):
            eta = float(etas[ei])
            if eta == 0.0:
                if any(k > 0 for k in e["ks"]):
                    out[:, :, ei] = -np.inf
                continue
            ls = _log_success(z, eta)
            lf = _log_failure(z, eta)
            acc = np.zeros((A, B))
            for k, m, lc in zip(e["ks"], e["mult"], e["logc"]):
                lg = logfu[None, None, :] + (mass - k) * lf
                if k > 0:
                    lg = lg + k * ls
                li = _ref_lse_last(lg)
                ll = np.logaddexp(log_sf, li) if k == 0 else lc + li
                acc += m * ll
            out[:, :, ei] += acc
    return out


def ref_weibull_sweep(tables, alpha, beta, eta, lams, gammas):
    """Dataset log-likelihood on the (lambda, gamma) grid at fixed
    logistic parameters; shape (L, G)."""
    lams = np.asarray(lams, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    out = np.zeros((len(lams), len(gammas)))
    mass = tables.mass
    la = lams[:, None, None]
    ga = gammas[None, :, None]
    for e in tables.entries:
        t, u = e["t"], e["u"]
        z = alpha + beta * (t - u)
        lf = _log_failure(z, eta)
        ls = _log_success(z, eta)
        r = u[None, None, :] / la
        logfu = (np.log(ga) - np.log(la) + (ga - 1.0) * np.log(r) - r ** ga
                 + e["logw"][None, None, :])
        log_sf = -(t / lams[:, None]) ** gammas[None, :]
        for k, m, lc in zip(e["ks"], e["mult"], e["logc"]):
            base = (mass - k) * lf
            if k > 0:
                base = base + k * ls
            li = _ref_lse_last(logfu + base[None, None, :])
            ll = np.logaddexp(log_sf, li) if k == 0 else lc + li
            out += m * ll
    return out


def assert_matches_reference(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(np.isposinf(got), np.isposinf(ref))
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    fin = np.isfinite(ref)
    assert np.all(np.isfinite(got[fin]))
    err = np.abs(got[fin] - ref[fin])
    assert np.all(err <= 1e-9 * (1.0 + np.abs(ref[fin]))), err.max()
    assert np.argmax(got) == np.argmax(ref)


class TestMeshKernel:
    @pytest.fixture(scope="class")
    def tables(self, sim_dataset):
        return _DatasetTables(sim_dataset, FitConfig().engine_spacing)

    @pytest.fixture(scope="class")
    def logistic_axes(self):
        alpha_ax, beta_ax, eta_ax = default_logistic_grid(
            ModelKind.SSB_PLUS).axes
        return alpha_ax.values(), beta_ax.values(), eta_ax.values()

    def test_ssb_grid(self, tables, logistic_axes):
        alphas, betas, _ = logistic_axes
        got = _mesh_loglik(tables, alphas[:, None], betas[None, :], 4.0, 1.5,
                           (1.0,))
        ref = ref_logistic_sweep(tables, 4.0, 1.5, alphas, betas, [1.0])
        assert_matches_reference(got, ref)

    def test_ssb_plus_eta_axis_and_eta_zero(self, tables, logistic_axes):
        alphas, betas, etas = logistic_axes
        etas = np.append(etas, 0.0)
        got = _mesh_loglik(tables, alphas[:, None], betas[None, :], 4.0, 1.5,
                           etas)
        ref = ref_logistic_sweep(tables, 4.0, 1.5, alphas, betas, etas)
        assert np.all(np.isneginf(got[:, :, -1]))
        assert_matches_reference(got, ref)

    @pytest.mark.parametrize("gamma", [0.75, 1.5])
    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_lead_time_grid(self, tables, gamma, eta):
        t_obs = [e["t"] for e in tables.entries]
        lam_ax, gamma_ax = _lead_time_box(4.0, gamma, min(t_obs),
                                          max(t_obs)).axes
        lams, gammas = lam_ax.values(), gamma_ax.values()
        got = _mesh_loglik(tables, -3.0, 0.15, lams[:, None],
                           gammas[None, :], (eta,))[:, :, 0]
        ref = ref_weibull_sweep(tables, -3.0, 0.15, eta, lams, gammas)
        assert_matches_reference(got, ref)

    @pytest.mark.parametrize("point", [(-3.0, 0.15, 4.0, 1.5, 1.0),
                                       (-3.7, 0.5, 7.8, 0.75, 1.0),
                                       (-3.8, 0.54, 4.8, 0.88, 0.905)])
    def test_single_point(self, tables, point):
        a, b, lam, gamma, eta = point
        got = _mesh_loglik(tables, a, b, lam, gamma, (eta,))
        assert got.shape == (1,)
        ref = ref_logistic_sweep(tables, lam, gamma, [a], [b], [eta])
        assert_matches_reference(got, ref.reshape(1))

    def test_counts_at_zero_and_mass(self):
        data = CountDataset(schedule=(1.0, 3.0, 6.0, 12.0),
                            counts=((0, 0, 1, 20), (0, 4, 20, 20),
                                    (0, 9, 13, 20), (20, 20, 20, 17)),
                            mass=20)
        tables = _DatasetTables(data, 1.0)
        alphas = np.linspace(-6.0, 2.0, 9)
        betas = np.linspace(0.05, 1.5, 7)
        etas = np.array([0.6, 0.9, 1.0])
        got = _mesh_loglik(tables, alphas[:, None], betas[None, :], 3.0, 1.2,
                           etas)
        ref = ref_logistic_sweep(tables, 3.0, 1.2, alphas, betas, etas)
        assert_matches_reference(got, ref)
        lams = np.geomspace(1.0, 9.0, 7)
        gammas = np.geomspace(0.5, 3.0, 6)
        for eta in (0.9, 1.0):
            got = _mesh_loglik(tables, -1.0, 0.4, lams[:, None],
                               gammas[None, :], (eta,))[:, :, 0]
            assert_matches_reference(
                got, ref_weibull_sweep(tables, -1.0, 0.4, eta, lams, gammas))

    def test_all_zero_counts_at_eta_zero(self):
        data = CountDataset(schedule=(2.0, 5.0), counts=((0, 0), (0,)),
                            mass=10)
        got = _mesh_loglik(_DatasetTables(data, 1.0), -2.0, 0.3, 4.0, 1.5,
                           (0.0, 1.0))
        assert got[0] == 0.0 and got[1] < 0.0


def lse_tolerance(ref):
    """1e-15 relative, measured against max(|ref|, 1): the kernel forms
    log(sum) + max, so a result near 0 keeps about 1e-16 absolute
    accuracy rather than relative (scipy's log1p form keeps both)."""
    return 1e-15 * np.maximum(np.abs(ref), 1.0)


class TestKernelPrimitives:
    def test_logsumexp_rows_spanning_many_nats(self):
        rng = np.random.default_rng(3)
        x = (rng.uniform(-2e4, 0.0, (500, 64))
             + rng.uniform(-50.0, 50.0, (500, 1)))
        x[::7, ::3] = -np.inf
        finite = np.where(np.isfinite(x), x, np.nan)
        assert np.all(np.nanmax(finite, axis=1) - np.nanmin(finite, axis=1)
                      > 1e4)
        ref = logsumexp(x, axis=-1)
        got = _logsumexp_last(x.copy())
        assert np.all(np.abs(got - ref) <= lse_tolerance(ref))

    def test_logsumexp_all_neg_inf_rows(self):
        x = np.array([[-np.inf] * 5, [0.0, -np.inf, -3.0, -np.inf, -1e5],
                      [-np.inf] * 5])
        ref = logsumexp(x, axis=-1)
        got = _logsumexp_last(x.copy())
        assert np.isneginf(got[0]) and np.isneginf(got[2])
        assert abs(got[1] - ref[1]) <= lse_tolerance(ref[1])

    def test_log_sigmoid_matches_scipy(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 160001),
                            [0.0, -0.0, 5e-324, -5e-324]])
        ref = log_expit(z)
        got = _log_sigmoid(z)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        assert got[-4] == got[-3] == -math.log(2.0)


class TestProfileIterate:
    def test_zero_outer_rounds_keep_stage_two_point(self, sim_dataset):
        cfg = FitConfig(compute_se=False, polish=False)
        fit = profile_iterate(sim_dataset, 4.0, 1.5, ModelKind.SSB,
                              n_outer=0, config=cfg)
        direct = grid_search_logistic(sim_dataset, 4.0, 1.5, ModelKind.SSB,
                                      tables=None)
        assert fit.estimates["alpha"] == pytest.approx(direct.point[0],
                                                       rel=1e-12)
        assert fit.estimates["beta"] == pytest.approx(direct.point[1],
                                                      rel=1e-12)
        assert fit.estimates["lambda"] == 4.0
        assert fit.estimates["gamma"] == 1.5

    def test_trace_is_monotone_through_search_stages(self, sim_fits):
        fit = sim_fits["ssb"]
        values = [e["value"] for e in fit.trace
                  if e["stage"] in ("logistic", "lead_time", "polish")]
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))

    def test_estimate_beats_truth_on_its_own_data(self, sim_fits,
                                                  sim_dataset, theta0):
        fit = sim_fits["ssb"]
        hat = SsbParams(alpha=fit.estimates["alpha"],
                        beta=fit.estimates["beta"],
                        lam=fit.estimates["lambda"],
                        gamma=fit.estimates["gamma"])
        assert (ssb_dataset_loglik(hat, sim_dataset)
                >= ssb_dataset_loglik(theta0, sim_dataset) - 1e-6)


def binomial_logistic_data(seed, alpha, beta, mass=300, reps=10):
    rng = np.random.default_rng(seed)
    schedule = (2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0)
    counts = []
    for t in schedule:
        p = expit(alpha + beta * t)
        counts.append(tuple(int(c) for c in rng.binomial(mass, p, size=reps)))
    return CountDataset(schedule=schedule, counts=tuple(counts), mass=mass)


class TestFitModel:
    def test_lrm_self_recovery(self):
        from masshist.likelihood import lrm_loglik

        data = binomial_logistic_data(17, alpha=-2.0, beta=0.1)
        fit = fit_model(data, ModelKind.LRM, FitConfig(compute_se=False))
        assert fit.estimates["alpha"] == pytest.approx(-2.0, abs=0.1)
        assert fit.estimates["beta"] == pytest.approx(0.1, abs=0.01)
        # the fit must dominate the generating values on its own data
        assert (lrm_loglik(fit.estimates["alpha"], fit.estimates["beta"],
                           data)
                >= lrm_loglik(-2.0, 0.1, data) - 1e-6)

    def test_single_time_rejected_for_lead_time_models(self):
        data = CountDataset(schedule=(6.0,), counts=((0, 3, 5),), mass=10)
        with pytest.raises(InsufficientTimes):
            fit_model(data, ModelKind.SSB, FitConfig(compute_se=False))

    def test_nested_models_close_the_gap(self, sim_fits):
        assert (sim_fits["lrm_plus"].loglik
                >= sim_fits["lrm"].loglik - 1e-6)
        assert (sim_fits["ssb_plus"].loglik
                >= sim_fits["ssb"].loglik - 1e-6)

    def test_extended_model_reports_eta(self, sim_fits):
        fit = sim_fits["ssb_plus"]
        assert fit.n_params == 5
        assert "eta" in fit.estimates
        assert 0.0 <= fit.estimates["eta"] <= 1.0

    def test_ssb_recovery_is_in_the_right_region(self, sim_fits, theta0):
        est = sim_fits["ssb"].estimates
        assert est["alpha"] == pytest.approx(theta0.alpha, abs=0.5)
        assert est["beta"] == pytest.approx(theta0.beta, abs=0.02)
        assert 2.5 < est["lambda"] < 6.0
        assert 0.9 < est["gamma"] < 2.3


class TestObservedInformation:
    def test_exact_on_quadratic(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])

        def loglik(theta):
            return -0.5 * float(theta @ a @ theta)

        info = observed_information(loglik, np.array([0.3, -0.2, 1.1]))
        assert np.allclose(info, a, atol=1e-6)

    def test_bernoulli_information(self):
        # 30 successes in 100 at the MLE p = 0.3
        def loglik(theta):
            p = float(theta[0])
            return 30.0 * math.log(p) + 70.0 * math.log1p(-p)

        info = observed_information(loglik, np.array([0.3]))
        expected = 30.0 / 0.09 + 70.0 / 0.49
        assert info[0, 0] == pytest.approx(expected, rel=1e-2)

    def test_positive_definite_at_interior_optimum(self, sim_dataset,
                                                   sim_fits):
        fit = sim_fits["ssb"]
        hat = SsbParams(alpha=fit.estimates["alpha"],
                        beta=fit.estimates["beta"],
                        lam=fit.estimates["lambda"],
                        gamma=fit.estimates["gamma"])
        ll = frozen_dataset_loglik(hat, sim_dataset)
        theta = np.array([hat.alpha, hat.beta, hat.lam, hat.gamma])
        info = observed_information(ll, theta)
        assert np.allclose(info, info.T)
        eig = jacobi_eigenvalues(info)
        assert np.all(eig > 0.0)

    def test_std_errors_paths(self):
        se = std_errors_from_information(np.diag([4.0, 25.0]))
        assert np.allclose(se, [0.5, 0.2], rtol=1e-12)
        with pytest.raises(SingularInformation):
            std_errors_from_information(np.zeros((2, 2)))
        with pytest.raises(SingularInformation):
            std_errors_from_information(np.array([[-1.0]]))
        with pytest.raises(SingularInformation):
            std_errors_from_information(np.array([[np.nan]]))


def fake_fit(model, loglik):
    m = ModelKind(model)
    return FitResult(model=m, estimates={}, loglik=loglik,
                     n_params=m.n_params, converged=True)


class TestBicDelta:
    def test_reference_arithmetic(self):
        rows = bic_delta([fake_fit("lrm", -100.0), fake_fit("ssb", -90.0)],
                         n_obs=100)
        by = {r["model"]: r for r in rows}
        assert by["lrm"]["delta_bic"] == 0.0
        expected = -20.0 + 2.0 * math.log(100.0)
        assert by["ssb"]["delta_bic"] == pytest.approx(expected, abs=1e-4)

    def test_rows_follow_canonical_order(self):
        rows = bic_delta([fake_fit("ssb_plus", -80.0),
                          fake_fit("lrm", -100.0),
                          fake_fit("lrm_re", -85.0)], n_obs=50)
        assert [r["model"] for r in rows] == ["lrm", "lrm_re", "ssb_plus"]

    def test_shift_invariance(self):
        fits = [fake_fit("lrm", -100.0), fake_fit("ssb", -90.0),
                fake_fit("ssb_plus", -88.0)]
        shifted = [fake_fit(f.model, f.loglik + 123.4) for f in fits]
        a = [r["delta_bic"] for r in bic_delta(fits, 89)]
        b = [r["delta_bic"] for r in bic_delta(shifted, 89)]
        assert np.allclose(a, b, atol=1e-9)

    def test_error_paths(self):
        with pytest.raises(MissingBaseline):
            bic_delta([fake_fit("ssb", -90.0)], n_obs=10)
        with pytest.raises(DomainError):
            bic_delta([fake_fit("lrm", -100.0), fake_fit("lrm", -99.0)],
                      n_obs=10)
        with pytest.raises(DomainError):
            bic_delta([fake_fit("lrm", -100.0)], n_obs=0)
