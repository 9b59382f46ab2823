"""Fitting machinery: grid search, profiling, information, BIC.

Oracles: inline brute-force scans of closed-form likelihoods,
quadratics whose Hessians are known exactly, self-recovery on data
simulated from known parameters, and per-count loop versions of the
fixed-mesh sweeps that the batched kernel replaced.
"""

import dataclasses
import json
import logging
import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import OptimizeResult
from scipy.special import expit, gammaln, log_expit, logsumexp

from conftest import make_protocol_dataset
from masshist import core, estimation
from masshist.core import CountDataset, FitResult, ModelKind, SsbParams
from masshist.errors import (DomainError, InsufficientTimes, MissingBaseline,
                             NoFiniteMle, SingularInformation)
from masshist.estimation import (MODEL_ORDER, FitConfig, GridAxis, GridSpec,
                                 _DatasetTables, _log_sigmoid,
                                 _mesh_loglik, _segment_logsumexp,
                                 bic_delta, current_status_loglik,
                                 default_logistic_grid,
                                 fit_model, fit_models, grid_refine_max,
                                 grid_search_logistic,
                                 initial_weibull_estimate,
                                 observed_information, profile_iterate,
                                 std_errors_from_information)
from masshist.likelihood import (_log_failure, _log_success,
                                 frozen_dataset_loglik, ssb_dataset_loglik)
from masshist.quadrature import QuadConfig, fixed_u_panels, weibull_logpdf
from masshist.simulation import (SCHEDULE_PRESETS, sacrifice_sample,
                                 simulate_trajectory, substream)


def axis(name, lo, hi, n, log=False):
    return GridAxis(name, lo, hi, n, log=log)


class TestGridRefineMax:
    def test_recovers_quadratic_maximum(self):
        spec = GridSpec(axes=(axis("x", 0.0, 2.0, 21),
                              axis("y", 0.0, 3.0, 21)),
                        refine_levels=3)

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

    def test_boundary_flag(self):
        spec = GridSpec(axes=(axis("x", 0.0, 1.0, 11),), refine_levels=0)
        res = grid_refine_max(lambda x: x.copy(), spec)
        assert res.point == (1.0,) and res.on_boundary

    def test_no_finite_first_scan_raises(self):
        spec = GridSpec(axes=(axis("x", 0.0, 1.0, 5),), refine_levels=0)
        with pytest.raises(NoFiniteMle):
            grid_refine_max(lambda x: np.full(x.size, -np.inf), spec)
        with pytest.raises(NoFiniteMle):
            grid_refine_max(lambda x: np.full(x.size, np.nan), spec)

    def test_nan_counts_as_minus_infinity(self):
        spec = GridSpec(axes=(axis("x", 0.0, 1.0, 11),), refine_levels=2)

        def f(x):
            return np.where(x < 0.15, np.nan, -(x - 0.37) ** 2)

        res = grid_refine_max(f, spec)
        assert res.point[0] == pytest.approx(0.37, abs=4e-3)
        assert all(math.isfinite(lv["scan_max"]) for lv in res.levels)

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(axes=(axis("x", 0.0, 1.0, 5),), refine_levels=0)
        with pytest.raises(DomainError):
            grid_refine_max(lambda x: np.zeros(3), spec)

    def test_axis_and_spec_validation(self):
        with pytest.raises(DomainError):
            axis("x", 0.0, 1.0, 2)
        with pytest.raises(DomainError):
            axis("x", 1.0, 1.0, 1)
        with pytest.raises(DomainError):
            axis("x", -1.0, 1.0, 5, log=True)
        with pytest.raises(DomainError):
            GridSpec(axes=())
        with pytest.raises(DomainError):
            GridSpec(axes=(axis("x", 0.0, 1.0, 5),), refine_levels=-1)


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
        spec = GridSpec(axes=(axis("lambda", 1.0, 20.0, 41, log=True),),
                        refine_levels=4)
        res = grid_refine_max(
            lambda l: current_status_loglik(data, l, 1.0)[:, 0], spec)
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


# Loop reference for the fixed-mesh kernel: one array pass per count,
# with the likelihood module's scipy log_expit helpers and an unclamped
# exp, on per-time meshes and counts collapsed here rather than read
# from the kernel's tables.


def per_time_entries(data):
    """Per observation time with counts: its fixed mesh and its distinct
    counts with their multiplicities and log binomial coefficients."""
    mass = data.mass
    entries = []
    for t, col in zip(data.schedule, data.counts):
        if not col:
            continue
        ks, mult = np.unique(np.asarray(col), return_counts=True)
        u, w = fixed_u_panels(t, estimation._ENGINE_SPACING)
        logc = gammaln(mass + 1) - gammaln(ks + 1) - gammaln(mass - ks + 1)
        entries.append({"t": t, "u": u, "logw": np.log(w),
                        "ks": ks.tolist(), "mult": mult.tolist(),
                        "logc": logc.tolist()})
    return entries


def _ref_lse_last(x):
    m = np.max(x, axis=-1)
    safe = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(x - safe[..., None]), axis=-1))
    return np.where(np.isfinite(m), out + safe, m)


def ref_logistic_sweep(data, lam, gamma, alphas, betas, etas):
    """Dataset log-likelihood on the (alpha, beta, eta) grid at fixed
    lead-time parameters; shape (A, B, E)."""
    A, B, E = len(alphas), len(betas), len(etas)
    out = np.zeros((A, B, E))
    mass = data.mass
    al = np.asarray(alphas, dtype=float)[:, None, None]
    be = np.asarray(betas, dtype=float)[None, :, None]
    for e in per_time_entries(data):
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


def ref_weibull_sweep(data, alpha, beta, eta, lams, gammas):
    """Dataset log-likelihood on the (lambda, gamma) grid at fixed
    logistic parameters; shape (L, G)."""
    lams = np.asarray(lams, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    out = np.zeros((len(lams), len(gammas)))
    mass = data.mass
    la = lams[:, None, None]
    ga = gammas[None, :, None]
    for e in per_time_entries(data):
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


def mesh_over_etas(tables, alpha, beta, lam, gamma, etas):
    """_mesh_loglik at each of etas, one scalar eta per call, stacked on
    a last axis as ref_logistic_sweep lays them out."""
    return np.stack([_mesh_loglik(tables, alpha, beta, lam, gamma, eta)
                     for eta in etas], axis=-1)


def assert_matches_reference(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(np.isposinf(got), np.isposinf(ref))
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    fin = np.isfinite(ref)
    assert np.all(np.isfinite(got[fin]))
    err = np.abs(got[fin] - ref[fin])
    assert np.all(err <= 1e-12 * (1.0 + np.abs(ref[fin]))), err.max()
    assert np.argmax(got) == np.argmax(ref)


# single parameter points (alpha, beta, lambda, gamma, eta); the last one
# lets nothing succeed
SINGLE_POINTS = [(-3.0, 0.15, 4.0, 1.5, 1.0), (-3.7, 0.5, 7.8, 0.75, 1.0),
                 (-3.8, 0.54, 4.8, 0.88, 0.905), (-3.0, 0.15, 4.0, 1.5, 0.0)]

ZERO_MASS_DATA = CountDataset(schedule=(1.0, 3.0, 6.0, 12.0),
                              counts=((0, 0, 1, 20), (0, 4, 20, 20),
                                      (0, 9, 13, 20), (20, 20, 20, 17)),
                              mass=20)


# datasets and (alpha, beta, lambda, gamma) points for the score checks:
# the shipped counts, the theta0 design and a gamma = 0.75 design
SCORE_CASES = {"real": (-3.8, 0.54, 4.8, 0.88),
               "theta0": (-3.2, 0.16, 4.3, 1.4),
               "gamma075": (-2.8, 0.13, 3.6, 0.8)}


@pytest.fixture(scope="module")
def score_datasets(real_dataset, sim_dataset):
    g075 = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=0.75)
    return {"real": real_dataset, "theta0": sim_dataset,
            "gamma075": make_protocol_dataset(seed=4, params=g075)[1]}


class TestMeshKernel:
    @pytest.fixture(scope="class")
    def tables(self, sim_dataset):
        return _DatasetTables(sim_dataset)

    @pytest.fixture(scope="class")
    def logistic_axes(self):
        alpha_ax, beta_ax = default_logistic_grid().axes
        return alpha_ax.values(), beta_ax.values(), np.linspace(0.5, 1.0, 11)

    def test_ssb_grid(self, tables, sim_dataset, logistic_axes):
        alphas, betas, _ = logistic_axes
        got = _mesh_loglik(tables, alphas[:, None], betas[None, :], 4.0, 1.5,
                           1.0)
        ref = ref_logistic_sweep(sim_dataset, 4.0, 1.5, alphas, betas, [1.0])
        assert_matches_reference(got, ref[:, :, 0])

    def test_ssb_plus_eta_axis_and_eta_zero(self, tables, sim_dataset,
                                            logistic_axes):
        alphas, betas, etas = logistic_axes
        etas = np.append(etas, 0.0)
        got = mesh_over_etas(tables, alphas[:, None], betas[None, :], 4.0,
                             1.5, etas)
        ref = ref_logistic_sweep(sim_dataset, 4.0, 1.5, alphas, betas, etas)
        assert np.all(np.isneginf(got[:, :, -1]))
        assert_matches_reference(got, ref)

    @pytest.mark.parametrize("gamma", [0.75, 1.5])
    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_lead_time_grid(self, tables, sim_dataset, gamma, eta):
        lams = np.geomspace(4.0 / 3.0, 12.0, 15)
        gammas = np.geomspace(gamma / 3.0, 3.0 * gamma, 15)
        got = _mesh_loglik(tables, -3.0, 0.15, lams[:, None],
                           gammas[None, :], eta)
        ref = ref_weibull_sweep(sim_dataset, -3.0, 0.15, eta, lams, gammas)
        assert_matches_reference(got, ref)

    @pytest.mark.parametrize("point", SINGLE_POINTS)
    def test_single_point(self, tables, sim_dataset, point):
        a, b, lam, gamma, eta = point
        got = _mesh_loglik(tables, a, b, lam, gamma, eta)
        assert got.shape == ()
        ref = ref_logistic_sweep(sim_dataset, lam, gamma, [a], [b], [eta])
        assert_matches_reference(got.reshape(1), ref.reshape(1))

    @pytest.mark.parametrize("point", SINGLE_POINTS)
    def test_single_point_on_zero_and_mass_counts(self, point):
        a, b, lam, gamma, eta = point
        got = _mesh_loglik(_DatasetTables(ZERO_MASS_DATA), a, b, lam, gamma,
                           eta)
        ref = ref_logistic_sweep(ZERO_MASS_DATA, lam, gamma, [a], [b], [eta])
        assert_matches_reference(got.reshape(1), ref.reshape(1))

    def test_single_point_matches_the_sweep(self, tables, logistic_axes):
        alphas, betas, etas = logistic_axes
        for i, j, e in ((0, 0, 0), (7, 3, 10), (20, 20, 5), (12, 2, 10)):
            sweep = _mesh_loglik(tables, alphas[:, None], betas[None, :], 4.0,
                                 1.5, etas[e])
            one = _mesh_loglik(tables, alphas[i], betas[j], 4.0, 1.5, etas[e])
            assert abs(one - sweep[i, j]) <= 1e-12 * abs(sweep[i, j])

    def test_counts_at_zero_and_mass(self):
        data = ZERO_MASS_DATA
        tables = _DatasetTables(data)
        alphas = np.linspace(-6.0, 2.0, 9)
        betas = np.linspace(0.05, 1.5, 7)
        etas = np.array([0.6, 0.9, 1.0])
        got = mesh_over_etas(tables, alphas[:, None], betas[None, :], 3.0,
                             1.2, etas)
        ref = ref_logistic_sweep(data, 3.0, 1.2, alphas, betas, etas)
        assert_matches_reference(got, ref)
        lams = np.geomspace(1.0, 9.0, 7)
        gammas = np.geomspace(0.5, 3.0, 6)
        for eta in (0.9, 1.0):
            got = _mesh_loglik(tables, -1.0, 0.4, lams[:, None],
                               gammas[None, :], eta)
            assert_matches_reference(
                got, ref_weibull_sweep(data, -1.0, 0.4, eta, lams, gammas))

    def test_all_zero_counts_at_eta_zero(self):
        data = CountDataset(schedule=(2.0, 5.0), counts=((0, 0), (0,)),
                            mass=10)
        got = mesh_over_etas(_DatasetTables(data), -2.0, 0.3, 4.0, 1.5,
                             (0.0, 1.0))
        assert got[0] == 0.0 and got[1] < 0.0

    @pytest.mark.parametrize("case", sorted(SCORE_CASES))
    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_score_matches_central_differences(self, score_datasets, case,
                                               eta):
        # the score is the gradient in the polish coordinates (alpha,
        # log beta, log lambda, log gamma, logit eta); at eta = 1 its
        # logit eta entry is 0 and the differences leave eta at 1
        tables = _DatasetTables(score_datasets[case])
        a, b, lam, gamma = SCORE_CASES[case]
        y = np.array([a, math.log(b), math.log(lam), math.log(gamma),
                      math.log(eta / (1.0 - eta)) if eta < 1.0 else 0.0])
        d = 5 if eta < 1.0 else 4

        def loglik(y):
            e = float(expit(y[4])) if d == 5 else 1.0
            return float(_mesh_loglik(tables, y[0], math.exp(y[1]),
                                      math.exp(y[2]), math.exp(y[3]), e))

        value, score = _mesh_loglik(tables, a, b, lam, gamma, eta,
                                    score=True)
        assert abs(value - float(_mesh_loglik(tables, a, b, lam, gamma,
                                              eta))) <= 1e-12
        assert score.shape == (5,)
        if d == 4:
            assert score[4] == 0.0
        for i in range(d):
            h = 1e-5 * (1.0 + abs(y[i]))
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            fd = (loglik(yp) - loglik(ym)) / (2.0 * h)
            assert abs(score[i] - fd) <= 1e-6 * abs(fd), (i, score[i], fd)

    def test_score_needs_one_point(self, tables):
        with pytest.raises(DomainError):
            _mesh_loglik(tables, np.array([-3.0, -2.0]), 0.15, 4.0, 1.5,
                         1.0, score=True)

    def test_times_without_counts_are_skipped(self):
        # the empty middle column contributes no nodes and no cells
        gap = CountDataset(schedule=(2.0, 5.0, 9.0),
                           counts=((0, 3, 3), (), (7, 0)), mass=10)
        got = mesh_over_etas(_DatasetTables(gap), -2.0, 0.3, 4.0, 1.5,
                             (0.8, 1.0))
        ref = ref_logistic_sweep(gap, 4.0, 1.5, [-2.0], [0.3], [0.8, 1.0])
        assert_matches_reference(got, ref.reshape(2))


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
        # one run per row, then runs of uneven length along each row
        ref = logsumexp(x, axis=-1)
        got = _segment_logsumexp(x.copy(), np.array([0]), np.array([64]))
        assert np.all(np.abs(got[:, 0] - ref) <= lse_tolerance(ref))
        bounds = [0, 1, 9, 40, 64]
        got = _segment_logsumexp(x.copy(), np.array(bounds[:-1]),
                                 np.diff(bounds))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            ref = logsumexp(x[:, lo:hi], axis=-1)
            assert np.array_equal(np.isneginf(got[:, j]), np.isneginf(ref))
            fin = np.isfinite(ref)
            assert np.all(np.abs(got[fin, j] - ref[fin])
                          <= lse_tolerance(ref[fin]))

    def test_logsumexp_all_neg_inf_rows(self):
        x = np.array([[-np.inf] * 5, [0.0, -np.inf, -3.0, -np.inf, -1e5],
                      [-np.inf] * 5])
        ref = logsumexp(x, axis=-1)
        got = _segment_logsumexp(x.copy(), np.array([0]),
                                 np.array([5]))[:, 0]
        assert np.isneginf(got[0]) and np.isneginf(got[2])
        assert abs(got[1] - ref[1]) <= lse_tolerance(ref[1])
        # a run of -inf beside a finite run in the same row
        got = _segment_logsumexp(x[1].copy(), np.array([0, 1, 2]),
                                 np.array([1, 1, 3]))
        assert got[0] == 0.0 and np.isneginf(got[1])
        assert abs(got[2] - logsumexp([-3.0, -1e5])) <= 1e-15 * 3.0

    def test_log_sigmoid_matches_scipy(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 160001),
                            [0.0, -0.0, 5e-324, -5e-324]])
        ref = log_expit(z)
        got = _log_sigmoid(z)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        assert got[-4] == got[-3] == -math.log(2.0)


class TestProfileIterate:
    @pytest.mark.parametrize("model", [ModelKind.SSB, ModelKind.SSB_PLUS])
    def test_trace_starts_at_the_logistic_grid_point(self, sim_dataset,
                                                      model):
        cfg = FitConfig(compute_se=False)
        fit = profile_iterate(sim_dataset, 4.0, 1.5, model, config=cfg)
        direct = grid_search_logistic(sim_dataset, 4.0, 1.5)
        first = fit.trace[0]
        assert first["stage"] == "logistic"
        assert first["value"] == direct.value
        assert (first["alpha"], first["beta"]) == direct.point
        assert first["eta"] == 1.0
        # SSB+ runs the SSB search, then its own polish from that point
        eta_stage = ["eta"] if model is ModelKind.SSB_PLUS else []
        assert ([e["stage"] for e in fit.trace]
                == ["logistic", "polish"] + eta_stage + ["final"])
        if model is ModelKind.SSB_PLUS:
            ssb = profile_iterate(sim_dataset, 4.0, 1.5, ModelKind.SSB,
                                  config=cfg)
            assert fit.trace[:2] == ssb.trace[:2]
        # the grid points evaluated, and the simplexes' objective calls
        assert first["points"] == 441
        assert all(e["evals"] > 0 for e in fit.trace[1:-1])

    def test_recovery_at_true_lead_time(self, sim_dataset, theta0):
        # the SSB search from the true lead time (alpha -3.0183,
        # beta 0.14743), with the bounds the refined grid once met alone
        fit = profile_iterate(sim_dataset, theta0.lam, theta0.gamma,
                              ModelKind.SSB,
                              config=FitConfig(compute_se=False))
        assert fit.estimates["alpha"] == pytest.approx(theta0.alpha, abs=0.2)
        assert fit.estimates["beta"] == pytest.approx(theta0.beta, abs=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 2, None],
                             ids=["seed0", "seed1", "seed2", "real"])
    def test_ssb_matches_the_refined_grid_reference(self, seed, real_dataset,
                                                    monkeypatch):
        # the polish fits all parameters together, so refining the SSB
        # scan three times before it changes no fit
        data = (real_dataset if seed is None
                else make_protocol_dataset(seed=seed)[1])
        cfg = FitConfig(compute_se=False)
        fit = fit_model(data, ModelKind.SSB, cfg)
        coarse = default_logistic_grid

        def refined():
            return dataclasses.replace(coarse(), refine_levels=3)

        monkeypatch.setattr(estimation, "default_logistic_grid", refined)
        ref = fit_model(data, ModelKind.SSB, cfg)
        assert ref.trace[0]["points"] == 4 * 441
        assert fit.loglik == pytest.approx(ref.loglik, abs=1e-6)

    def test_trace_is_monotone_through_search_stages(self, sim_fits):
        fit = sim_fits["ssb"]
        values = [e["value"] for e in fit.trace
                  if e["stage"] in ("logistic", "polish")]
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("model", [ModelKind.SSB, ModelKind.SSB_PLUS])
    def test_polish_at_its_start_keeps_the_grid_stage(self, model,
                                                      monkeypatch):
        # a polish that ends where it started has found nothing better,
        # whatever rounding separates its evaluations from the sweep's;
        # on this design the sweep's SSB grid value sits 6.8e-13 nats
        # below the polish's own value at the same point
        def stay(obj, x0, bounds):
            return OptimizeResult(x=np.array(x0), fun=obj(x0)[0],
                                  success=False, nfev=1)

        data = make_protocol_dataset(seed=1)[1]
        monkeypatch.setattr(estimation, "_lbfgs", stay)
        grid = grid_search_logistic(data, 4.0, 1.5)
        fit = profile_iterate(data, 4.0, 1.5, model,
                              config=FitConfig(compute_se=False))
        est = fit.estimates
        assert (est["alpha"], est["beta"]) == grid.point
        assert (est["lambda"], est["gamma"]) == (4.0, 1.5)
        if model is ModelKind.SSB_PLUS:
            # SSB+'s eta starts, each left where it began, all score
            # below the SSB point at eta = 1, so the eta stage keeps it
            assert est["eta"] == 1.0
            assert fit.trace[2]["evals"] == len(estimation._ETA_STARTS)
        assert fit.converged == (not grid.on_boundary)

    @pytest.mark.parametrize("name, value", [("_MAXITER", 2),
                                             ("_SCORE_TOL", 0.0)])
    def test_polish_stopped_short_is_not_converged(self, sim_dataset,
                                                   monkeypatch, name, value):
        # a polish that ends on its iteration cap, or with a projected
        # score above the tolerance, reports converged False
        cfg = FitConfig(compute_se=False)
        assert profile_iterate(sim_dataset, 4.0, 1.5, config=cfg).converged
        monkeypatch.setattr(estimation, name, value)
        fit = profile_iterate(sim_dataset, 4.0, 1.5, config=cfg)
        assert fit.trace[1]["value"] > fit.trace[0]["value"]
        assert not fit.converged

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

    def test_ssb_plus_leaves_a_grid_eta_of_one(self):
        # a recovery replicate at gamma 0.75 whose SSB+ optimum (eta
        # 0.99966) lies only 0.025 nats above the SSB fit (-319.66696)
        seed = int(np.random.SeedSequence((11, 5)).generate_state(
            1, dtype=np.uint64)[0])
        schedule = SCHEDULE_PRESETS["default"]
        truth = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=0.75)
        trajs = [simulate_trajectory(truth, 300, 60, substream(seed, 0, j))
                 for j in range(10 * len(schedule))]
        data = sacrifice_sample(trajs, schedule, 10, substream(seed, 1), 300)
        ssb, plus = fit_models(data, [ModelKind.SSB, ModelKind.SSB_PLUS],
                               FitConfig(compute_se=False))
        assert plus.estimates["eta"] < 1.0
        assert plus.loglik >= -319.64206 - 1e-5
        assert plus.loglik > ssb.loglik + 0.02

    def test_extended_model_reports_eta(self, sim_fits):
        fit = sim_fits["ssb_plus"]
        assert fit.n_params == 5
        assert "eta" in fit.estimates
        assert 0.0 <= fit.estimates["eta"] <= 1.0

    @pytest.mark.parametrize("model, optimum",
                             [(ModelKind.SSB, -512.41375336),
                              (ModelKind.SSB_PLUS, -467.82184818)],
                             ids=["ssb", "ssb_plus"])
    def test_real_data_reaches_known_optimum(self, real_dataset, model,
                                             optimum):
        # the best optima known on the shipped counts: alternating grid
        # sweeps over (lambda, gamma) on top of the polish find no better
        fit = fit_model(real_dataset, model, FitConfig(compute_se=False))
        assert fit.loglik >= optimum - 1e-6

    def test_ssb_recovery_is_in_the_right_region(self, sim_fits, theta0):
        est = sim_fits["ssb"].estimates
        assert est["alpha"] == pytest.approx(theta0.alpha, abs=0.5)
        assert est["beta"] == pytest.approx(theta0.beta, abs=0.02)
        assert 2.5 < est["lambda"] < 6.0
        assert 0.9 < est["gamma"] < 2.3


# an 8-node Gauss-Hermite rule keeps the LRM-RE searches cheap; nesting
# does not depend on the quadrature
COARSE_RE = FitConfig(quad=QuadConfig(gh_nodes=8))


def record_cell_tables(mp):
    """Wrap the cell-table builder; returns the list of datasets it
    builds a table for, in call order."""
    built = []
    build = core._cell_table

    def recording(data):
        built.append(data)
        return build(data)

    mp.setattr(core, "_cell_table", recording)
    return built


@pytest.fixture(scope="module")
def nested_run():
    """fit_models over all five models, with standard errors, on a
    small design where SSB+ falls back to SSB; every family search it
    runs and every cell table it builds are recorded."""
    data = make_protocol_dataset(seed=3, mass=30, horizon=24,
                                 schedule=(2.0, 8.0, 24.0), group_size=3)[1]
    searched = []
    search = estimation._search

    def recording(data, model, cfg, sub):
        searched.append(model)
        return search(data, model, cfg, sub)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_search", recording)
        built = record_cell_tables(mp)
        fits = fit_models(data, list(reversed(MODEL_ORDER)), COARSE_RE)
    return data, fits, searched, built


class TestFitModels:
    def test_each_model_is_searched_once(self, nested_run):
        _, fits, searched, _ = nested_run
        assert [f.model for f in fits] == list(MODEL_ORDER)
        assert Counter(searched) == Counter(MODEL_ORDER)

    def test_ssb_plus_starts_from_the_ssb_fit(self, monkeypatch):
        # the current-status start and the logistic grid run once for
        # SSB and SSB+ together
        calls = Counter()
        for name in ("initial_weibull_estimate", "grid_search_logistic"):
            def counted(*args, _name=name, _fn=getattr(estimation, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(estimation, name, counted)
        data = make_protocol_dataset(seed=3, mass=30, horizon=24,
                                     schedule=(2.0, 8.0, 24.0),
                                     group_size=3)[1]
        fit_models(data, [ModelKind.SSB, ModelKind.SSB_PLUS],
                   FitConfig(compute_se=False))
        assert calls == Counter(initial_weibull_estimate=1,
                                grid_search_logistic=1)

    def test_cell_table_is_built_once(self, nested_run):
        data, _, _, built = nested_run
        assert len(built) == 1 and built[0] is data

    def test_lrm_plus_fit_builds_the_cell_table_once(self, monkeypatch):
        data = binomial_logistic_data(5, alpha=-2.0, beta=0.1)
        built = record_cell_tables(monkeypatch)
        fit = fit_model(data, ModelKind.LRM_PLUS)
        assert fit.std_errors is not None
        assert len(built) == 1 and built[0] is data

    def test_equals_separate_fit_model_calls(self, nested_run):
        data, fits, _, _ = nested_run
        assert fits[-1].trace[-1]["stage"] == "boundary_eta"
        for fit in fits:
            alone = fit_model(data, fit.model, COARSE_RE)
            assert fit.std_errors is not None
            assert alone.estimates == fit.estimates
            assert alone.loglik == fit.loglik
            assert alone.converged == fit.converged
            assert alone.std_errors == fit.std_errors
            assert alone.trace == fit.trace

    def test_submodel_read_back_from_json_gives_the_same_fit(self,
                                                            nested_run):
        # a fit read back from fit.json has its estimates in sorted key
        # order (SSB's "gamma" before "lambda"); the nested fits must
        # read them by name
        data, fits, _, _ = nested_run
        by_model = {f.model: f for f in fits}
        for model in (ModelKind.SSB_PLUS, ModelKind.LRM_PLUS):
            sub = by_model[estimation._SUBMODEL[model]]
            doc = json.dumps(core.fit_result_to_dict(sub), sort_keys=True)
            read = core.fit_result_from_dict(json.loads(doc))
            assert read.estimates == sub.estimates
            from_json = fit_model(data, model, COARSE_RE, sub=read)
            in_memory = by_model[model]
            assert from_json.estimates == in_memory.estimates
            assert from_json.loglik == in_memory.loglik
            assert from_json.converged == in_memory.converged
            assert from_json.trace == in_memory.trace

    def test_verbose_log_shows_each_trace_stage(self, caplog):
        data = binomial_logistic_data(17, alpha=-2.0, beta=0.1)
        with caplog.at_level(logging.INFO, logger=estimation.__name__):
            fits = fit_models(data, [ModelKind.LRM, ModelKind.LRM_PLUS],
                              FitConfig(compute_se=False))
        expected = []
        for fit in fits:
            expected.append(f"fitting {fit.model.value}")
            expected += [f"{fit.model.value} {s['stage']}: value="
                         f"{s['value']!r}" for s in fit.trace]
        assert [r.getMessage() for r in caplog.records] == expected

    def test_ssb_plus_search_stops_at_eta_one(self, nested_run):
        # every eta start heads for eta = 1 on this design; the search
        # stops at the bound on eta instead of walking logit eta towards
        # +inf (3,084 simplex evaluations), and SSB+ quotes SSB
        _, fits, _, _ = nested_run
        plus = fits[-1]
        assert plus.model is ModelKind.SSB_PLUS
        assert plus.estimates["eta"] == 1.0
        assert plus.loglik == pytest.approx(-14.01341653, abs=1e-8)
        assert 0 < plus.trace[-1]["evals"] <= 3084 // 5

    def test_lrm_plus_on_saturated_counts_quotes_the_lrm_fit(self):
        # every count at the last three times is the whole mass, so the
        # free eta runs to 1 and LRM+ must quote LRM itself
        data = binomial_logistic_data(17, alpha=-2.0, beta=0.5)
        assert set(sum(data.counts[-3:], ())) == {300}
        lrm = fit_model(data, ModelKind.LRM)
        plus = fit_model(data, ModelKind.LRM_PLUS)
        assert plus.estimates == {**lrm.estimates, "eta": 1.0}
        assert plus.loglik == lrm.loglik
        assert plus.trace[-1]["stage"] == "boundary_eta"
        assert plus.std_errors["eta"] is None

    def test_wrong_submodel_rejected(self):
        data = binomial_logistic_data(17, alpha=-2.0, beta=0.1)
        for model, sub in ((ModelKind.LRM_PLUS, "ssb"),
                           (ModelKind.LRM_RE, "lrm_plus"),
                           (ModelKind.SSB_PLUS, "lrm"),
                           (ModelKind.LRM, "lrm")):
            with pytest.raises(DomainError):
                fit_model(data, model, sub=fake_fit(sub, -1.0))


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
        eig = np.linalg.eigvalsh(info)
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
