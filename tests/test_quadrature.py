"""Deterministic integration kernels.

Oracles: closed forms where the integral is elementary, an independent
inverse-CDF Monte Carlo for the truncated-mean case, and the recursive
depth-first form of the adaptive rule (_adapt_ref) for the panels a
scalar integrand is refined into.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from masshist.errors import DomainError
from masshist.quadrature import (DEFAULT_QUAD, QuadConfig, fixed_u_panels,
                                 integrate_weibull, weibull_cdf,
                                 weibull_logpdf, weibull_logsf, weibull_ppf)
from masshist.quadrature import (_GL_W, _GL_X, _MAX_DEPTH, _initial_breaks,
                                 _merge_breakpoints)

ONE = lambda u: np.ones_like(u)


def _adapt_ref(g, lam, gamma, t, cfg=DEFAULT_QUAD, breakpoints=None):
    """The adaptive rule for a scalar integrand as one recursion per
    initial panel, depth first, with one integrand call per panel:
    returns (value, error, converged, panels) like integrate_weibull."""
    vmax = min((t / lam) ** gamma, 800.0)

    def phi(v):
        return g(lam * v ** (1.0 / gamma)) * np.exp(-v)

    def panel(a, b):
        half = 0.5 * (b - a)
        return half * float(np.dot(_GL_W, phi(a + half * (_GL_X + 1.0))))

    state = {"budget": int(cfg.max_subdivisions), "err": 0.0,
             "converged": True, "leaves": []}

    def adapt(a, b, q1, tol, depth):
        if state["budget"] <= 0 or depth > _MAX_DEPTH:
            state["converged"] = False
            state["err"] += tol
            state["leaves"].append((a, b))
            return q1
        state["budget"] -= 1
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        q2 = left + right
        if abs(q2 - q1) <= max(tol, cfg.rel_tol * abs(q2)):
            state["err"] += abs(q2 - q1)
            state["leaves"] += [(a, m), (m, b)]
            return q2
        return (adapt(a, m, left, 0.5 * tol, depth + 1)
                + adapt(m, b, right, 0.5 * tol, depth + 1))

    breaks = _initial_breaks(vmax)
    if breakpoints is not None:
        breaks = _merge_breakpoints(breaks, breakpoints, lam, gamma, vmax)
    first = [panel(a, b) for a, b in zip(breaks, breaks[1:])]
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(sum(first))) / len(first)
    value = sum(adapt(a, b, q1, tol, 0)
                for (a, b), q1 in zip(zip(breaks, breaks[1:]), first))
    panels = tuple((a / vmax, b / vmax) for a, b in state["leaves"])
    return value, state["err"], state["converged"], panels


# (integrand, lam, gamma, t, breakpoints): smooth, logistic, a narrow
# spike with and without its location, and a heavy tail at gamma 0.5
SCALAR_CASES = [
    (lambda u: np.sin(u), 4.0, 1.0, 6.0, None),
    (lambda u: expit(-3.0 + 0.5 * (6.0 - u)), 4.0, 0.8, 12.0, None),
    (lambda u: np.exp(-(((u - 2.3) / 1e-2) ** 2)), 4.0, 1.5, 6.0, None),
    (lambda u: np.exp(-(((u - 2.3) / 1e-2) ** 2)), 4.0, 1.5, 6.0,
     (2.25, 2.3, 2.35)),
    (lambda u: u, 1.0, 0.5, 50.0, None),
    (lambda u: 1.0 / (1.0 + u), 10.0, 1.0, 40.0, None),
]


class TestWeibullHelpers:
    def test_ppf_closed_forms(self):
        assert weibull_ppf(0.5, 4.0, 1.0) == pytest.approx(4.0 * math.log(2),
                                                           rel=1e-14)
        assert weibull_ppf(1 - math.exp(-1.0), 4.0, 1.5) == pytest.approx(
            4.0, rel=1e-14)

    def test_ppf_domain(self):
        with pytest.raises(DomainError):
            weibull_ppf(1.0, 4.0, 1.5)
        with pytest.raises(DomainError):
            weibull_ppf(-0.1, 4.0, 1.5)

    def test_cdf_sf_complement(self):
        t = np.linspace(0.0, 30.0, 7)
        total = weibull_cdf(t, 4.0, 1.5) + np.exp(weibull_logsf(t, 4.0, 1.5))
        assert np.allclose(total, 1.0, atol=1e-14)

    def test_ppf_inverts_cdf(self):
        p = np.array([0.01, 0.3, 0.9, 0.999])
        u = weibull_ppf(p, 4.0, 0.7)
        assert np.allclose(weibull_cdf(u, 4.0, 0.7), p, atol=1e-12)

    def test_logpdf_integrates_against_density(self):
        # pdf normalization restated through the integrator below; here
        # just check the closed form at a point
        lp = weibull_logpdf(2.0, 4.0, 1.5)
        r = 2.0 / 4.0
        expected = (math.log(1.5) - math.log(4.0)
                    + 0.5 * math.log(r) - r ** 1.5)
        assert lp == pytest.approx(expected, rel=1e-14)

    def test_bad_shape_scale(self):
        for lam, gamma in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)]:
            with pytest.raises(DomainError):
                weibull_logsf(1.0, lam, gamma)


class TestIntegrateWeibull:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
    def test_density_normalization(self, gamma):
        # horizon chosen so the untouched tail mass is exp(-40) ~ 4e-18
        t = 4.0 * 40.0 ** (1.0 / gamma)
        res = integrate_weibull(ONE, 4.0, gamma, t)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-10

    def test_exponential_cdf(self):
        res = integrate_weibull(ONE, 4.0, 1.0, 4.0)
        assert res.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_truncated_mean_against_monte_carlo(self):
        # independent oracle: inverse-CDF draws computed inline
        lam, gamma, t = 1.0, 0.5, 50.0
        res = integrate_weibull(lambda u: u, lam, gamma, t)
        rng = np.random.default_rng(20260816)
        n = 10_000_000
        u = lam * (-np.log1p(-rng.random(n))) ** (1.0 / gamma)
        contrib = np.where(u <= t, u, 0.0)
        mc = contrib.mean()
        se = contrib.std(ddof=1) / math.sqrt(n)
        assert abs(res.value - mc) < 3.0 * se

    def test_linearity(self):
        lam, gamma, t = 4.0, 1.5, 6.0
        g1 = lambda u: np.sin(u)
        g2 = lambda u: u ** 2
        a, b = 2.5, -0.75
        lhs = integrate_weibull(lambda u: a * g1(u) + b * g2(u),
                                lam, gamma, t).value
        rhs = (a * integrate_weibull(g1, lam, gamma, t).value
               + b * integrate_weibull(g2, lam, gamma, t).value)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 10.0 * DEFAULT_QUAD.rel_tol * scale

    def test_monotone_in_t_for_nonnegative_integrand(self):
        g = lambda u: 1.0 / (1.0 + u)
        ts = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        vals = [integrate_weibull(g, 4.0, 1.5, t).value for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_deterministic(self):
        g = lambda u: np.exp(-0.3 * u) * np.cos(u)
        r1 = integrate_weibull(g, 4.0, 0.8, 12.0)
        r2 = integrate_weibull(g, 4.0, 0.8, 12.0)
        assert r1.value == r2.value and r1.error == r2.error

    def test_nonpositive_t_is_exact_zero(self):
        for t in (0.0, -0.5):
            res = integrate_weibull(ONE, 4.0, 1.5, t)
            assert res.value == 0.0 and res.converged

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            integrate_weibull(ONE, -4.0, 1.5, 6.0)
        with pytest.raises(DomainError):
            integrate_weibull(ONE, 4.0, 1.5, math.inf)

    def test_panels_cover_the_domain(self):
        res = integrate_weibull(ONE, 4.0, 1.5, 6.0)
        panels = sorted(res.panels)
        assert panels[0][0] == pytest.approx(0.0, abs=1e-15)
        assert panels[-1][1] == pytest.approx(1.0, rel=1e-12)
        for (_, hi), (lo, _) in zip(panels, panels[1:]):
            assert hi == pytest.approx(lo, rel=1e-12)

    def test_frozen_panels_reproduce_adaptive_value(self):
        g = lambda u: expit(-3.0 + 0.5 * (6.0 - u))
        adaptive = integrate_weibull(g, 4.0, 1.5, 6.0)
        frozen = integrate_weibull(g, 4.0, 1.5, 6.0, panels=adaptive.panels)
        assert frozen.converged
        assert frozen.value == pytest.approx(adaptive.value, rel=1e-12)

    def test_breakpoints_capture_a_narrow_spike(self):
        lam, gamma, t = 4.0, 1.5, 6.0
        u0, w = 2.3, 1e-4
        g = lambda u: np.exp(-(((u - u0) / w) ** 2))
        res = integrate_weibull(g, lam, gamma, t,
                                breakpoints=(u0 - 5 * w, u0, u0 + 5 * w))
        # the spike integrates to about f_U(u0) * w * sqrt(pi)
        expected = math.exp(weibull_logpdf(u0, lam, gamma)) * w * math.sqrt(math.pi)
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_budget_exhaustion_flags_unconverged(self):
        cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=2)
        g = lambda u: np.cos(50.0 * u ** 2)
        res = integrate_weibull(g, 1.0, 1.0, 30.0, config=cfg)
        assert res.converged is False

    @pytest.mark.parametrize("case", range(len(SCALAR_CASES)))
    def test_panels_match_depth_first_refinement(self, case):
        # breadth-first levels accept the same panels as the recursion
        g, lam, gamma, t, bp = SCALAR_CASES[case]
        value, err, conv, panels = _adapt_ref(g, lam, gamma, t,
                                              breakpoints=bp)
        res = integrate_weibull(g, lam, gamma, t, breakpoints=bp)
        assert conv and res.converged
        assert res.panels == panels
        assert isinstance(res.value, float) and isinstance(res.error, float)
        assert res.value == pytest.approx(value, rel=1e-14)
        assert res.error == pytest.approx(err, rel=1e-12, abs=1e-30)


def _stacked(gs):
    return lambda u: np.stack([g(u) for g in gs], axis=1)


class TestVectorIntegrand:
    GS = [ONE, lambda u: u, lambda u: np.sin(u),
          lambda u: np.exp(-(((u - 2.3) / 1e-2) ** 2)),
          lambda u: expit(-3.0 + 0.5 * (6.0 - u))]

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_components_match_scalar_integrals(self, gamma):
        res = integrate_weibull(_stacked(self.GS), 4.0, gamma, 6.0,
                                breakpoints=(2.25, 2.3, 2.35))
        assert res.converged
        assert res.value.shape == res.error.shape == (len(self.GS),)
        for j, g in enumerate(self.GS):
            want = integrate_weibull(g, 4.0, gamma, 6.0,
                                     breakpoints=(2.25, 2.3, 2.35)).value
            assert res.value[j] == pytest.approx(want, rel=1e-12)

    def test_one_component_is_the_scalar_integral(self):
        for g, lam, gamma, t, bp in SCALAR_CASES:
            scalar = integrate_weibull(g, lam, gamma, t, breakpoints=bp)
            vec = integrate_weibull(lambda u: g(u)[:, None], lam, gamma, t,
                                    breakpoints=bp)
            assert vec.value.shape == (1,)
            assert vec.value[0] == scalar.value
            assert vec.panels == scalar.panels

    def test_every_component_must_pass(self):
        # the spike alone needs far more panels than the constant; a
        # mesh accepted on the first component only would miss it
        both = integrate_weibull(_stacked([ONE, self.GS[3]]), 4.0, 1.5, 6.0)
        spike = integrate_weibull(self.GS[3], 4.0, 1.5, 6.0)
        assert both.converged
        assert both.value[1] == pytest.approx(spike.value, rel=1e-12)
        assert len(both.panels) >= len(spike.panels)

    def test_frozen_panels_reproduce_vector_value(self):
        g = _stacked(self.GS)
        adaptive = integrate_weibull(g, 4.0, 0.75, 16.0)
        frozen = integrate_weibull(g, 4.0, 0.75, 16.0,
                                   panels=adaptive.panels)
        assert frozen.converged and frozen.value.shape == (len(self.GS),)
        assert np.allclose(frozen.value, adaptive.value, rtol=1e-12,
                           atol=0.0)

    def test_nonpositive_t_gives_zero_vector(self):
        res = integrate_weibull(_stacked(self.GS), 4.0, 1.5, 0.0)
        assert res.converged and np.array_equal(res.value,
                                                np.zeros(len(self.GS)))

    def test_budget_exhaustion_flags_unconverged(self):
        cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=2)
        g = _stacked([ONE, lambda u: np.cos(50.0 * u ** 2)])
        res = integrate_weibull(g, 1.0, 1.0, 30.0, config=cfg)
        assert res.converged is False
        assert res.value.shape == (2,)


class TestFixedPanels:
    def test_mesh_integrates_smooth_density_exactly_enough(self):
        lam, gamma, t = 4.0, 1.5, 6.0
        u, w = fixed_u_panels(t, spacing=0.5)
        val = float(np.dot(w, np.exp(weibull_logpdf(u, lam, gamma))))
        assert val == pytest.approx(weibull_cdf(t, lam, gamma), rel=1e-10)

    def test_mesh_handles_unbounded_origin_density(self):
        # gamma < 1 makes the density blow up at 0; the halving ladder
        # keeps the fixed mesh serviceable for searching
        lam, gamma, t = 4.0, 0.6, 6.0
        u, w = fixed_u_panels(t, spacing=0.5)
        val = float(np.dot(w, np.exp(weibull_logpdf(u, lam, gamma))))
        # search-grade accuracy is all the mesh promises near a singularity
        assert val == pytest.approx(weibull_cdf(t, lam, gamma), rel=1e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            fixed_u_panels(0.0)
        with pytest.raises(DomainError):
            fixed_u_panels(6.0, spacing=0.0)


class TestQuadConfig:
    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"abs_tol": -1e-3}, {"max_subdivisions": 0},
        {"gh_nodes": 0},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(DomainError):
            QuadConfig(**kwargs)
