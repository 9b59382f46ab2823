"""Count likelihoods for the five competing models.

Shared-lead-time models (SsbParams): a group of `mass` individuals
shares one latent Weibull lead time U; an individual in the responsive
phase (probability eta) acts within s hours of the lead time with
probability expit(alpha + beta * s), which has an atom expit(alpha) at
s = 0.  Observing the group at time t therefore yields a binomial count
with success probability eta * expit(alpha + beta * (t - u)) mixed over
u, plus a lump of probability exp(-(t/lam)**gamma) on zero from groups
whose lead time has not arrived.

Plain logistic models replace t - u by t (no lead time); the
random-effects variant instead draws (alpha, beta) per group from a
bivariate normal.

Everything is computed in log space.  Binomial kernels are shifted by
their maximum over the achievable range of z = alpha + beta * (t - u)
before exponentiating, so counts whose probability underflows a double
still return a finite log-likelihood.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import expit, gammaln, log_expit, logit, logsumexp

from .core import CountDataset, ReParams, SsbParams
from .errors import DomainError
from .quadrature import (QuadConfig, DEFAULT_QUAD, integrate_weibull,
                         weibull_logsf)

__all__ = [
    "CountPmf",
    "McCountPmf",
    "ssb_count_loglik",
    "ssb_dataset_loglik",
    "frozen_dataset_loglik",
    "marginal_count_pmf",
    "delta_factor",
    "lrm_count_logpmf",
    "lrm_loglik",
    "re_loglik",
    "mc_count_pmf",
]


@dataclass(frozen=True)
class CountPmf:
    """Distribution of the count at one time: probs[k] = Pr[N(t) = k]."""

    t: float
    probs: np.ndarray
    converged: bool = True

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class McCountPmf:
    """Monte Carlo estimate of a count pmf with per-component standard
    errors."""

    t: float
    probs: np.ndarray
    se: np.ndarray
    n_sims: int


def _log_success(z, eta: float):
    """log(eta * expit(z)) elementwise."""
    if eta >= 1.0:
        return log_expit(z)
    return math.log(eta) + log_expit(z)


def _log_failure(z, eta: float):
    """log(1 - eta * expit(z)) elementwise, stable at both tails."""
    if eta >= 1.0:
        return log_expit(-np.asarray(z, dtype=float))
    return np.log1p(-eta * expit(z))


def _binom_kernel_peak(alpha: float, beta: float, t: float,
                       mass: int, ks, eta: float) -> np.ndarray:
    """max over u in [0, t] of k*log(eta p) + (mass-k)*log(1 - eta p)
    where p = expit(alpha + beta*(t-u)), for every count k in ks.

    The kernel is unimodal in z = alpha + beta*(t-u) with its maximum at
    eta*p = k/mass, so the peak sits at logit(k/(mass*eta)) clamped to
    the achievable range [alpha, alpha + beta*t].
    """
    ks = np.asarray(ks)
    z_lo, z_hi = alpha, alpha + beta * t
    inner = (ks > 0) & (ks < mass * eta)
    z_peak = logit(np.where(inner, ks / (mass * eta), 0.5))
    zs = np.where(inner, np.minimum(np.maximum(z_peak, z_lo), z_hi),
                  np.where(ks == 0, z_lo, z_hi))
    ls = np.where(ks > 0, _log_success(zs, eta), 0.0)
    lf = np.where(ks < mass, _log_failure(zs, eta), 0.0)
    return ks * ls + (mass - ks) * lf


def _log_binom_coef(mass: int, k: int) -> float:
    return float(gammaln(mass + 1) - gammaln(k + 1) - gammaln(mass - k + 1))


def _check_obs(mass: int, t: float, ks) -> None:
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"observation time must be > 0, got {t!r}")
    ks = np.atleast_1d(ks)
    bad = ks[(ks < 0) | (ks > mass)]
    if bad.size:
        raise DomainError(f"count {int(bad[0])} outside [0, {mass}]")


def _shared_breakpoints(alpha: float, beta: float, t: float, mass: int,
                        ks, eta: float) -> list[float]:
    """u values resolving the sharp region of each count's binomial
    kernel, pooled over the counts ks and thinned.

    For 0 < k < mass*eta the kernel peaks at z* = logit(k/(mass*eta)),
    i.e. u* = t - (z* - alpha)/beta, with curvature scale sigma_z of
    order 1/sqrt(mass q (1-q)); it gets u* + (-8, -2, 0, 2, 8) sigma_u.
    When the peak falls at or beyond the z ceiling alpha + beta*t the
    kernel instead decays from u = 0 on a length ell set by its
    log-slope there, and at most by its curvature width
    1/(beta sqrt(mass s (1-s))), s = eta expit(z_hi): at a peak sitting
    on the ceiling the slope is 0 and only the curvature is left; it
    gets ell * (0.25, 1, 4, 16, 64).  k = 0 contributes nothing.  For
    large mass either feature is far narrower than the default mesh;
    handing its location to the quadrature saves the subdivisions
    otherwise spent finding it.

    Of the candidates inside (0, t), one is kept only if it lies at
    least its own kernel's smallest breakpoint gap above the last one
    kept.  Each narrow kernel stays bracketed, while wide kernels with
    nearby peaks do not flood the initial mesh; a single count keeps all
    of its own.
    """
    ks = np.asarray(ks)
    ks = ks[ks > 0]
    q = ks / (mass * eta)
    z_hi = alpha + beta * t
    peaked = q < 1.0
    z_star = logit(np.where(peaked, q, 0.5))
    peaked &= z_star < z_hi
    p_hi = float(expit(z_hi))
    s = eta * p_hi
    # both branches are evaluated for every count, and each is invalid
    # (a square root of a negative, a zero slope) where it is not used
    with np.errstate(invalid="ignore", divide="ignore"):
        u_star = t - (z_star - alpha) / beta
        sigma_u = 1.0 / (np.sqrt(mass * q * (1.0 - q)) * beta)
        # peak clamped to u = 0: exponential falloff with rate
        # beta * d/dz [k log(eta p) + (mass-k) log(1 - eta p)] at z_hi
        slope = ks * (1.0 - p_hi)
        drag = (mass - ks) * eta * p_hi * (1.0 - p_hi) / (1.0 - eta * p_hi)
        slope = np.where(ks < mass, slope - drag, slope) * beta
        ell = np.where(slope > 0.0, 1.0 / slope, np.inf)
        if 0.0 < s < 1.0:
            ell = np.minimum(
                ell, 1.0 / (beta * math.sqrt(mass * s * (1.0 - s))))
        bp = np.where(peaked[:, None],
                      u_star[:, None] + np.array([-8.0, -2.0, 0.0, 2.0, 8.0])
                      * sigma_u[:, None],
                      ell[:, None] * np.array([0.25, 1.0, 4.0, 16.0, 64.0]))
    bp = bp[peaked | np.isfinite(ell)]
    gap = np.repeat(np.diff(bp, axis=1).min(axis=1), bp.shape[1])
    u = bp.ravel()
    inside = (0.0 < u) & (u < t)
    u, gap = u[inside], gap[inside]
    order = np.lexsort((gap, u))
    kept = []
    last = -math.inf
    for x, g in zip(u[order].tolist(), gap[order].tolist()):
        if x - last >= g:
            kept.append(x)
            last = x
    return kept


def _counts_loglik(p: SsbParams, mass: int, t: float, ks,
                   cfg: QuadConfig, panels=None):
    """log Pr[N(t) = k] for every k in ks from one adaptive pass over
    the lead time (or one pass over the frozen `panels`).  Returns
    (loglik array, converged, panels_used).

    Each count's binomial kernel is shifted by its own peak
    (_binom_kernel_peak), so every component of the vector integrand
    peaks near 1 and none underflows; the k = 0 count adds the atom
    Pr[U >= t] of lead times still to come.
    """
    ks = np.asarray(ks, dtype=np.int64).ravel()
    _check_obs(mass, t, ks)
    a, b, lam, gam, eta = p.alpha, p.beta, p.lam, p.gamma, p.eta
    zero = ks == 0
    if eta == 0.0:
        # nobody ever acts: the count is 0 with probability one
        return np.where(zero, 0.0, -np.inf), True, ()

    shift = _binom_kernel_peak(a, b, t, mass, ks, eta)
    fails = (mass - ks).astype(float)
    succs = ks.astype(float)

    def kernel(u: np.ndarray) -> np.ndarray:
        z = a + b * (t - u)
        lg = np.multiply.outer(_log_failure(z, eta), fails)
        lg += np.multiply.outer(_log_success(z, eta), succs)
        lg -= shift
        return np.exp(lg, out=lg)

    breaks = None if panels is not None else _shared_breakpoints(
        a, b, t, mass, ks, eta)
    res = integrate_weibull(kernel, lam, gam, t, cfg, panels=panels,
                            breakpoints=breaks)
    with np.errstate(divide="ignore"):
        log_int = shift + np.log(res.value)
    logc = gammaln(mass + 1) - gammaln(ks + 1) - gammaln(mass - ks + 1)
    ll = np.where(zero, np.logaddexp(weibull_logsf(t, lam, gam), log_int),
                  logc + log_int)
    return ll, res.converged, res.panels


def ssb_count_loglik(params: SsbParams, mass: int, t: float, k: int,
                     config: Optional[QuadConfig] = None) -> float:
    """log Pr[N(t) = k] for one group of `mass` under the shared-lead-
    time model.  Returns -inf when the probability is exactly zero
    (eta = 0 with k > 0)."""
    cfg = config or DEFAULT_QUAD
    ll, _, _ = _counts_loglik(params, mass, t, [k], cfg)
    return float(ll[0])


def ssb_dataset_loglik(params: SsbParams, data: CountDataset,
                       config: Optional[QuadConfig] = None) -> float:
    """Sum of ssb_count_loglik over all observations (0 for an empty
    dataset), with one adaptive pass per observation time covering all
    of its distinct counts."""
    cfg = config or DEFAULT_QUAD
    total = 0.0
    for t, ks, mult in data.grouped():
        ll, _, _ = _counts_loglik(params, data.mass, t, ks, cfg)
        total += float(np.dot(mult, ll))
    return total


def frozen_dataset_loglik(params: SsbParams, data: CountDataset,
                          config: Optional[QuadConfig] = None,
                          free_eta: bool = False) -> Callable[[np.ndarray], float]:
    """Build a dataset log-likelihood with quadrature meshes frozen at
    `params`.

    The returned callable maps a parameter vector (alpha, beta, lambda,
    gamma) -- plus eta if free_eta -- to the log-likelihood, evaluating
    every integral on the panel layout the adaptive rule chose at the
    anchor point: one mesh per observation time, shared by all of its
    counts.  Freezing the mesh makes the map smooth, which keeps
    finite-difference Hessians clean; re-adapting at each perturbed
    point would move panel boundaries discontinuously.
    """
    cfg = config or DEFAULT_QUAD
    frozen = [(t, ks, mult, _counts_loglik(params, data.mass, t, ks, cfg)[2])
              for t, ks, mult in data.grouped()]

    def loglik(theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        eta = float(theta[4]) if free_eta else params.eta
        try:
            p = SsbParams(alpha=float(theta[0]), beta=float(theta[1]),
                          lam=float(theta[2]), gamma=float(theta[3]), eta=eta)
        except DomainError:
            return -np.inf
        total = 0.0
        for t, ks, mult, panels in frozen:
            ll, _, _ = _counts_loglik(p, data.mass, t, ks, cfg,
                                      panels=panels)
            total += float(np.dot(mult, ll))
        return total

    return loglik


def marginal_count_pmf(params: SsbParams, mass: int, t: float,
                       config: Optional[QuadConfig] = None) -> CountPmf:
    """Pr[N(t) = k] for k = 0..mass, from one adaptive pass over all
    counts; the entries sum to 1 up to quadrature tolerance."""
    cfg = config or DEFAULT_QUAD
    ll, ok, _ = _counts_loglik(params, mass, t, np.arange(mass + 1), cfg)
    return CountPmf(t=float(t), probs=np.exp(ll), converged=ok)


def delta_factor(params: SsbParams, mass: int, t: float,
                 config: Optional[QuadConfig] = None) -> float:
    """The overlap term Delta(t) = int_0^t (1 - p(z))**mass f_U(u) du
    with p = expit(alpha + beta*(t-u)): the probability that the lead
    time has passed yet nobody has acted (eta plays no role; the
    identities it enters hold for the eta = 1 model).

    Links the latent CDF to observables:  Pr[U < t] = Pr[N(t) > 0] +
    Delta(t)  and  Pr[N(t) = 0] = Pr[U >= t] + Delta(t).
    """
    _check_obs(mass, t, 0)
    cfg = config or DEFAULT_QUAD
    a, b = params.alpha, params.beta
    shift = mass * float(_log_failure(np.float64(a), 1.0))

    def g(u: np.ndarray) -> np.ndarray:
        z = a + b * (t - u)
        return np.exp(mass * _log_failure(z, 1.0) - shift)

    res = integrate_weibull(g, params.lam, params.gamma, t, cfg)
    return math.exp(shift) * res.value


# ---------------------------------------------------------------------------
# plain logistic (no lead time)


def lrm_count_logpmf(alpha: float, beta: float, eta: float,
                     mass: int, t, k):
    """log Pr[N(t) = k] under the logistic response in chronological
    time: N(t) ~ Binomial(mass, eta * expit(alpha + beta * t)).
    Broadcasts over arrays of t and k."""
    t = np.asarray(t, dtype=float)
    k = np.asarray(k)
    if np.any(k < 0) or np.any(k > mass):
        raise DomainError("count outside [0, mass]")
    z = alpha + beta * t
    logc = gammaln(mass + 1) - gammaln(k + 1) - gammaln(mass - k + 1)
    if eta == 0.0:
        out = np.where(k == 0, 0.0, -np.inf)
        return float(out) if out.ndim == 0 else out
    with np.errstate(invalid="ignore"):
        succ = np.where(k > 0, k * _log_success(z, eta), 0.0)
        fail = np.where(k < mass, (mass - k) * _log_failure(z, eta), 0.0)
    out = logc + succ + fail
    return float(out) if out.ndim == 0 else out


def _lrm_cells(alpha, beta, eta: float, data: CountDataset) -> np.ndarray:
    """log Pr[N(t) = k] under the plain logistic model for every cell of
    data's cell table (last axis), broadcast over alpha and beta; the
    cell-table form of lrm_count_logpmf."""
    c = data.cells
    if eta == 0.0:
        return np.broadcast_to(np.where(c.k == 0, 0.0, -np.inf),
                               np.broadcast_shapes(np.shape(alpha),
                                                   np.shape(beta), c.k.shape))
    z = alpha + beta * c.t
    with np.errstate(invalid="ignore"):
        succ = np.where(c.k > 0, c.k * _log_success(z, eta), 0.0)
        fail = np.where(c.k < data.mass,
                        (data.mass - c.k) * _log_failure(z, eta), 0.0)
    return c.logc + succ + fail


def lrm_loglik(alpha: float, beta: float, data: CountDataset,
               eta: float = 1.0) -> float:
    """Dataset log-likelihood of the plain logistic model (closed
    form): one array pass over data's cell table, each cell weighted by
    its multiplicity."""
    return float(_lrm_cells(alpha, beta, eta, data) @ data.cells.mult)


# ---------------------------------------------------------------------------
# random-effects logistic


def _re_batch_loglik(mz: np.ndarray, vz: np.ndarray, ks: np.ndarray,
                     mass: int, eta: float, gh_x: np.ndarray,
                     gh_logw: np.ndarray) -> np.ndarray:
    """log E[Binom(k; mass, eta*expit(Z))] for Z ~ N(mz, vz), without
    the binomial coefficient, for every (mz, vz, k) row at once.

    For large mass the binomial kernel is far narrower than the normal,
    so a rule centered on the normal's mean puts no nodes under the
    kernel.  Instead each row's rule is centered on the mode of
    log-normal-density + log-kernel and scaled by the curvature there,
    which makes a modest fixed order accurate (a row whose curvature at
    the mode is not negative keeps sd as its scale).  The mode comes
    from a scan of mz +- 8 sd, plus the kernel's own peak
    logit(k / (mass*eta)) when 0 < k < mass*eta, then up to 8 damped
    Newton steps on central differences: each step is clipped to 4 sd
    and kept only if it does not lower the integrand, and a row stops
    for good once its curvature turns nonnegative or its step falls
    below 1e-10 relative."""
    mz = np.asarray(mz, dtype=float)
    vz = np.asarray(vz, dtype=float)
    k1 = np.asarray(ks, dtype=float)
    n = mz.size
    kcol = k1[:, None]

    def logh(z):
        out = -0.5 * (z - mz[:, None]) ** 2 / vz[:, None]
        out = out + (mass - kcol) * _log_failure(z, eta)
        with np.errstate(invalid="ignore"):
            contrib = kcol * _log_success(z, eta)
        return out + np.where(kcol > 0, contrib, 0.0)

    sd = np.sqrt(vz)
    grid = mz[:, None] + sd[:, None] * np.linspace(-8.0, 8.0, 81)[None, :]
    at_peak = (k1 > 0) & (k1 < mass * eta)
    with np.errstate(divide="ignore"):
        peak = logit(np.clip(k1 / (mass * eta), 1e-15, 1.0 - 1e-15))
    grid = np.concatenate([grid, np.where(at_peak, peak, mz)[:, None]],
                          axis=1)
    lg = logh(grid)
    m0 = grid[np.arange(n), np.argmax(lg, axis=1)]

    h = 1e-5 * np.maximum(sd, 1.0)
    done = np.zeros(n, dtype=bool)
    for _ in range(8):
        f0, fp, fm = logh(np.stack([m0, m0 + h, m0 - h], axis=1)).T
        g1 = (fp - fm) / (2.0 * h)
        g2 = (fp - 2.0 * f0 + fm) / (h * h)
        done |= g2 >= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.clip(-g1 / g2, -4.0 * sd, 4.0 * sd)
        m1 = m0 + step
        f1 = logh(m1[:, None])[:, 0]
        m0 = np.where(~done & (f1 >= f0), m1, m0)
        done |= np.abs(step) < 1e-10 * np.maximum(1.0, np.abs(m0))
        if bool(np.all(done)):
            break
    f0, fp, fm = logh(np.stack([m0, m0 + h, m0 - h], axis=1)).T
    g2 = (fp - 2.0 * f0 + fm) / (h * h)
    neg = g2 < 0.0
    scale = np.where(neg, np.sqrt(-1.0 / np.where(neg, g2, -1.0)), sd)
    z_n = m0[:, None] + math.sqrt(2.0) * scale[:, None] * gh_x[None, :]
    lse = logsumexp(gh_logw[None, :] + gh_x[None, :] ** 2 + logh(z_n),
                    axis=1)
    return (lse + np.log(scale) + 0.5 * math.log(2.0)
            - 0.5 * np.log(2.0 * math.pi * vz))


@functools.lru_cache(maxsize=None)
def _gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the Gauss-Hermite rule of `order`,
    built once per order (read-only)."""
    x, w = hermgauss(order)
    logw = np.log(w)
    x.flags.writeable = False
    logw.flags.writeable = False
    return x, logw


def re_loglik(params: ReParams, data: CountDataset,
              config: Optional[QuadConfig] = None) -> float:
    """Dataset log-likelihood when each group draws its own
    (alpha, beta) from N(mean, cov).

    Each observation depends on the pair only through z = a + b*t, which
    is itself normal, so the double integral collapses to one dimension
    per cell of data's cell table; that integral is done by Gauss-Hermite
    centered on the integrand's mode and scaled by its curvature there,
    for all cells in one batch (_re_batch_loglik), with the node sum in
    log space so deep tails cannot underflow."""
    cfg = config or DEFAULT_QUAD
    c = data.cells
    eta = params.eta
    if eta == 0.0:
        # nobody ever acts: the count is 0 with probability one
        return float(c.mult @ np.where(c.k == 0, 0.0, -np.inf))
    if c.n_cells == 0:
        return 0.0
    s1, s2, rho = params.sigma1, params.sigma2, params.rho
    mz = params.mu1 + params.mu2 * c.t
    vz = s1 * s1 + 2.0 * rho * s1 * s2 * c.t + (s2 * c.t) ** 2
    gh_x, gh_logw = _gauss_hermite(int(cfg.gh_nodes))
    ll = _re_batch_loglik(mz, vz, c.k, data.mass, eta, gh_x, gh_logw)
    return float(np.dot(c.mult, ll + c.logc))


# ---------------------------------------------------------------------------
# Monte Carlo check of the count distribution


def mc_count_pmf(params: SsbParams, mass: int, t: float, n_sims: int,
                 seed: int, chunk_size: Optional[int] = None) -> McCountPmf:
    """Estimate Pr[N(t) = k] by direct simulation of the data-generating
    process: draw the shared lead time, per-individual phase, and
    per-individual action delay, count how many acted by t.

    This shares no code with the quadrature path, so it serves as an
    independent check of every analytic probability.
    """
    from .simulation import action_time_from_uniform, lead_time_from_uniform

    _check_obs(mass, t, 0)
    if n_sims < 1:
        raise DomainError("n_sims must be >= 1")
    rng = np.random.default_rng(seed)
    if chunk_size is None:
        chunk_size = max(1, int(4.0e7 // max(mass, 1)))
    hist = np.zeros(mass + 1, dtype=np.int64)
    left = int(n_sims)
    while left > 0:
        b = min(left, chunk_size)
        u = lead_time_from_uniform(params.lam, params.gamma, rng.random(b))
        phase = rng.random((b, mass)) < params.eta
        s = action_time_from_uniform(params.alpha, params.beta,
                                     rng.random((b, mass)))
        acted = phase & (s <= (t - u)[:, None])
        hist += np.bincount(acted.sum(axis=1), minlength=mass + 1)
        left -= b
    p = hist / float(n_sims)
    se = np.sqrt(p * (1.0 - p) / float(n_sims))
    return McCountPmf(t=float(t), probs=p, se=se, n_sims=int(n_sims))
