"""Quadrature against a Weibull density.

The central object is integrate_weibull, which computes

    int_0^t g(u) f(u; lam, gamma) du,
    f(u) = gamma * lam**(-gamma) * u**(gamma - 1) * exp(-(u / lam)**gamma)

via the substitution v = (u / lam)**gamma, so the integral becomes
int_0^vmax g(lam * v**(1/gamma)) exp(-v) dv with vmax = (t / lam)**gamma.
The substitution removes the u -> 0 singularity of the density when
gamma < 1 and flattens the exponential tail, after which a panel-wise
fixed-order Gauss-Legendre rule with adaptive bisection is accurate to
near machine precision.

g may be vector valued, returning K integrands at once (the count
likelihood integrates every count of an observation time in one pass).
Refinement is breadth first: each level bisects every panel still open
and evaluates all the halves together, in blocks of at most _BLOCK
values per call of g (for large K, groups of initial panels are refined
one after another, which bounds memory and changes no accepted panel).
A panel is accepted when each component passes its own test, with its
tolerance taken from its own rough pass, so each component is as
accurate as its scalar integral would be.  A K-component integral may
spend K times max_subdivisions splits, what its K scalar integrals had
between them.

The accepted panels are reported as fractions of the v-domain and can be
fed back in to re-evaluate the integral on a frozen mesh.  A frozen mesh
makes the result a smooth function of the parameters, which matters when
differencing log-likelihoods for Hessians: re-running the adaptive
subdivision at perturbed parameters can change the mesh and inject noise
far above truncation level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

__all__ = [
    "QuadConfig",
    "QuadResult",
    "integrate_weibull",
    "weibull_logpdf",
    "weibull_logsf",
    "weibull_cdf",
    "weibull_ppf",
    "fixed_u_panels",
]

GL_ORDER = 15
_MAX_DEPTH = 50
# values per call of the integrand in _gl_values: 512 KB of doubles, so
# a call and its temporaries stay near cache size
_BLOCK = 1 << 16
# exp(-v) underflows to 0 well before 800; nothing beyond contributes
# at double precision, and capping keeps vmax finite for any (t, lam,
# gamma).
_VMAX_CAP = 800.0

_GL_X, _GL_W = leggauss(GL_ORDER)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the adaptive rule.

    rel_tol / abs_tol combine as tol = max(abs_tol, rel_tol * |rough|)
    where rough is a first pass over the initial panels.
    max_subdivisions bounds the total number of panel splits.
    gh_nodes is the order of re_loglik's Gauss-Hermite rule.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 64
    gh_nodes: int = 32

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        if int(self.max_subdivisions) < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if int(self.gh_nodes) < 1:
            raise DomainError("gh_nodes must be >= 1")


DEFAULT_QUAD = QuadConfig()


@dataclass(frozen=True)
class QuadResult:
    """Value, accumulated error estimate, convergence flag, and the
    accepted panels expressed as (lo, hi) fractions of the v-domain.
    value and error are floats for a scalar integrand and (K,) arrays
    for one with K components."""

    value: Union[float, np.ndarray]
    error: Union[float, np.ndarray]
    converged: bool
    panels: tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# Weibull distribution helpers (scale lam, shape gamma)


def _check_weibull(lam: float, gamma: float) -> None:
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"lambda must be > 0, got {lam!r}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be > 0, got {gamma!r}")


def weibull_logpdf(u, lam: float, gamma: float):
    """log f(u); -inf where u <= 0."""
    _check_weibull(lam, gamma)
    u = np.asarray(u, dtype=float)
    out = np.full(u.shape, -np.inf)
    pos = u > 0
    r = u[pos] / lam
    out[pos] = (math.log(gamma) - math.log(lam)
                + (gamma - 1.0) * np.log(r) - r ** gamma)
    if out.ndim == 0:
        return float(out)
    return out


def weibull_logsf(t, lam: float, gamma: float):
    """log Pr[U >= t] = -(t / lam)**gamma for t >= 0."""
    _check_weibull(lam, gamma)
    t = np.asarray(t, dtype=float)
    out = -np.where(t > 0, t / lam, 0.0) ** gamma
    return float(out) if out.ndim == 0 else out


def weibull_cdf(t, lam: float, gamma: float):
    _check_weibull(lam, gamma)
    t = np.asarray(t, dtype=float)
    out = -np.expm1(-np.where(t > 0, t / lam, 0.0) ** gamma)
    return float(out) if out.ndim == 0 else out


def weibull_ppf(p, lam: float, gamma: float):
    """Inverse CDF: u = lam * (-log(1 - p))**(1/gamma)."""
    _check_weibull(lam, gamma)
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p >= 1)):
        raise DomainError("probability must lie in [0, 1)")
    out = lam * (-np.log1p(-p)) ** (1.0 / gamma)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre over [0, vmax] in the substituted variable


def _gl_values(phi: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
               b: np.ndarray, width: int) -> np.ndarray:
    """Gauss-Legendre values of phi on the panels [a_i, b_i], shape
    (len(a), width).  phi maps n nodes to an (n, width) array; the nodes
    go to it in blocks of at most _BLOCK values (or one panel, if that
    is more)."""
    half = 0.5 * (b - a)
    out = np.empty((a.size, width))
    step = max(1, _BLOCK // (GL_ORDER * width))
    for i in range(0, a.size, step):
        s = slice(i, i + step)
        x = a[s, None] + half[s, None] * (_GL_X + 1.0)
        y = phi(x.ravel()).reshape(x.shape + (width,))
        out[s] = half[s, None] * (_GL_W @ y)
    return out


def _initial_breaks(vmax: float) -> list[float]:
    """Geometric ladder 0, 1, 2, 4, ... capped at vmax."""
    if vmax <= 1.0:
        return [0.0, vmax]
    breaks = [0.0]
    s = 1.0
    while s < vmax:
        breaks.append(s)
        s *= 2.0
    breaks.append(vmax)
    return breaks


def _merge_breakpoints(breaks: list[float], breakpoints, lam: float,
                       gamma: float, vmax: float) -> list[float]:
    extra = []
    for u_b in breakpoints:
        if not math.isfinite(u_b):
            continue
        v_b = (u_b / lam) ** gamma if u_b > 0 else 0.0
        if 0.0 < v_b < vmax:
            extra.append(v_b)
    if not extra:
        return breaks
    merged = sorted(set(breaks) | set(extra))
    # drop near-duplicates that would create degenerate panels
    breaks = [merged[0]]
    for x in merged[1:]:
        if x - breaks[-1] > 1e-12 * vmax:
            breaks.append(x)
    if breaks[-1] != vmax:
        breaks[-1] = vmax
    return breaks


def integrate_weibull(g: Callable[[np.ndarray], np.ndarray],
                      lam: float, gamma: float, t: float,
                      config: Optional[QuadConfig] = None,
                      panels: Optional[Sequence[tuple[float, float]]] = None,
                      breakpoints: Optional[Sequence[float]] = None
                      ) -> QuadResult:
    """Integrate g against the Weibull(lam, gamma) density over [0, t].

    g must accept a 1-D numpy array of n u values and return either n
    values or an (n, K) array of K integrands; the result's value (and
    error) is then a float or a (K,) array.  t <= 0 yields an exact
    zero.  When `panels` (fractions of the v-domain, as returned in
    QuadResult.panels) is supplied the integral is evaluated on exactly
    that frozen mesh with no subdivision, which keeps the result smooth
    in (lam, gamma, t) and in any parameters of g.  `breakpoints` are u
    values (for instance a known peak of g and its flanks) inserted into
    the initial mesh so a feature much narrower than the default panels
    is bracketed before any subdivision budget is spent.  An exhausted
    subdivision budget sets the result's converged flag to False.
    """
    _check_weibull(lam, gamma)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    cfg = config or DEFAULT_QUAD
    vmax = min((t / lam) ** gamma, _VMAX_CAP) if t > 0.0 else 0.0
    inv_gamma = 1.0 / gamma
    # g's shape, read from one value at u = t
    shape = np.shape(g(np.array([lam * vmax ** inv_gamma])))[1:]
    width = shape[0] if shape else 1

    def result(value, error, converged, fr):
        if not shape:
            value, error = float(value[0]), float(error[0])
        return QuadResult(value, error, converged, fr)

    if t <= 0.0:
        return result(np.zeros(width), np.zeros(width), True, ())

    def phi(v: np.ndarray) -> np.ndarray:
        y = np.reshape(g(lam * v ** inv_gamma), (v.size, width))
        return y * np.exp(-v)[:, None]

    if panels is not None:
        fr = np.asarray(panels, dtype=float).reshape(-1, 2) * vmax
        total = _gl_values(phi, fr[:, 0], fr[:, 1], width).sum(axis=0)
        return result(total, np.zeros(width), True, tuple(panels))

    breaks = _initial_breaks(vmax)
    if breakpoints is not None:
        breaks = _merge_breakpoints(breaks, breakpoints, lam, gamma, vmax)
    a0 = np.array(breaks[:-1])
    b0 = np.array(breaks[1:])
    first = _gl_values(phi, a0, b0, width)
    rough = first.sum(axis=0)
    tol0 = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(rough)) / a0.size
    budget = int(cfg.max_subdivisions) * width
    total = np.zeros(width)
    err = np.zeros(width)
    leaves = []
    converged = True
    # The initial panels are refined in groups of _BLOCK // width, one
    # group after another, so the values held for open panels stay near
    # a block; whether a panel is accepted does not depend on the group.
    group = max(1, _BLOCK // width)
    for g0 in range(0, a0.size, group):
        a, b = a0[g0:g0 + group], b0[g0:g0 + group]
        q1, tol, depth = first[g0:g0 + group], tol0, 0
        while a.size:
            # one level: split every open panel (as far as the budget
            # goes) in one pass; a panel is accepted when every
            # component passes
            n_split = min(a.size, budget) if depth <= _MAX_DEPTH else 0
            if n_split < a.size:
                converged = False
                rest = slice(n_split, None)
                total += q1[rest].sum(axis=0)
                err += tol * (a.size - n_split)
                leaves.append(np.stack([a[rest], b[rest]], axis=1))
                a, b, q1 = a[:n_split], b[:n_split], q1[:n_split]
                if not n_split:
                    break
            budget -= n_split
            m = 0.5 * (a + b)
            halves = _gl_values(phi, np.concatenate([a, m]),
                                np.concatenate([m, b]), width)
            left, right = halves[:n_split], halves[n_split:]
            q2 = left + right
            diff = np.abs(q2 - q1)
            # Second acceptance branch: a panel whose refined value
            # dwarfs the initial rough scan (a spike the coarse mesh
            # missed) would chase an absolute tolerance far below its
            # own magnitude, splitting to the depth cap.  Accepting at
            # rel * |q2| bounds the total error by tol + rel * int |phi|
            # instead, which is the right scale for the nonnegative
            # integrands used here.
            ok = np.all(diff <= np.maximum(tol, cfg.rel_tol * np.abs(q2)),
                        axis=1)
            total += q2[ok].sum(axis=0)
            err += diff[ok].sum(axis=0)
            leaves.append(np.stack([a[ok], m[ok]], axis=1))
            leaves.append(np.stack([m[ok], b[ok]], axis=1))
            no = ~ok
            a = np.stack([a[no], m[no]], axis=1).ravel()
            b = np.stack([m[no], b[no]], axis=1).ravel()
            q1 = np.stack([left[no], right[no]], axis=1).reshape(-1, width)
            tol = 0.5 * tol
            depth += 1
    leaves = np.concatenate(leaves) / vmax
    leaves = leaves[np.argsort(leaves[:, 0], kind="stable")]
    fr = tuple((float(lo), float(hi)) for lo, hi in leaves)
    return result(total, err, converged, fr)


# ---------------------------------------------------------------------------
# fixed panels in u for the vectorized fitting engine


def fixed_u_panels(t: float,
                   spacing: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for a fixed mesh on [0, t].

    The mesh is uniform with width <= spacing on the upper half and a
    halving ladder toward 0 (so gamma < 1 densities, which blow up at
    the origin, are still captured to grid-search accuracy).  Returns
    (u_nodes, weights); both 1-D, weights are plain Lebesgue weights so
    the caller multiplies in whatever density it wants.
    """
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"t must be > 0, got {t!r}")
    if not (spacing > 0):
        raise DomainError("spacing must be > 0")
    breaks = [t]
    lo = t / 2.0
    # uniform section down to t/2
    n_uni = max(1, int(math.ceil(lo / spacing)))
    width = lo / n_uni
    for i in range(1, n_uni + 1):
        breaks.append(t - i * width)
    # halving ladder below t/2
    b = lo
    while b > 1e-4 * t:
        b *= 0.5
        breaks.append(b)
    breaks.append(0.0)
    breaks = np.array(breaks[::-1])
    a = breaks[:-1]
    h = 0.5 * np.diff(breaks)
    u = (a[:, None] + h[:, None] * (_GL_X[None, :] + 1.0)).ravel()
    w = (h[:, None] * _GL_W[None, :]).ravel()
    return u, w

