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
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, ToleranceNotMet

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
    accepted panels expressed as (lo, hi) fractions of the v-domain."""

    value: float
    error: float
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


def _panel_value(phi: Callable[[np.ndarray], np.ndarray],
                 a: float, b: float) -> float:
    half = 0.5 * (b - a)
    x = a + half * (_GL_X + 1.0)
    return half * float(np.dot(_GL_W, phi(x)))


class _AdaptState:
    __slots__ = ("budget", "rel", "err", "converged", "leaves")

    def __init__(self, budget: int, rel: float):
        self.budget = budget
        self.rel = rel
        self.err = 0.0
        self.converged = True
        self.leaves: list[tuple[float, float]] = []


def _adapt(phi, a: float, b: float, q1: float, tol: float,
           state: _AdaptState, depth: int) -> float:
    if state.budget <= 0 or depth > _MAX_DEPTH:
        state.converged = False
        state.err += tol
        state.leaves.append((a, b))
        return q1
    state.budget -= 1
    m = 0.5 * (a + b)
    left = _panel_value(phi, a, m)
    right = _panel_value(phi, m, b)
    q2 = left + right
    # Second acceptance branch: a panel whose refined value dwarfs the
    # initial rough scan (a spike the coarse mesh missed) would chase an
    # absolute tolerance far below its own magnitude, splitting to the
    # depth cap.  Accepting at rel * |q2| bounds the total error by
    # tol + rel * int |phi| instead, which is the right scale for the
    # nonnegative integrands used here.
    if abs(q2 - q1) <= max(tol, state.rel * abs(q2)):
        state.err += abs(q2 - q1)
        state.leaves.append((a, m))
        state.leaves.append((m, b))
        return q2
    return (_adapt(phi, a, m, left, 0.5 * tol, state, depth + 1)
            + _adapt(phi, m, b, right, 0.5 * tol, state, depth + 1))


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


def integrate_weibull(g: Callable[[np.ndarray], np.ndarray],
                      lam: float, gamma: float, t: float,
                      config: Optional[QuadConfig] = None,
                      panels: Optional[Sequence[tuple[float, float]]] = None,
                      breakpoints: Optional[Sequence[float]] = None,
                      strict: bool = False) -> QuadResult:
    """Integrate g against the Weibull(lam, gamma) density over [0, t].

    g must accept a numpy array of u values and return an array of the
    same shape.  t <= 0 yields an exact zero.  When `panels` (fractions
    of the v-domain, as returned in QuadResult.panels) is supplied the
    integral is evaluated on exactly that frozen mesh with no
    subdivision, which keeps the result smooth in (lam, gamma, t) and in
    any parameters of g.  `breakpoints` are u values (for instance a
    known peak of g and its flanks) inserted into the initial mesh so a
    feature much narrower than the default panels is bracketed before
    any subdivision budget is spent.  With strict=True an exhausted
    subdivision budget raises ToleranceNotMet instead of flagging.
    """
    _check_weibull(lam, gamma)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    cfg = config or DEFAULT_QUAD
    if t <= 0.0:
        return QuadResult(0.0, 0.0, True, ())
    vmax = min((t / lam) ** gamma, _VMAX_CAP)
    inv_gamma = 1.0 / gamma

    def phi(v: np.ndarray) -> np.ndarray:
        u = lam * v ** inv_gamma
        return np.asarray(g(u), dtype=float) * np.exp(-v)

    if panels is not None:
        total = 0.0
        for lo, hi in panels:
            total += _panel_value(phi, lo * vmax, hi * vmax)
        return QuadResult(total, 0.0, True, tuple(panels))

    breaks = _initial_breaks(vmax)
    if breakpoints is not None:
        extra = []
        for u_b in breakpoints:
            if not math.isfinite(u_b):
                continue
            v_b = (u_b / lam) ** gamma if u_b > 0 else 0.0
            if 0.0 < v_b < vmax:
                extra.append(v_b)
        if extra:
            merged = sorted(set(breaks) | set(extra))
            # drop near-duplicates that would create degenerate panels
            breaks = [merged[0]]
            for x in merged[1:]:
                if x - breaks[-1] > 1e-12 * vmax:
                    breaks.append(x)
            if breaks[-1] != vmax:
                breaks[-1] = vmax
    first = [_panel_value(phi, a, b) for a, b in zip(breaks, breaks[1:])]
    rough = float(sum(first))
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(rough))
    n_panels = len(first)
    state = _AdaptState(int(cfg.max_subdivisions), cfg.rel_tol)
    total = 0.0
    for (a, b), q1 in zip(zip(breaks, breaks[1:]), first):
        total += _adapt(phi, a, b, q1, tol / n_panels, state, 0)
    if strict and not state.converged:
        raise ToleranceNotMet(
            f"subdivision budget {cfg.max_subdivisions} exhausted")
    fr = tuple((a / vmax, b / vmax) for a, b in state.leaves)
    return QuadResult(total, state.err, state.converged, fr)


# ---------------------------------------------------------------------------
# fixed panels in u for the vectorized fitting engine


def fixed_u_panels(t: float, spacing: float = 0.5,
                   order: int = GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
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
    gx, gw = ((_GL_X, _GL_W) if order == GL_ORDER else leggauss(order))
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
    u = (a[:, None] + h[:, None] * (gx[None, :] + 1.0)).ravel()
    w = (h[:, None] * gw[None, :]).ravel()
    return u, w

