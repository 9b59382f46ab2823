"""Fitting the five count models.

The shared-lead-time models are estimated by the profiled grid scheme:

  stage 1  initial_weibull_estimate: a current-status fit of the lead
           time alone, using only whether each count is zero;
  stage 2  grid_search_logistic: refine-and-shrink grid maximization of
           the full likelihood over (alpha, beta[, eta]) with the lead
           time frozen;
  stage 3  profile_iterate: alternate stage-2 sweeps with grid sweeps
           over (lambda, gamma) until the requested number of rounds.

Grid stages and the Nelder-Mead polish evaluate the likelihood with one
kernel, _mesh_loglik: a fixed composite Gauss-Legendre mesh in u (one
mesh per observation time, reused for every parameter combination),
evaluated over a whole batch of parameter points with every count of an
observation time in the same array passes.  A full (alpha, beta) grid
is then a few hundred cache-sized blocks of array passes instead of
thousands of adaptive integrations.  Every refinement keeps the
incumbent in its candidate set, so the reported likelihood trace is
nondecreasing by construction; the final quoted log-likelihood is
recomputed with the adaptive rule.

The logistic families (plain, extended, random effects) are smooth
low-dimensional problems and go through Nelder-Mead from a coarse grid
start, in transformed coordinates that keep them inside their domains.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from .core import CountDataset, FitResult, ModelKind, ReParams, SsbParams
from .errors import (DomainError, InsufficientTimes, MissingBaseline,
                     NoFiniteMle, NonMonotoneProfile, SingularInformation)
from .likelihood import (_log_binom_coef, _log_failure, _log_success,
                         frozen_dataset_loglik, lrm_loglik, re_loglik,
                         ssb_dataset_loglik)
from .quadrature import DEFAULT_QUAD, QuadConfig, fixed_u_panels

log = logging.getLogger(__name__)

__all__ = [
    "GridAxis",
    "GridSpec",
    "GridRefineResult",
    "FitConfig",
    "grid_refine_max",
    "default_logistic_grid",
    "initial_weibull_estimate",
    "current_status_loglik",
    "grid_search_logistic",
    "profile_iterate",
    "fit_model",
    "observed_information",
    "std_errors_from_information",
    "bic_delta",
    "MODEL_ORDER",
]

MODEL_ORDER = (ModelKind.LRM, ModelKind.LRM_PLUS, ModelKind.LRM_RE,
               ModelKind.SSB, ModelKind.SSB_PLUS)

# global caps for the walking (lambda, gamma) profile boxes, as factors
# of the observation times
_LAM_LO_FACTOR = 0.05
_LAM_HI_FACTOR = 10.0
_GAMMA_LO = 0.05
_GAMMA_HI = 20.0
_MAX_WALKS = 8

# tanh saturates to exactly +-1.0 in doubles once |x| exceeds ~19, which
# would step outside rho's open interval; cap the reported correlation
# this far inside instead (the likelihood is flat at that resolution)
_RHO_CAP = 1.0 - 1e-9


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridAxis:
    """One parameter axis of a search grid.  A pinned axis (lo == hi,
    n_points == 1) holds a parameter fixed; otherwise lo < hi and at
    least three points are required so refinement has an interior."""

    name: str
    lo: float
    hi: float
    n_points: int
    log: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"axis {self.name}: bounds must be finite")
        pinned = self.lo == self.hi and self.n_points == 1
        if not pinned and not (self.lo < self.hi and self.n_points >= 3):
            raise DomainError(
                f"axis {self.name}: need lo < hi with n_points >= 3, or a "
                f"pinned single-point axis (lo == hi, n_points == 1)")
        if self.log and not self.lo > 0:
            raise DomainError(f"axis {self.name}: log axis needs lo > 0")

    @property
    def pinned(self) -> bool:
        return self.lo == self.hi

    def values(self) -> np.ndarray:
        if self.pinned:
            return np.array([self.lo])
        if self.log:
            return np.geomspace(self.lo, self.hi, self.n_points)
        return np.linspace(self.lo, self.hi, self.n_points)


@dataclass(frozen=True)
class GridSpec:
    """A refine-and-shrink search: scan the axes, then refine_levels
    times shrink each free axis about the incumbent by `shrink` and
    rescan (boxes are shifted to stay inside the original bounds)."""

    axes: tuple[GridAxis, ...]
    refine_levels: int = 3
    shrink: float = 0.2

    def __post_init__(self):
        if not self.axes:
            raise DomainError("grid needs at least one axis")
        if int(self.refine_levels) < 0:
            raise DomainError("refine_levels must be >= 0")
        if not (0.0 < self.shrink < 1.0):
            raise DomainError("shrink must lie in (0, 1)")


@dataclass
class GridRefineResult:
    point: tuple[float, ...]
    value: float
    on_boundary: bool
    levels: list[dict] = field(default_factory=list)

    def named(self, axes: Sequence[GridAxis]) -> dict[str, float]:
        return {ax.name: x for ax, x in zip(axes, self.point)}


def _shrunk_axis(ax0: GridAxis, center: float, width_factor: float) -> GridAxis:
    if ax0.pinned:
        return ax0
    if ax0.log:
        lo0, hi0 = math.log(ax0.lo), math.log(ax0.hi)
        c = math.log(center)
    else:
        lo0, hi0 = ax0.lo, ax0.hi
        c = center
    w = (hi0 - lo0) * width_factor
    lo, hi = c - 0.5 * w, c + 0.5 * w
    if lo < lo0:
        lo, hi = lo0, lo0 + w
    elif hi > hi0:
        lo, hi = hi0 - w, hi0
    if ax0.log:
        lo, hi = math.exp(lo), math.exp(hi)
    return GridAxis(ax0.name, lo, hi, ax0.n_points, ax0.log)


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-9 * (abs(x) + abs(y) + 1e-12)


def grid_refine_max(f: Callable[..., np.ndarray], spec: GridSpec,
                    incumbent: Optional[tuple[tuple[float, ...], float]] = None
                    ) -> GridRefineResult:
    """Maximize f over the grid with shrinking refinement.

    f takes one 1-D array per axis and returns the objective on their
    cartesian product, shape (n_1, ..., n_d) in axis order.  Ties go to
    the first point in C scan order (earlier axes more significant,
    values ascending).  An optional incumbent (point, value) joins the
    candidate set: a grid point replaces it only when strictly better,
    so the returned value never decreases below the incumbent's.
    """
    axes = list(spec.axes)
    inc_pt: Optional[tuple[float, ...]] = None
    inc_val = -math.inf
    if incumbent is not None:
        inc_pt, inc_val = tuple(map(float, incumbent[0])), float(incumbent[1])
    levels: list[dict] = []
    for level in range(spec.refine_levels + 1):
        vals = [ax.values() for ax in axes]
        arr = np.asarray(f(*vals), dtype=float)
        if arr.shape != tuple(len(v) for v in vals):
            raise DomainError(
                f"objective returned shape {arr.shape}, expected "
                f"{tuple(len(v) for v in vals)}")
        idx = np.unravel_index(int(np.argmax(arr)), arr.shape)
        cand_val = float(arr[idx])
        cand_pt = tuple(float(v[i]) for v, i in zip(vals, idx))
        if cand_val > inc_val:
            inc_pt, inc_val = cand_pt, cand_val
        levels.append({"level": level, "scan_max": cand_val,
                       "point": list(inc_pt), "value": inc_val})
        if level < spec.refine_levels:
            factor = spec.shrink ** (level + 1)
            axes = [_shrunk_axis(ax0, c, factor)
                    for ax0, c in zip(spec.axes, inc_pt)]
    on_boundary = any(
        not ax.pinned and (_near(x, ax.lo) or _near(x, ax.hi))
        for ax, x in zip(spec.axes, inc_pt))
    return GridRefineResult(point=inc_pt, value=inc_val,
                            on_boundary=on_boundary, levels=levels)


# ---------------------------------------------------------------------------
# fixed-mesh likelihood tables


class _DatasetTables:
    """Per-time quadrature nodes and collapsed count multiplicities,
    shared by every grid sweep over one dataset."""

    def __init__(self, data: CountDataset, spacing: float = 0.5):
        self.mass = data.mass
        self.n_obs = data.n_obs
        self.entries = []
        for t, ks, mult in data.grouped():
            u, w = fixed_u_panels(t, spacing)
            ks = ks.astype(float)
            self.entries.append({
                "t": float(t),
                "u": u,
                "logw": np.log(w),
                "ks": ks,
                "mult": mult.astype(float),
                "logc": np.array([_log_binom_coef(self.mass, int(k))
                                  for k in ks]),
            })


# exp() of anything below this adds under 1e-300 to a sum whose largest
# term is 1, so raising smaller arguments to it changes no log-sum-exp;
# below about -708 numpy's exp leaves its vector path and costs ten
# times as much per element, and a third of the terms of a first-level
# logistic sweep lie down there
_EXP_FLOOR = -700.0

# elements per (points x counts x nodes) block in _mesh_loglik: 512 KB
# of doubles, so a block and its temporaries stay near cache size
_BLOCK = 1 << 16


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log(expit(z)) as min(z, 0) - log1p(exp(-|z|)).  Within 1e-15
    relative of scipy's log_expit, which runs a scalar loop that costs
    several times more per element on sweep-sized arrays."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    return np.subtract(np.minimum(z, 0.0), e, out=e)


def _logsumexp_last(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) along the last axis, overwriting x.  Terms more
    than 700 nats (-_EXP_FLOOR) below their row's maximum are raised to
    that floor before exp; an all -inf row gives -inf."""
    m = x.max(axis=-1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    x -= shift[..., None]
    np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    return np.where(finite, np.log(x.sum(axis=-1)) + shift, m)


def _mesh_loglik(tables: _DatasetTables, alpha, beta, lam, gamma,
                 etas) -> np.ndarray:
    """Fixed-mesh dataset log-likelihood over a batch of parameter points.

    alpha, beta, lam and gamma broadcast together to the batch shape S;
    the result has shape S + (len(etas),).  Each observation time
    computes z = alpha + beta (t - u) and its log-sigmoid once and loops
    over eta inside; all counts of the time then share each array pass,
    taken over blocks of (points x counts x nodes) of at most _BLOCK
    elements (or one node row, if that is longer).  This one kernel
    serves the logistic sweep, the lead-time sweep and the single-point
    polish, so their values are directly comparable across stages.
    """
    alpha, beta, lam, gamma = (np.asarray(v, dtype=float)[..., None]
                               for v in (alpha, beta, lam, gamma))
    etas = np.asarray(etas, dtype=float).ravel()
    shape = np.broadcast_shapes(alpha.shape, beta.shape, lam.shape,
                                gamma.shape)[:-1]
    n_points = math.prod(shape)

    def rows(x):
        # one row per parameter point, without copying a broadcast axis
        if x.shape[:-1] != shape:
            x = np.broadcast_to(x, shape + x.shape[-1:])
        return x.reshape(n_points, -1)

    out = np.zeros((n_points, etas.size))
    mass = tables.mass
    log_scale = np.log(gamma) - np.log(lam)
    for e in tables.entries:
        t, u = e["t"], e["u"]
        ks, mult, logc = e["ks"], e["mult"], e["logc"]
        zero = ks == 0
        r = u / lam
        logfu = (log_scale + (gamma - 1.0) * np.log(r) - r ** gamma
                 + e["logw"])
        log_sf = rows(-(t / lam) ** gamma)
        z = alpha + beta * (t - u)
        ls1 = _log_sigmoid(z)
        n_k = min(ks.size, max(1, _BLOCK // u.size))
        n_p = max(1, _BLOCK // (n_k * u.size))
        for i, eta in enumerate(etas):
            if eta == 0.0:
                # nothing can succeed: a positive count has probability
                # 0 and a zero count probability 1
                if not zero.all():
                    out[:, i] = -np.inf
                continue
            # k successes weigh mass * log(1 - p) + k * logit(p)
            if eta >= 1.0:
                lf, lodds = ls1 - z, z
            else:
                lf = np.log1p(-eta * np.exp(ls1))
                lodds = ls1 + math.log(eta) - lf
            base = rows(logfu + mass * lf)[:, None, :]
            lodds = rows(lodds)[:, None, :]
            for p in range(0, n_points, n_p):
                pts = slice(p, p + n_p)
                for c in range(0, ks.size, n_k):
                    cts = slice(c, c + n_k)
                    lg = ks[cts, None] * lodds[pts]
                    lg += base[pts]
                    li = _logsumexp_last(lg)
                    ll = np.where(zero[cts], np.logaddexp(log_sf[pts], li),
                                  logc[cts] + li)
                    out[pts, i] += ll @ mult[cts]
    return out.reshape(shape + (etas.size,))


# ---------------------------------------------------------------------------
# stage 1: current-status fit of the lead time


def current_status_loglik(data: CountDataset, lams, gammas) -> np.ndarray:
    """Log-likelihood of the zero/nonzero pattern under the lead-time
    CDF alone: a zero count at t contributes log S(t), a positive count
    log F(t).  Vectorized over a (lambda, gamma) grid; shape (L, G)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    times, n_zero, n_pos = [], [], []
    for t, ks, mult in data.grouped():
        times.append(t)
        n_zero.append(float(mult[ks == 0].sum()))
        n_pos.append(float(mult[ks > 0].sum()))
    times = np.asarray(times)
    n_zero = np.asarray(n_zero)
    n_pos = np.asarray(n_pos)
    q = (times[None, None, :] / lams[:, None, None]) ** gammas[None, :, None]
    with np.errstate(divide="ignore"):
        log_f = np.log(-np.expm1(-q))
    return (-n_zero * q + n_pos * log_f).sum(axis=2)


def initial_weibull_estimate(data: CountDataset, refine_levels: int = 3,
                             shrink: float = 0.2) -> tuple[float, float]:
    """Starting values for (lambda, gamma) from current-status
    information only.

    Raises NoFiniteMle when every count is zero or none are (the
    step-function likelihood then climbs forever toward a boundary) and
    InsufficientTimes when fewer than two distinct times carry
    observations.
    """
    total_zero = total_pos = 0
    for _, ks, mult in data.grouped():
        total_zero += int(mult[ks == 0].sum())
        total_pos += int(mult[ks > 0].sum())
    if total_zero == 0 or total_pos == 0:
        raise NoFiniteMle(
            "current-status likelihood needs both zero and positive counts")
    if data.n_distinct_times() < 2:
        raise InsufficientTimes(
            "lead-time shape and scale need observations at two or more "
            "distinct times")
    t_obs = [t for t, _, _ in data.grouped()]
    spec = GridSpec(axes=(
        GridAxis("lambda", 0.2 * min(t_obs), 10.0 * max(t_obs), 41, log=True),
        GridAxis("gamma", 0.1, 10.0, 41, log=True),
    ), refine_levels=refine_levels, shrink=shrink)
    res = grid_refine_max(lambda l, g: current_status_loglik(data, l, g), spec)
    return res.point[0], res.point[1]


# ---------------------------------------------------------------------------
# stage 2: logistic grid search at fixed lead time


def default_logistic_grid(model: ModelKind) -> GridSpec:
    axes = [GridAxis("alpha", -10.0, 0.0, 21),
            GridAxis("beta", 0.01, 2.0, 21)]
    if ModelKind(model) in (ModelKind.SSB_PLUS, ModelKind.LRM_PLUS):
        axes.append(GridAxis("eta", 0.5, 1.0, 11))
    return GridSpec(axes=tuple(axes))


def grid_search_logistic(data: CountDataset, lam: float, gamma: float,
                         model: ModelKind = ModelKind.SSB,
                         grid: Optional[GridSpec] = None,
                         tables: Optional[_DatasetTables] = None,
                         incumbent: Optional[tuple[tuple, float]] = None
                         ) -> GridRefineResult:
    """Maximize the full likelihood over (alpha, beta) -- and eta for
    the extended model -- with (lambda, gamma) held fixed.  The result's
    on_boundary flag reports an incumbent pinned to the original box."""
    model = ModelKind(model)
    if model not in (ModelKind.SSB, ModelKind.SSB_PLUS):
        raise DomainError("grid_search_logistic fits the shared-lead-time "
                          "models; use fit_model for the logistic families")
    tab = tables if tables is not None else _DatasetTables(data)
    spec = grid or default_logistic_grid(model)
    with_eta = len(spec.axes) == 3

    def f(alphas, betas, etas=(1.0,)):
        out = _mesh_loglik(tab, alphas[:, None], betas[None, :], lam, gamma,
                           etas)
        return out if with_eta else out[:, :, 0]

    return grid_refine_max(f, spec, incumbent=incumbent)


# ---------------------------------------------------------------------------
# stage 3: alternating profile


@dataclass
class FitConfig:
    """Knobs shared by all fitting paths.

    engine_spacing is the panel width of the fixed u-mesh that the
    fixed-mesh kernel (_mesh_loglik) uses for every grid sweep and for
    the Nelder-Mead polish; the search only needs ranking accuracy, and
    the final adaptive evaluation restores full precision afterwards.
    """

    quad: QuadConfig = DEFAULT_QUAD
    logistic_grid: Optional[GridSpec] = None
    n_outer: int = 2
    engine_spacing: float = 1.0
    compute_se: bool = True
    nm_maxiter: int = 2000
    polish: bool = True
    re_free_eta: bool = False


def _lead_time_box(lam: float, gamma: float, t_min: float,
                   t_max: float) -> GridSpec:
    lam_lo_cap = _LAM_LO_FACTOR * t_min
    lam_hi_cap = _LAM_HI_FACTOR * t_max
    lam = min(max(lam, lam_lo_cap), lam_hi_cap)
    gamma = min(max(gamma, _GAMMA_LO), _GAMMA_HI)
    return GridSpec(axes=(
        GridAxis("lambda", max(lam / 3.0, lam_lo_cap),
                 min(lam * 3.0, lam_hi_cap), 15, log=True),
        GridAxis("gamma", max(gamma / 3.0, _GAMMA_LO),
                 min(gamma * 3.0, _GAMMA_HI), 15, log=True),
    ))


def _lead_time_stage(tables: _DatasetTables, data: CountDataset,
                     alpha: float, beta: float, eta: float,
                     lam: float, gamma: float, value: float,
                     trace: list) -> tuple[float, float, float]:
    """One profile sweep over (lambda, gamma), re-centering the search
    box when the maximum lands on its edge (up to _MAX_WALKS times) so a
    distant lead-time optimum can still be reached from a poor start."""
    t_obs = [e["t"] for e in tables.entries]
    t_min, t_max = min(t_obs), max(t_obs)

    def f(lams, gammas):
        return _mesh_loglik(tables, alpha, beta, lams[:, None],
                            gammas[None, :], (eta,))[:, :, 0]

    for walk in range(_MAX_WALKS):
        spec = _lead_time_box(lam, gamma, t_min, t_max)
        res = grid_refine_max(f, spec, incumbent=((lam, gamma), value))
        new_lam, new_gamma = res.point
        moved = not (_near(new_lam, lam) and _near(new_gamma, gamma))
        lam, gamma, value = new_lam, new_gamma, res.value
        trace.append({"stage": "lead_time", "walk": walk, "value": value,
                      "lambda": lam, "gamma": gamma})
        at_cap = (_near(lam, _LAM_LO_FACTOR * t_min)
                  or _near(lam, _LAM_HI_FACTOR * t_max)
                  or _near(gamma, _GAMMA_LO) or _near(gamma, _GAMMA_HI))
        if not res.on_boundary or at_cap or not moved:
            break
    return lam, gamma, value


def profile_iterate(data: CountDataset, lam0: float, gamma0: float,
                    model: ModelKind = ModelKind.SSB, n_outer: int = 2,
                    logistic_grid: Optional[GridSpec] = None,
                    config: Optional[FitConfig] = None) -> FitResult:
    """Alternating profile maximization for the shared-lead-time models.

    Starts with a logistic grid search at (lam0, gamma0), then runs
    n_outer rounds of [lead-time sweep, logistic sweep]; n_outer = 0
    returns the stage-1/stage-2 composite untouched.  Every sweep keeps
    the previous point in its candidate set, so the internal trace is
    nondecreasing; a decrease beyond 1e-6 raises NonMonotoneProfile.
    The quoted loglik is recomputed with adaptive quadrature at the end.
    """
    model = ModelKind(model)
    cfg = config or FitConfig()
    tables = _DatasetTables(data, cfg.engine_spacing)
    grid = logistic_grid or cfg.logistic_grid or default_logistic_grid(model)
    with_eta = len(grid.axes) == 3

    trace: list[dict] = []
    lres = grid_search_logistic(data, lam0, gamma0, model, grid=grid,
                                tables=tables)
    alpha, beta = lres.point[0], lres.point[1]
    eta = lres.point[2] if with_eta else 1.0
    value = lres.value
    lam, gamma = float(lam0), float(gamma0)
    on_box = lres.on_boundary
    trace.append({"stage": "logistic", "round": 0, "value": value,
                  "alpha": alpha, "beta": beta, "eta": eta})

    prev = value
    for r in range(int(n_outer)):
        lam, gamma, value = _lead_time_stage(
            tables, data, alpha, beta, eta, lam, gamma, value, trace)
        if value < prev - 1e-6:
            raise NonMonotoneProfile(
                f"profile decreased from {prev} to {value}")
        prev = value
        inc = ((alpha, beta, eta) if with_eta else (alpha, beta), value)
        lres = grid_search_logistic(data, lam, gamma, model, grid=grid,
                                    tables=tables, incumbent=inc)
        alpha, beta = lres.point[0], lres.point[1]
        eta = lres.point[2] if with_eta else 1.0
        value = lres.value
        on_box = lres.on_boundary
        trace.append({"stage": "logistic", "round": r + 1, "value": value,
                      "alpha": alpha, "beta": beta, "eta": eta})
        if value < prev - 1e-6:
            raise NonMonotoneProfile(
                f"profile decreased from {prev} to {value}")
        prev = value

    if cfg.polish:
        t_obs = [e["t"] for e in tables.entries]
        lam_lo = _LAM_LO_FACTOR * min(t_obs)
        lam_hi = _LAM_HI_FACTOR * max(t_obs)
        free_eta = with_eta and eta < 1.0 - 1e-9

        def unpack(x):
            et = float(expit(x[4])) if free_eta else (eta if with_eta else 1.0)
            return (float(x[0]), float(np.exp(x[1])), float(np.exp(x[2])),
                    float(np.exp(x[3])), et)

        def nll(x):
            a, b, la, ga, et = unpack(x)
            if not (lam_lo <= la <= lam_hi and _GAMMA_LO <= ga <= _GAMMA_HI):
                return np.inf
            return -float(_mesh_loglik(tables, a, b, la, ga, (et,))[0])

        x0 = [alpha, math.log(beta), math.log(lam), math.log(gamma)]
        if free_eta:
            x0.append(float(logit(eta)))
        res = _nelder_mead(nll, np.asarray(x0), cfg.nm_maxiter)
        cand = -float(res.fun)
        if math.isfinite(cand) and cand > value:
            alpha, beta, lam, gamma, eta = unpack(res.x)
            value = cand
            on_box = not bool(res.success)
        trace.append({"stage": "polish", "value": value})
        if value < prev - 1e-6:
            raise NonMonotoneProfile(
                f"profile decreased from {prev} to {value}")

    params = SsbParams(alpha=alpha, beta=beta, lam=lam, gamma=gamma,
                       eta=eta if with_eta else 1.0)
    final_ll = ssb_dataset_loglik(params, data, cfg.quad)
    trace.append({"stage": "final", "value": final_ll})
    estimates = {"alpha": alpha, "beta": beta, "lambda": lam, "gamma": gamma}
    if model is ModelKind.SSB_PLUS:
        estimates["eta"] = eta
    return FitResult(model=model, estimates=estimates, loglik=final_ll,
                     n_params=model.n_params, converged=not on_box,
                     trace=trace)


# ---------------------------------------------------------------------------
# observed information and standard errors


def observed_information(loglik: Callable[[np.ndarray], float],
                         theta: np.ndarray,
                         steps: Optional[np.ndarray] = None) -> np.ndarray:
    """Negative Hessian of loglik at theta by central second differences
    with per-coordinate steps h_j = eps**(1/4) * (1 + |theta_j|),
    symmetrized.  The quarter power is the balance point for second
    differences, whose roundoff grows like eps / h**2; the cube-root
    step that suits first derivatives loses two digits here.  Pass a
    smooth loglik: for the shared-lead-time models use
    frozen_dataset_loglik so quadrature panels do not re-adapt between
    evaluations.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    if steps is None:
        h = np.finfo(float).eps ** 0.25 * (1.0 + np.abs(theta))
    else:
        h = np.asarray(steps, dtype=float)
    f0 = float(loglik(theta))
    hess = np.empty((d, d))
    for i in range(d):
        xp = theta.copy(); xp[i] += h[i]
        xm = theta.copy(); xm[i] -= h[i]
        hess[i, i] = (float(loglik(xp)) + float(loglik(xm)) - 2.0 * f0) / h[i] ** 2
    for i in range(d):
        for j in range(i + 1, d):
            xpp = theta.copy(); xpp[i] += h[i]; xpp[j] += h[j]
            xpm = theta.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
            xmp = theta.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
            xmm = theta.copy(); xmm[i] -= h[i]; xmm[j] -= h[j]
            hij = (float(loglik(xpp)) - float(loglik(xpm))
                   - float(loglik(xmp)) + float(loglik(xmm))) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = hij
    return -0.5 * (hess + hess.T)


def std_errors_from_information(info: np.ndarray) -> np.ndarray:
    """sqrt of the diagonal of info^{-1}; raises SingularInformation when
    the matrix cannot be inverted or yields nonpositive variances."""
    info = np.asarray(info, dtype=float)
    if not np.all(np.isfinite(info)):
        raise SingularInformation("information matrix has non-finite entries")
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SingularInformation("information matrix is singular") from None
    d = np.diag(cov)
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise SingularInformation("inverse information has nonpositive "
                                  "diagonal entries")
    return np.sqrt(d)


# ---------------------------------------------------------------------------
# model-specific fitting paths


def _nelder_mead(obj, x0: np.ndarray, maxiter: int):
    res = minimize(obj, np.asarray(x0, dtype=float), method="Nelder-Mead",
                   options={"maxiter": int(maxiter), "xatol": 1e-6,
                            "fatol": 1e-9})
    return res


def _lrm_grid_scan(data: CountDataset, etas: np.ndarray) -> tuple:
    """Coarse closed-form scan for logistic starts; returns the best
    (alpha, beta, eta)."""
    alphas = np.linspace(-15.0, 5.0, 41)
    betas = np.geomspace(1e-3, 5.0, 41)
    mass = data.mass
    best = (-math.inf, None)
    z_parts = [(t, ks, mult,
                alphas[:, None] + betas[None, :] * t) for t, ks, mult in data.grouped()]
    for eta in etas:
        acc = np.zeros((41, 41))
        for t, ks, mult, z in z_parts:
            ls = _log_success(z, eta)
            lf = _log_failure(z, eta)
            for k, m in zip(ks, mult):
                k = int(k)
                term = (mass - k) * lf + _log_binom_coef(mass, k)
                if k > 0:
                    term = term + k * ls
                acc += m * term
        idx = np.unravel_index(int(np.argmax(acc)), acc.shape)
        if float(acc[idx]) > best[0]:
            best = (float(acc[idx]),
                    (float(alphas[idx[0]]), float(betas[idx[1]]), float(eta)))
    return best[1]


def _fit_lrm(data: CountDataset, cfg: FitConfig,
             free_eta: bool) -> FitResult:
    model = ModelKind.LRM_PLUS if free_eta else ModelKind.LRM
    etas = np.linspace(0.5, 1.0, 6) if free_eta else np.array([1.0])
    a0, b0, e0 = _lrm_grid_scan(data, etas)

    if free_eta:
        def obj(x):
            return -lrm_loglik(x[0], math.exp(x[1]), data, expit(x[2]))
        e0 = min(max(e0, 1e-3), 1.0 - 1e-3)
        starts = [np.array([a0, math.log(b0), logit(e0)]),
                  np.array([a0, math.log(b0), logit(0.98)])]
    else:
        def obj(x):
            return -lrm_loglik(x[0], math.exp(x[1]), data)
        starts = [np.array([a0, math.log(b0)])]

    best = None
    for x0 in starts:
        r = _nelder_mead(obj, x0, cfg.nm_maxiter)
        if best is None or r.fun < best.fun:
            best = r
    ok = bool(best.success)
    alpha, beta = float(best.x[0]), float(math.exp(best.x[1]))
    eta = float(expit(best.x[2])) if free_eta else 1.0
    ll = -float(best.fun)
    boundary_eta = False
    if free_eta:
        # the extended model contains eta = 1; take the boundary fit when
        # it does at least as well, reporting eta as a boundary estimate
        base = _fit_lrm(data, replace(cfg, compute_se=False), False)
        if base.loglik >= ll or eta > 1.0 - 1e-6:
            alpha, beta = base.estimates["alpha"], base.estimates["beta"]
            ll = max(ll, base.loglik)
            eta = 1.0
            boundary_eta = True
            ok = ok and base.converged

    estimates = {"alpha": alpha, "beta": beta}
    if free_eta:
        estimates["eta"] = eta
    result = FitResult(model=model, estimates=estimates, loglik=ll,
                       n_params=model.n_params, converged=ok,
                       trace=[{"stage": "simplex", "value": ll,
                               "boundary_eta": boundary_eta}])
    if cfg.compute_se:
        _attach_se_lrm(result, data, boundary_eta)
    return result


def _attach_se_lrm(result: FitResult, data: CountDataset,
                   boundary_eta: bool) -> None:
    est = result.estimates
    names = ["alpha", "beta"]
    free_eta = "eta" in est and not boundary_eta
    if free_eta:
        names.append("eta")

    def ll(th):
        try:
            return lrm_loglik(th[0], th[1], data,
                              th[2] if free_eta else est.get("eta", 1.0))
        except DomainError:
            return -np.inf

    theta = np.array([est[n] for n in names])
    steps = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(theta))
    steps[1] = min(steps[1], 0.25 * est["beta"])
    if free_eta:
        steps[2] = min(steps[2], 0.25 * min(est["eta"], 1.0 - est["eta"]))
    info = observed_information(ll, theta, steps)
    result.info = info
    try:
        se = std_errors_from_information(info)
        result.std_errors = dict(zip(names, se.tolist()))
    except SingularInformation:
        log.warning("standard errors unavailable: singular information")
        result.std_errors = None
        return
    if "eta" in est and boundary_eta:
        result.std_errors["eta"] = None


def _fit_re(data: CountDataset, cfg: FitConfig) -> FitResult:
    free_eta = cfg.re_free_eta
    lrm = _fit_lrm(data, replace(cfg, compute_se=False), False)
    a0, b0 = lrm.estimates["alpha"], lrm.estimates["beta"]

    def unpack(x) -> ReParams:
        eta = float(expit(x[5])) if free_eta else 1.0
        rho = min(_RHO_CAP, max(-_RHO_CAP, float(np.tanh(x[2]))))
        return ReParams(mu1=float(x[0]), mu2=float(x[1]), rho=rho,
                        sigma1=float(math.exp(x[3])),
                        sigma2=float(math.exp(x[4])), eta=eta)

    def obj(x):
        return -re_loglik(unpack(x), data, cfg.quad)

    starts = []
    for s1 in (0.5, 2.0):
        for s2frac in (0.1, 0.5):
            x = [a0, b0, 0.0, math.log(s1), math.log(max(s2frac * b0, 1e-4))]
            if free_eta:
                x.append(logit(0.95))
            starts.append(np.array(x))

    best = None
    for x0 in starts:
        r = _nelder_mead(obj, x0, cfg.nm_maxiter)
        if best is None or r.fun < best.fun:
            best = r
    ok = bool(best.success)
    params = unpack(best.x)
    ll = -float(best.fun)
    names = ["mu1", "mu2", "rho", "sigma1", "sigma2"]
    estimates = {"mu1": params.mu1, "mu2": params.mu2, "rho": params.rho,
                 "sigma1": params.sigma1, "sigma2": params.sigma2}
    n_params = 5
    if free_eta:
        estimates["eta"] = params.eta
        names.append("eta")
        n_params = 6
    result = FitResult(model=ModelKind.LRM_RE, estimates=estimates,
                       loglik=ll, n_params=n_params, converged=ok,
                       trace=[{"stage": "simplex", "value": ll,
                               "n_starts": len(starts)}])
    if cfg.compute_se:
        def nat_ll(th):
            try:
                p = ReParams(mu1=th[0], mu2=th[1], rho=th[2], sigma1=th[3],
                             sigma2=th[4],
                             eta=th[5] if free_eta else 1.0)
            except DomainError:
                return -np.inf
            return re_loglik(p, data, cfg.quad)

        theta = np.array([estimates[n] for n in names])
        steps = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(theta))
        steps[2] = min(steps[2], 0.25 * (1.0 - abs(params.rho)))
        steps[3] = min(steps[3], 0.25 * params.sigma1)
        steps[4] = min(steps[4], 0.25 * params.sigma2)
        if free_eta:
            steps[5] = min(steps[5],
                           0.25 * min(params.eta, 1.0 - params.eta) + 1e-12)
        info = observed_information(nat_ll, theta, steps)
        result.info = info
        try:
            se = std_errors_from_information(info)
            result.std_errors = dict(zip(names, se.tolist()))
        except SingularInformation:
            log.warning("standard errors unavailable: singular information")
            result.std_errors = None
    return result


def _attach_se_ssb(result: FitResult, data: CountDataset,
                   cfg: FitConfig) -> None:
    est = result.estimates
    eta = est.get("eta", 1.0)
    boundary_eta = "eta" in est and (eta >= 1.0 - 1e-9 or eta <= 1e-9)
    free_eta = "eta" in est and not boundary_eta
    params = SsbParams(alpha=est["alpha"], beta=est["beta"],
                       lam=est["lambda"], gamma=est["gamma"], eta=eta)
    names = ["alpha", "beta", "lambda", "gamma"] + (["eta"] if free_eta else [])
    ll = frozen_dataset_loglik(params, data, cfg.quad, free_eta=free_eta)
    theta = np.array([est[n] for n in names])
    steps = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(theta))
    steps[1] = min(steps[1], 0.25 * est["beta"])
    steps[2] = min(steps[2], 0.25 * est["lambda"])
    steps[3] = min(steps[3], 0.25 * est["gamma"])
    if free_eta:
        steps[4] = min(steps[4], 0.25 * min(eta, 1.0 - eta) + 1e-12)
    info = observed_information(ll, theta, steps)
    result.info = info
    try:
        se = std_errors_from_information(info)
        result.std_errors = dict(zip(names, se.tolist()))
    except SingularInformation:
        log.warning("standard errors unavailable: singular information")
        result.std_errors = None
        return
    if "eta" in est and boundary_eta:
        result.std_errors["eta"] = None


def fit_model(data: CountDataset, model: ModelKind,
              config: Optional[FitConfig] = None) -> FitResult:
    """Fit one of the five models to a count dataset and return its
    FitResult (estimates in natural units, adaptive-quadrature loglik,
    observed information and standard errors unless disabled)."""
    model = ModelKind(model)
    cfg = config or FitConfig()
    if model is ModelKind.LRM:
        return _fit_lrm(data, cfg, free_eta=False)
    if model is ModelKind.LRM_PLUS:
        return _fit_lrm(data, cfg, free_eta=True)
    if model is ModelKind.LRM_RE:
        return _fit_re(data, cfg)

    lam0, gamma0 = initial_weibull_estimate(data)
    if model is ModelKind.SSB:
        result = profile_iterate(data, lam0, gamma0, ModelKind.SSB,
                                 n_outer=cfg.n_outer, config=cfg)
    else:
        free = profile_iterate(data, lam0, gamma0, ModelKind.SSB_PLUS,
                               n_outer=cfg.n_outer, config=cfg)
        restricted = profile_iterate(data, lam0, gamma0, ModelKind.SSB,
                                     n_outer=cfg.n_outer, config=cfg)
        # the extended model nests eta = 1: never report a free fit that
        # the boundary beats
        if restricted.loglik >= free.loglik:
            estimates = dict(restricted.estimates)
            estimates["eta"] = 1.0
            result = FitResult(model=ModelKind.SSB_PLUS, estimates=estimates,
                               loglik=restricted.loglik,
                               n_params=ModelKind.SSB_PLUS.n_params,
                               converged=restricted.converged,
                               trace=restricted.trace
                               + [{"stage": "boundary_eta", "value":
                                   restricted.loglik}])
        else:
            result = free
    if cfg.compute_se:
        _attach_se_ssb(result, data, cfg)
    return result


# ---------------------------------------------------------------------------
# model comparison


def bic_delta(fits: Sequence[FitResult], n_obs: int) -> list[dict]:
    """BIC differences against the plain logistic baseline:

        delta(m) = -2 (loglik_m - loglik_LRM)
                   + (n_params_m - n_params_LRM) * log(n_obs)

    Lower is better.  Rows come back in canonical model order with the
    baseline's delta exactly 0.  Raises MissingBaseline without an LRM
    fit, and DomainError on duplicate models or n_obs < 1.
    """
    if int(n_obs) < 1:
        raise DomainError("n_obs must be >= 1")
    by_model: dict[ModelKind, FitResult] = {}
    for f in fits:
        if f.model in by_model:
            raise DomainError(f"duplicate fit for model {f.model.value}")
        by_model[f.model] = f
    base = by_model.get(ModelKind.LRM)
    if base is None:
        raise MissingBaseline("BIC comparison needs the plain logistic fit")
    rows = []
    logn = math.log(n_obs)
    for m in MODEL_ORDER:
        if m not in by_model:
            continue
        f = by_model[m]
        delta = (-2.0 * (f.loglik - base.loglik)
                 + (f.n_params - base.n_params) * logn)
        rows.append({"model": m.value, "label": m.label,
                     "n_params": f.n_params, "loglik": f.loglik,
                     "delta_bic": delta})
    return rows
