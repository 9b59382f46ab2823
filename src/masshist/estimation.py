"""Fitting the five count models.

fit_model runs three steps: the model family's search (_search), which
fits that model alone; for LRM+ and SSB+ the one eta = 1 boundary rule
(_nest); then the standard errors (_attach_se).  The models nest (LRM+
and LRM-RE contain LRM, SSB+ contains SSB), and a nested model takes
its submodel's fit instead of refitting it; fit_models walks
MODEL_ORDER so that each fit is made once and handed down.

The SSB search runs in two grid stages and a polish:

  stage 1  initial_weibull_estimate: a current-status fit of the lead
           time alone, using only whether each count is zero;
  stage 2  grid_search_logistic: one 21 x 21 (alpha, beta) scan with
           the lead time frozen at the stage-1 values;
  polish   profile_iterate: L-BFGS-B over all four parameters at
           once, started from the stage-2 point, with the exact
           score of the fixed-mesh likelihood.

SSB+ is SSB plus a responsive fraction eta, and its search starts from
the SSB fit: the same polish over all five parameters, once from each
eta in _ETA_STARTS (_polish_eta).  fit_models hands SSB+ the SSB fit,
so stages 1 and 2 run once for both models.

A zero count nearly pins down "the lead time has not elapsed yet", so
stage 1 lands (lambda, gamma) close to the joint optimum and the polish
reaches it from there; on 33 simulated and real datasets, refining the
SSB scan three times before the polish moved no fit by more than
1.3e-7 nats.  The grid stage and the polishes evaluate the likelihood
with one kernel, _mesh_loglik: a fixed composite Gauss-Legendre mesh in
u (one mesh per observation time, reused for every parameter
combination) laid against the dataset's cell table (CountDataset.cells),
so that one block of array passes covers every (t, k) cell of the
dataset for a block of parameter points.  A full (alpha, beta) grid is
then a few dozen cache-sized blocks, and a polish step a few dozen numpy
calls, instead of thousands of adaptive integrations; the same pass
gives a single point's score.  A polish replaces
its start point (the grid point, or for SSB+ the SSB fit at eta = 1)
only when it beats that point as the polish itself evaluates it, so the
likelihood trace is nondecreasing; the final quoted log-likelihood is
recomputed with the adaptive rule.

The logistic families (plain, extended, random effects) are smooth
low-dimensional problems and go through Nelder-Mead (_simplex) from a
coarse grid start, in transformed coordinates that keep them inside
their domains; each of their objectives is one array pass over the cell
table (lrm_loglik, re_loglik).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from .core import (CountDataset, FitResult, ModelKind, ReParams, SsbParams,
                   validate_params)
from .errors import (DomainError, InsufficientTimes, MissingBaseline,
                     NoFiniteMle, SingularInformation)
from .likelihood import (_lrm_cells, frozen_dataset_loglik, lrm_loglik,
                         re_loglik, ssb_dataset_loglik)
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
    "fit_models",
    "observed_information",
    "std_errors_from_information",
    "bic_delta",
    "MODEL_ORDER",
]

MODEL_ORDER = (ModelKind.LRM, ModelKind.LRM_PLUS, ModelKind.LRM_RE,
               ModelKind.SSB, ModelKind.SSB_PLUS)

# bounds on (lambda, gamma) in the polish; lambda's as factors of the
# observation times
_LAM_LO_FACTOR = 0.05
_LAM_HI_FACTOR = 10.0
_GAMMA_LO = 0.05
_GAMMA_HI = 20.0

# the eta starts of the SSB+ polish, whose likelihood can have two
# basins in eta: on the shipped counts a start at 0.95 ends at a
# fixed-mesh -469.67724 (eta 0.935), one at 0.99 or 0.9 to 0.6 at
# -467.82188 (eta 0.905)
_ETA_STARTS = (0.95, 0.8, 0.65)

# the SSB+ polish's upper bound on eta, just above the 1 - 1e-6 beyond
# which _nest quotes SSB: a start heading for eta = 1 stops here
_ETA_HI = 1.0 - 5e-7

# panel width of the fixed u-mesh behind the grid stage and the polish:
# the search only needs ranking accuracy, and the final adaptive
# evaluation restores full precision afterwards
_ENGINE_SPACING = 1.0

# iteration cap of every Nelder-Mead and L-BFGS-B run
_MAXITER = 2000

# the largest projected score (nats per unit of a polish coordinate) at
# which an SSB or SSB+ polish counts as converged
_SCORE_TOL = 1e-3

# tanh saturates to exactly +-1.0 in doubles once |x| exceeds ~19, which
# would step outside rho's open interval; cap the reported correlation
# this far inside instead (the likelihood is flat at that resolution)
_RHO_CAP = 1.0 - 1e-9


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridAxis:
    """One parameter axis of a search grid: lo < hi, and at least three
    points so that refinement has an interior."""

    name: str
    lo: float
    hi: float
    n_points: int
    log: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"axis {self.name}: bounds must be finite")
        if not (self.lo < self.hi and self.n_points >= 3):
            raise DomainError(
                f"axis {self.name}: need lo < hi with n_points >= 3")
        if self.log and not self.lo > 0:
            raise DomainError(f"axis {self.name}: log axis needs lo > 0")

    def values(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.lo, self.hi, self.n_points)
        return np.linspace(self.lo, self.hi, self.n_points)


# the width of each refined axis, as a factor of the previous level's
_SHRINK = 0.2


@dataclass(frozen=True)
class GridSpec:
    """A refine-and-shrink search: scan the axes, then refine_levels
    times shrink each axis about the best point so far by _SHRINK and
    rescan (boxes are shifted to stay inside the original bounds)."""

    axes: tuple[GridAxis, ...]
    refine_levels: int = 3

    def __post_init__(self):
        if not self.axes:
            raise DomainError("grid needs at least one axis")
        if int(self.refine_levels) < 0:
            raise DomainError("refine_levels must be >= 0")


@dataclass
class GridRefineResult:
    point: tuple[float, ...]
    value: float
    on_boundary: bool
    levels: list[dict] = field(default_factory=list)


def _shrunk_axis(ax0: GridAxis, center: float, width_factor: float) -> GridAxis:
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


def grid_refine_max(f: Callable[..., np.ndarray],
                    spec: GridSpec) -> GridRefineResult:
    """Maximize f over the grid with shrinking refinement.

    f takes one 1-D array per axis and returns the objective on their
    cartesian product, shape (n_1, ..., n_d) in axis order.  Ties go to
    the first point in C scan order (earlier axes more significant,
    values ascending).  A refined scan replaces the best point so far
    only when strictly better, so the value never decreases by level.
    NaN values count as -inf; a first scan with no value above -inf
    raises NoFiniteMle.
    """
    axes = list(spec.axes)
    inc_pt: Optional[tuple[float, ...]] = None
    inc_val = -math.inf
    levels: list[dict] = []
    for level in range(spec.refine_levels + 1):
        vals = [ax.values() for ax in axes]
        arr = np.asarray(f(*vals), dtype=float)
        if arr.shape != tuple(len(v) for v in vals):
            raise DomainError(
                f"objective returned shape {arr.shape}, expected "
                f"{tuple(len(v) for v in vals)}")
        arr = np.where(np.isnan(arr), -math.inf, arr)
        idx = np.unravel_index(int(np.argmax(arr)), arr.shape)
        cand_val = float(arr[idx])
        cand_pt = tuple(float(v[i]) for v, i in zip(vals, idx))
        if cand_val > inc_val:
            inc_pt, inc_val = cand_pt, cand_val
        if inc_pt is None:
            raise NoFiniteMle("objective is -inf or NaN on the whole "
                              "first scan")
        levels.append({"points": arr.size, "scan_max": cand_val,
                       "value": inc_val})
        if level < spec.refine_levels:
            factor = _SHRINK ** (level + 1)
            axes = [_shrunk_axis(ax0, c, factor)
                    for ax0, c in zip(spec.axes, inc_pt)]
    on_boundary = any(_near(x, ax.lo) or _near(x, ax.hi)
                      for ax, x in zip(spec.axes, inc_pt))
    return GridRefineResult(point=inc_pt, value=inc_val,
                            on_boundary=on_boundary, levels=levels)


# ---------------------------------------------------------------------------
# fixed-mesh likelihood tables


class _DatasetTables:
    """The fixed u-mesh behind the grid stage and the polish, laid
    against one dataset's cell table (CountDataset.cells).

    The meshes of all observation times are concatenated into one node
    axis holding u, lag = t - u and the log weight of each node.  Each
    cell pairs with every node of its time.  For a block of n parameter
    points the pairs lie on one flat axis, time by time, each time's
    part an (n x cells x nodes) array; `blocks` holds, per time, its
    node slice, its counts as a column and its pair range per point.
    layout(n) gives, for that axis, where each (time, point, cell) run
    of pairs starts, its length, and which run holds each (point, cell).
    """

    def __init__(self, data: CountDataset):
        cells = data.cells
        self.mass = data.mass
        self.times = cells.times
        meshes = [fixed_u_panels(float(t), _ENGINE_SPACING)
                  for t in cells.times]
        self.u = np.concatenate([u for u, _ in meshes] + [np.zeros(0)])
        self.lag = np.concatenate([t - u for t, (u, _) in
                                   zip(cells.times, meshes)] + [np.zeros(0)])
        self.logw = np.log(np.concatenate([w for _, w in meshes]
                                          + [np.ones(0)]))
        self.n_nodes = np.array([u.size for u, _ in meshes], dtype=np.int64)
        self.n_counts = np.diff(cells.starts)
        node_starts = np.cumsum(self.n_nodes) - self.n_nodes
        pairs = self.n_counts * self.n_nodes
        self.n_pairs = int(pairs.sum())
        k = cells.k.astype(float)
        self.blocks = [(slice(n0, n0 + nn), k[c0:c1, None], p0, p0 + np_)
                       for n0, nn, c0, c1, p0, np_ in zip(
                           node_starts, self.n_nodes, cells.starts[:-1],
                           cells.starts[1:], np.cumsum(pairs) - pairs, pairs)]
        self.n_cells = cells.n_cells
        self.k = k
        self.cell_time = cells.time_index
        self.first_cell = cells.starts[:-1][cells.time_index]
        self.zero = cells.k == 0
        self.logc = cells.logc
        self.mult = cells.mult.astype(float)
        self._layouts: dict[int, tuple] = {}

    def layout(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, run, run_of) for a block of n points: the runs in
        pair-axis order, and run_of[p, c], the run of cell c at point p."""
        if n not in self._layouts:
            run = np.repeat(self.n_nodes, n * self.n_counts)
            first = self.first_cell
            run_of = (n * first + np.arange(n)[:, None]
                      * self.n_counts[self.cell_time]
                      + np.arange(self.n_cells) - first)
            self._layouts[n] = (np.cumsum(run) - run, run, run_of)
        return self._layouts[n]


# exp() of anything below this adds under 1e-300 to a sum whose largest
# term is 1, so raising smaller arguments to it changes no log-sum-exp;
# below about -708 numpy's exp leaves its vector path and costs ten
# times as much per element, and a third of the terms of a first-level
# logistic sweep lie down there
_EXP_FLOOR = -700.0

# elements per (points x pairs) block in _mesh_loglik: 1 MB of doubles,
# so a block and its temporaries stay within a core's L2 cache
_BLOCK = 1 << 17


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log(expit(z)) as min(z, 0) - log1p(exp(-|z|)).  Within 1e-15
    relative of scipy's log_expit, which runs a scalar loop that costs
    several times more per element on sweep-sized arrays."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    return np.subtract(np.minimum(z, 0.0), e, out=e)


def _segment_logsumexp(x: np.ndarray, starts: np.ndarray,
                       run: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over each run of the last axis, overwriting x.
    Run j covers run[j] >= 1 elements from starts[j]; the runs tile the
    axis in order.  Terms more than 700 nats (-_EXP_FLOOR) below their
    run's maximum are raised to that floor before exp; a run of -inf
    gives -inf."""
    m = np.maximum.reduceat(x, starts, axis=-1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    x -= np.repeat(shift, run, axis=-1)
    np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    return np.where(finite,
                    np.log(np.add.reduceat(x, starts, axis=-1)) + shift, m)


def _mesh_loglik(tables: _DatasetTables, alpha, beta, lam, gamma,
                 eta: float, score: bool = False):
    """Fixed-mesh dataset log-likelihood at one responsive fraction eta.

    alpha, beta, lam and gamma broadcast together to the batch shape S,
    the result's shape.  The log lead-time density and survival are
    computed once per (lam, gamma).  The points then go in blocks of at
    most _BLOCK (points x pairs) elements (or one point, if that is
    more): per block, z = alpha + beta (t - u) and its log-sigmoid are
    computed once over all nodes of all times, each time's node terms
    are spread over its (cells x nodes) block of the pair axis, and one
    segmented log-sum-exp gives every cell's integral.  This one kernel
    serves the logistic sweep and the single-point polish.

    With score, for one point, it returns (value, score): the gradient
    in the polish coordinates (alpha, log beta, log lambda, log gamma,
    logit eta), from the same pass.  Normalized, a cell's exponentiated
    node terms are the posterior of the lead time U given its count, so
    each derivative of the cell's integral is the posterior mean of its
    node term's derivative (Louis 1982).  Those are linear in the count
    k with coefficients that depend on the node alone, so one (cells x
    nodes) @ (nodes x 9) product per time gives every cell's means; a
    zero count adds the log-survival atom's share.  The logit eta entry
    is 0 at eta = 1.
    """
    alpha, beta, lam, gamma = (np.asarray(v, dtype=float)[..., None]
                               for v in (alpha, beta, lam, gamma))
    shape = np.broadcast_shapes(alpha.shape, beta.shape, lam.shape,
                                gamma.shape)[:-1]
    n_points = math.prod(shape)
    if score and n_points != 1:
        raise DomainError("the score needs a single parameter point")

    def rows(x):
        # one row per parameter point, without copying a broadcast axis
        if x.shape[:-1] != shape:
            x = np.broadcast_to(x, shape + x.shape[-1:])
        return x.reshape(n_points, -1)

    out = np.zeros(n_points)
    if tables.n_cells == 0 or eta == 0.0:
        # at eta 0 nothing can succeed: a positive count has probability
        # 0 and a zero count probability 1
        if tables.n_cells and not tables.zero.all():
            out[:] = -np.inf
        out = out.reshape(shape)
        return (float(out), np.zeros(5)) if score else out
    mass = tables.mass
    r = tables.u / lam
    log_r, r_g = np.log(r), r ** gamma
    logfu = rows(np.log(gamma) - np.log(lam) + (gamma - 1.0) * log_r
                 - r_g + tables.logw)
    log_sf = rows(-(tables.times / lam) ** gamma)
    alpha, beta = rows(alpha), rows(beta)
    n_p = max(1, _BLOCK // tables.n_pairs)
    for p in range(0, n_points, n_p):
        pts = slice(p, p + n_p)
        z = alpha[pts] + beta[pts] * tables.lag
        ls1 = _log_sigmoid(z)
        # k successes weigh mass * log(1 - p) + k * logit(p)
        if eta >= 1.0:
            lf, lodds = ls1 - z, z
        else:
            lf = np.log1p(-eta * np.exp(ls1))
            lodds = ls1 + math.log(eta) - lf
        base = logfu[pts] + mass * lf
        n = z.shape[0]
        starts, run, run_of = tables.layout(n)
        lg = np.empty(n * tables.n_pairs)
        for nodes, ks, p0, p1 in tables.blocks:
            blk = lg[n * p0:n * p1].reshape(n, ks.size, -1)
            np.multiply(ks, lodds[:, None, nodes], out=blk)
            blk += base[:, None, nodes]
        li = np.take(_segment_logsumexp(lg, starts, run), run_of)
        log_sf_cells = np.take(log_sf[pts], tables.cell_time, axis=1)
        ll = np.where(tables.zero, np.logaddexp(log_sf_cells, li),
                      tables.logc + li)
        out[pts] = ll @ tables.mult
    if not score:
        return out.reshape(shape)

    # per node, with q = eta sigmoid(z): d(node term)/dz = k c_k - mass
    # c_m, c_k = (1 - sigmoid(z)) / (1 - q), c_m = q c_k; d/d logit eta
    # = k e_k - mass e_m, e_k = (1 - eta) / (1 - q), e_m = q e_k; and
    # d/d log lambda, d/d log gamma from the Weibull log-density
    g, r_g, log_r = float(gamma.flat[0]), rows(r_g)[0], rows(log_r)[0]
    q = eta * np.exp(ls1[0])
    c_k = np.exp(ls1[0] - z[0] - lf[0])
    e_k = (1.0 - eta) * np.exp(-lf[0])
    h = np.stack([c_k, q * c_k, tables.lag * c_k, tables.lag * q * c_k,
                  g * (r_g - 1.0), 1.0 + g * log_r * (1.0 - r_g),
                  e_k, q * e_k, np.ones_like(q)], axis=1)
    # lg now holds each pair's exponentiated node term
    means = np.concatenate([lg[p0:p1].reshape(ks.size, -1) @ h[nodes]
                            for nodes, ks, p0, p1 in tables.blocks])
    means /= means[:, -1:]
    k = tables.k
    d_ll = np.stack([k * means[:, 0] - mass * means[:, 1],
                     float(beta.flat[0]) * (k * means[:, 2]
                                          - mass * means[:, 3]),
                     means[:, 4], means[:, 5],
                     k * means[:, 6] - mass * means[:, 7]], axis=1)
    # a zero count's atom log S(t), in its share of the cell's probability
    atom = np.exp(np.where(tables.zero, log_sf_cells[0] - ll[0], -np.inf))
    s_g = -log_sf_cells[0]
    d_sf = np.zeros_like(d_ll)
    d_sf[:, 2] = g * s_g
    d_sf[:, 3] = -g * s_g * np.log(tables.times / float(lam.flat[0])
                                   )[tables.cell_time]
    d_ll += atom[:, None] * (d_sf - d_ll)
    return float(out[0]), tables.mult @ d_ll


# ---------------------------------------------------------------------------
# stage 1: current-status fit of the lead time


def _zero_split(data: CountDataset) -> tuple[np.ndarray, ...]:
    """The times with observations and, per time, how many groups showed
    a zero count and how many a positive one, from data's cell table."""
    c = data.cells
    n_times = c.times.size
    zero = c.k == 0
    n_zero = np.bincount(c.time_index[zero], c.mult[zero], n_times)
    n_pos = np.bincount(c.time_index[~zero], c.mult[~zero], n_times)
    return c.times, n_zero, n_pos


def current_status_loglik(data: CountDataset, lams, gammas) -> np.ndarray:
    """Log-likelihood of the zero/nonzero pattern under the lead-time
    CDF alone: a zero count at t contributes log S(t), a positive count
    log F(t).  Vectorized over a (lambda, gamma) grid; shape (L, G)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    times, n_zero, n_pos = _zero_split(data)
    q = (times[None, None, :] / lams[:, None, None]) ** gammas[None, :, None]
    with np.errstate(divide="ignore"):
        log_f = np.log(-np.expm1(-q))
    return (-n_zero * q + n_pos * log_f).sum(axis=2)


def initial_weibull_estimate(data: CountDataset) -> tuple[float, float]:
    """Starting values for (lambda, gamma) from current-status
    information only.

    Raises NoFiniteMle when every count is zero or none are (the
    step-function likelihood then climbs forever toward a boundary) and
    InsufficientTimes when fewer than two distinct times carry
    observations.
    """
    t_obs, n_zero, n_pos = _zero_split(data)
    if n_zero.sum() == 0 or n_pos.sum() == 0:
        raise NoFiniteMle(
            "current-status likelihood needs both zero and positive counts")
    if t_obs.size < 2:
        raise InsufficientTimes(
            "lead-time shape and scale need observations at two or more "
            "distinct times")
    spec = GridSpec(axes=(
        GridAxis("lambda", 0.2 * t_obs[0], 10.0 * t_obs[-1], 41, log=True),
        GridAxis("gamma", 0.1, 10.0, 41, log=True),
    ), refine_levels=3)
    res = grid_refine_max(lambda l, g: current_status_loglik(data, l, g), spec)
    return res.point[0], res.point[1]


# ---------------------------------------------------------------------------
# stage 2: logistic grid search at fixed lead time


def default_logistic_grid() -> GridSpec:
    """The stage-2 grid of the SSB search: one 21 x 21 (alpha, beta) scan
    and no refinement, since the polish fits all parameters together
    from its best point.  SSB+ has no grid: it starts from the SSB fit."""
    return GridSpec(axes=(GridAxis("alpha", -10.0, 0.0, 21),
                          GridAxis("beta", 0.01, 2.0, 21)), refine_levels=0)


def grid_search_logistic(data: CountDataset, lam: float, gamma: float,
                         tables: Optional[_DatasetTables] = None
                         ) -> GridRefineResult:
    """Maximize the SSB likelihood over default_logistic_grid()'s
    (alpha, beta) with (lambda, gamma) held fixed.  The result's
    on_boundary flag reports a maximum pinned to the grid's box."""
    tab = tables if tables is not None else _DatasetTables(data)
    return grid_refine_max(
        lambda alphas, betas: _mesh_loglik(tab, alphas[:, None],
                                           betas[None, :], lam, gamma, 1.0),
        default_logistic_grid())


# ---------------------------------------------------------------------------
# polish and final evaluation


@dataclass
class FitConfig:
    """Knobs shared by all fitting paths: the adaptive quadrature of
    the quoted log-likelihoods, whether fit_model's last step computes
    standard errors, and whether the random-effects logistic fits eta.
    The mesh spacing and the iteration cap are constants."""

    quad: QuadConfig = DEFAULT_QUAD
    compute_se: bool = True
    re_free_eta: bool = False


def _polish(data: CountDataset, tables: _DatasetTables, x: np.ndarray,
            point: tuple, on_box: bool, trace: list, cfg: FitConfig,
            etas: Sequence[float] = ()) -> FitResult:
    """L-BFGS-B on the fixed mesh, with the kernel's score, over
    (alpha, log beta, log lambda, log gamma) from x, the coordinates of
    `point` (at eta = 1); given etas, over logit eta too, once from each
    (SSB+).  lambda and gamma keep to their box, and eta to at most
    _ETA_HI.  The best end replaces point only when it beats x as the
    polish itself evaluates it, so rounding in a batched sweep or in the
    log/exp round trip cannot decide the test; on_box then says whether
    that run did not converge (_lbfgs).  Appends the stage ("polish", or
    "eta" given etas, with its value-and-score calls as "evals") and
    "final", the adaptive loglik at the point, to trace, and returns the
    fit there."""
    bounds = [(-np.inf, np.inf), (-np.inf, np.inf),
              (math.log(_LAM_LO_FACTOR * tables.times[0]),
               math.log(_LAM_HI_FACTOR * tables.times[-1])),
              (math.log(_GAMMA_LO), math.log(_GAMMA_HI)),
              (-np.inf, logit(_ETA_HI))]

    def unpack(y):
        eta = float(expit(y[4])) if len(y) > 4 else 1.0
        return (float(y[0]), float(np.exp(y[1])), float(np.exp(y[2])),
                float(np.exp(y[3])), eta)

    def neg_loglik(y):
        value, score = _mesh_loglik(tables, *unpack(y), score=True)
        return -value, -score[:len(y)]

    value = float(_mesh_loglik(tables, *unpack(x)))
    starts = [np.append(x, logit(e)) for e in etas] or [x]
    runs = [_lbfgs(neg_loglik, x0, bounds[:len(x0)]) for x0 in starts]
    best = min(runs, key=lambda r: r.fun)
    cand = -float(best.fun)
    if math.isfinite(cand) and cand > value:
        point, value, on_box = unpack(best.x), cand, not bool(best.success)
    trace.append({"stage": "eta" if etas else "polish", "value": value,
                  "evals": sum(int(r.nfev) for r in runs)})
    model = ModelKind.SSB_PLUS if etas else ModelKind.SSB
    final_ll = ssb_dataset_loglik(SsbParams(*point), data, cfg.quad)
    trace.append({"stage": "final", "value": final_ll})
    return FitResult(model=model, loglik=final_ll, n_params=model.n_params,
                     estimates=dict(zip(model.names, point)),
                     converged=not on_box, trace=trace)


def _polish_eta(data: CountDataset, ssb: FitResult,
                cfg: FitConfig) -> FitResult:
    """SSB+'s search from the SSB fit `ssb`: the polish over all five
    parameters, once from each eta in _ETA_STARTS (trace stage "eta",
    after ssb's search stages).  Its best end must beat the SSB point
    itself, at eta = 1."""
    point = tuple(ssb.estimates[n] for n in ModelKind.SSB.names) + (1.0,)
    x = np.array([point[0]] + [math.log(v) for v in point[1:4]])
    trace = [s for s in ssb.trace if s["stage"] != "final"]
    return _polish(data, _DatasetTables(data), x, point, not ssb.converged,
                   trace, cfg, _ETA_STARTS)


def profile_iterate(data: CountDataset, lam0: float, gamma0: float,
                    model: ModelKind = ModelKind.SSB,
                    config: Optional[FitConfig] = None) -> FitResult:
    """Fit a shared-lead-time model from a current-status start: the
    logistic grid search at (lam0, gamma0), then _polish of all four SSB
    parameters on the same mesh; SSB+ then runs _polish_eta from that
    SSB fit.  The trace's logistic stage counts the grid points
    evaluated ("points"), the polish and "eta" stages the L-BFGS-B
    runs' value-and-score calls ("evals").  converged is False when the
    grid maximum sits on its box and no polish moved it, or when the
    accepted polish stopped on its iteration cap or with a projected
    score above _SCORE_TOL.  The search step only: fit_model adds
    SSB+'s eta = 1 rule and the errors."""
    model = ModelKind(model)
    cfg = config or FitConfig()
    tables = _DatasetTables(data)
    lres = grid_search_logistic(data, lam0, gamma0, tables=tables)
    alpha, beta = lres.point
    trace = [{"stage": "logistic", "value": lres.value,
              "alpha": alpha, "beta": beta, "eta": 1.0,
              "points": sum(lv["points"] for lv in lres.levels)}]
    x0 = np.array([alpha, math.log(beta), math.log(lam0), math.log(gamma0)])
    ssb = _polish(data, tables, x0,
                  (alpha, beta, float(lam0), float(gamma0), 1.0),
                  lres.on_boundary, trace, cfg)
    return _polish_eta(data, ssb, cfg) if model is ModelKind.SSB_PLUS else ssb


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
# the family searches


def _nelder_mead(obj, x0: np.ndarray):
    return minimize(obj, np.asarray(x0, dtype=float), method="Nelder-Mead",
                    options={"maxiter": _MAXITER, "xatol": 1e-6,
                             "fatol": 1e-9})


def _lbfgs(obj, x0: np.ndarray, bounds: Sequence[tuple]):
    """L-BFGS-B on obj, which returns its value and gradient, within
    bounds.  success is set to whether the run converged: it did unless
    it stopped on its iteration cap or its projected gradient ends above
    _SCORE_TOL, so a line search that stops at a stationary point
    (scipy's ABNORMAL) counts as converged."""
    res = minimize(obj, np.asarray(x0, dtype=float), jac=True,
                   method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": _MAXITER, "gtol": 1e-6,
                            "ftol": 1e-14})
    lo, hi = np.array(bounds, dtype=float).T
    projected = np.clip(res.x - res.jac, lo, hi) - res.x
    res.success = (res.status != 1
                   and float(np.max(np.abs(projected))) <= _SCORE_TOL)
    return res


def _lrm_grid_scan(data: CountDataset, etas: np.ndarray) -> tuple:
    """Coarse closed-form scan for logistic starts; returns the best
    (alpha, beta, eta)."""
    alphas = np.linspace(-15.0, 5.0, 41)
    betas = np.geomspace(1e-3, 5.0, 41)
    best = (-math.inf, None)
    for eta in etas:
        acc = _lrm_cells(alphas[:, None, None], betas[None, :, None],
                         float(eta), data) @ data.cells.mult
        idx = np.unravel_index(int(np.argmax(acc)), acc.shape)
        if float(acc[idx]) > best[0]:
            best = (float(acc[idx]),
                    (float(alphas[idx[0]]), float(betas[idx[1]]), float(eta)))
    return best[1]


def _simplex(model: ModelKind, names: Sequence[str], obj, unpack,
             starts: Sequence[np.ndarray], **stage) -> FitResult:
    """The logistic families' search tail: Nelder-Mead on obj from each
    start, and the fit at the best end, whose natural-scale values
    unpack gives in the order of names; its trace is one "simplex"
    stage, plus stage's entries."""
    best = min((_nelder_mead(obj, x0) for x0 in starts), key=lambda r: r.fun)
    ll = -float(best.fun)
    return FitResult(model=model, estimates=dict(zip(names, unpack(best.x))),
                     loglik=ll, n_params=len(names),
                     converged=bool(best.success),
                     trace=[{"stage": "simplex", "value": ll, **stage}])


def _fit_lrm(data: CountDataset, free_eta: bool) -> FitResult:
    model = ModelKind.LRM_PLUS if free_eta else ModelKind.LRM
    etas = np.linspace(0.5, 1.0, 6) if free_eta else np.array([1.0])
    a0, b0, e0 = _lrm_grid_scan(data, etas)
    x0 = [a0, math.log(b0)]
    if free_eta:
        e0 = min(max(e0, 1e-3), 1.0 - 1e-3)
        starts = [np.array(x0 + [logit(e)]) for e in (e0, 0.98)]
    else:
        starts = [np.array(x0)]

    def unpack(x):
        return (x[0], math.exp(x[1])) + ((expit(x[2]),) if free_eta else ())

    def obj(x):
        alpha, beta, *eta = unpack(x)
        return -lrm_loglik(alpha, beta, data, *eta)

    return _simplex(model, model.names, obj, unpack, starts)


def _fit_re(data: CountDataset, cfg: FitConfig, lrm: FitResult) -> FitResult:
    """Search LRM-RE from four starts about the LRM fit `lrm`."""
    free_eta = cfg.re_free_eta
    a0, b0 = lrm.estimates["alpha"], lrm.estimates["beta"]

    def unpack(x):
        rho = min(_RHO_CAP, max(-_RHO_CAP, float(np.tanh(x[2]))))
        return ((float(x[0]), float(x[1]), rho, math.exp(x[3]),
                 math.exp(x[4])) + ((expit(x[5]),) if free_eta else ()))

    def obj(x):
        return -re_loglik(ReParams(*unpack(x)), data, cfg.quad)

    eta0 = [logit(0.95)] if free_eta else []
    starts = [np.array([a0, b0, 0.0, math.log(s1),
                        math.log(max(s2frac * b0, 1e-4))] + eta0)
              for s1 in (0.5, 2.0) for s2frac in (0.1, 0.5)]
    names = ModelKind.LRM_RE.names + (("eta",) if free_eta else ())
    return _simplex(ModelKind.LRM_RE, names, obj, unpack, starts,
                    n_starts=len(starts))


def _search(data: CountDataset, model: ModelKind, cfg: FitConfig,
            sub: Optional[FitResult]) -> FitResult:
    """Fit `model` by its family's search alone: no other model is
    fitted, no boundary rule applied and no standard error computed.
    sub, the submodel's fit, starts the searches of LRM-RE (_fit_re)
    and SSB+ (_polish_eta); the others ignore it."""
    if model in (ModelKind.LRM, ModelKind.LRM_PLUS):
        return _fit_lrm(data, free_eta=model is ModelKind.LRM_PLUS)
    if model is ModelKind.LRM_RE:
        return _fit_re(data, cfg, sub)
    if model is ModelKind.SSB_PLUS:
        return _polish_eta(data, sub, cfg)
    lam0, gamma0 = initial_weibull_estimate(data)
    return profile_iterate(data, lam0, gamma0, model, config=cfg)


# ---------------------------------------------------------------------------
# nesting, standard errors and the fit entry points

# each nested model and the submodel it contains; LRM+ and SSB+ reduce
# to theirs at eta = 1, LRM-RE to LRM at zero random-effect variance
_SUBMODEL = {ModelKind.LRM_PLUS: ModelKind.LRM,
             ModelKind.LRM_RE: ModelKind.LRM,
             ModelKind.SSB_PLUS: ModelKind.SSB}


def _nest(free: FitResult, sub: FitResult) -> FitResult:
    """The eta = 1 boundary rule: an extended model never reports a free
    fit that its submodel (itself at eta = 1) matches or beats, nor one
    whose eta lies within 1e-6 of 1.  Then it quotes sub's estimates
    with eta = 1, its loglik, converged flag and trace, plus a final
    "boundary_eta" stage, which carries the "evals" of free's discarded
    "eta" stage when it has one (SSB+)."""
    if sub.loglik < free.loglik and free.estimates["eta"] <= 1.0 - 1e-6:
        return free
    stage = {"stage": "boundary_eta", "value": sub.loglik}
    for s in free.trace:
        if s["stage"] == "eta":
            stage["evals"] = s["evals"]
    return FitResult(model=free.model,
                     estimates={**sub.estimates, "eta": 1.0},
                     loglik=sub.loglik, n_params=free.n_params,
                     converged=sub.converged, trace=sub.trace + [stage])


def _attach_se(result: FitResult, data: CountDataset,
               cfg: FitConfig) -> None:
    """Observed information and standard errors at result's estimates,
    from the family's natural-scale log-likelihood.  eta counts only
    when 1e-9 < eta < 1 - 1e-9 (else its error is None).  Steps are
    observed_information's eps**(1/4) (1 + |theta|), the balance point
    for second differences, capped at 0.25 theta for beta, lambda,
    gamma, sigma1, sigma2, at 0.25 (1 - |rho|) and at 0.25 min(eta,
    1 - eta) + 1e-12.  Singular information leaves std_errors None."""
    est, model = result.estimates, result.model
    eta = est.get("eta", 1.0)
    free_eta = "eta" in est and 1e-9 < eta < 1.0 - 1e-9
    names = [n for n in est if n != "eta" or free_eta]
    caps = {n: 0.25 * est[n] for n in ("beta", "lambda", "gamma", "sigma1",
                                       "sigma2") if n in est}
    caps["rho"] = 0.25 * (1.0 - abs(est.get("rho", 0.0)))
    caps["eta"] = 0.25 * min(eta, 1.0 - eta) + 1e-12
    theta = np.array([est[n] for n in names])
    steps = np.finfo(float).eps ** 0.25 * (1.0 + np.abs(theta))
    steps = np.array([min(h, caps.get(n, math.inf))
                      for h, n in zip(steps, names)])

    if model in (ModelKind.SSB, ModelKind.SSB_PLUS):
        loglik = frozen_dataset_loglik(validate_params(model, est), data,
                                       cfg.quad, free_eta=free_eta)
    else:
        def loglik(th):
            try:
                p = validate_params(model, {**est, **dict(zip(names, th))})
                if model is ModelKind.LRM_RE:
                    return re_loglik(p, data, cfg.quad)
                return lrm_loglik(p["alpha"], p["beta"], data, p["eta"])
            except DomainError:
                return -np.inf

    result.info = observed_information(loglik, theta, steps)
    try:
        se = std_errors_from_information(result.info)
    except SingularInformation:
        log.warning("standard errors unavailable: singular information")
        result.std_errors = None
        return
    result.std_errors = dict(zip(names, se.tolist()))
    if "eta" in est and not free_eta:
        result.std_errors["eta"] = None


def fit_model(data: CountDataset, model: ModelKind,
              config: Optional[FitConfig] = None, *,
              sub: Optional[FitResult] = None) -> FitResult:
    """Fit one of the five models to a count dataset: search, the eta = 1
    rule for LRM+ and SSB+ (_nest), then standard errors unless
    config.compute_se is off.  `sub` is the submodel's fit on the same
    data (LRM for LRM+ and LRM-RE, SSB for SSB+); without it the
    submodel is searched here.  Passing it changes no result; a `sub`
    of any other model raises DomainError."""
    model = ModelKind(model)
    cfg = config or FitConfig()
    want = _SUBMODEL.get(model)
    if sub is not None and sub.model is not want:
        expected = f"a {want.value} fit" if want else "None"
        raise DomainError(f"sub for {model.value} must be {expected}, got "
                          f"a {sub.model.value} fit")
    if want is not None and sub is None:
        sub = _search(data, want, cfg, None)
    result = _search(data, model, cfg, sub)
    if model in (ModelKind.LRM_PLUS, ModelKind.SSB_PLUS):
        result = _nest(result, sub)
    if cfg.compute_se:
        _attach_se(result, data, cfg)
    return result


def fit_models(data: CountDataset, models: Sequence[ModelKind],
               config: Optional[FitConfig] = None) -> list[FitResult]:
    """Fit each of `models` once, in MODEL_ORDER, passing each fit to
    the models that nest it as their `sub`.  Returns the fits in
    MODEL_ORDER, equal to separate fit_model calls.  Logs each fit's
    trace at INFO, one line per stage."""
    wanted = {ModelKind(m) for m in models}
    fits: dict[ModelKind, FitResult] = {}
    for m in MODEL_ORDER:
        if m in wanted:
            log.info("fitting %s", m.value)
            fits[m] = fit_model(data, m, config,
                                sub=fits.get(_SUBMODEL.get(m)))
            for stage in fits[m].trace:
                log.info("%s %s: %s", m.value, stage["stage"],
                         " ".join(f"{k}={v!r}" for k, v in stage.items()
                                  if k != "stage"))
    return list(fits.values())


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
