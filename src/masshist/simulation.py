"""Simulation of grouped event histories and the sacrifice protocol.

A trajectory is the hourly count record of one group of `mass`
individuals: counts[h] = N(h), the number of events strictly before hour
h, for h = 0..horizon.  The sacrifice design then mimics destructive
sampling: each scheduled time t consumes `group_size` whole trajectories,
and only N(t) survives into the resulting cross-sectional dataset, the
same number the count likelihood models.

All randomness flows through numpy Generators.  Sub-streams are derived
from (seed, key...) tuples via SeedSequence, so each trajectory and each
protocol stage has its own independent, platform-stable stream, and
results are reproducible for a given seed no matter how the work is
scheduled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .core import (CountDataset, ModelKind, ReParams, SsbParams, Trajectory,
                   validate_params)
from .errors import (DomainError, RejectionBudgetExceeded, SizeMismatch)
from .quadrature import weibull_ppf

if TYPE_CHECKING:  # pragma: no cover
    from .core import FitResult
    from .estimation import FitConfig

__all__ = [
    "SimConfig",
    "SCHEDULE_PRESETS",
    "ProtocolResult",
    "substream",
    "lead_time_from_uniform",
    "action_time_from_uniform",
    "simulate_trajectory",
    "simulate_re_trajectory",
    "sacrifice_sample",
    "simulate_design",
    "run_protocol",
]

# prob that p lands outside this band is ~1e-15; clipping keeps logit finite
_P_LO = 1e-15
_P_HI = 1.0 - 1e-15

_REJECTION_BUDGET = 10 ** 6

SCHEDULE_PRESETS: dict[str, tuple[float, ...]] = {
    "default": (2, 4, 6, 8, 10, 12, 24, 36, 48, 60),
    "alternate": (2, 4, 6, 8, 12, 16, 20, 30, 45, 60),
}


@dataclass(frozen=True)
class SimConfig:
    """Protocol layout: how many trajectories, how they are consumed."""

    seed: int
    mass: int = 300
    horizon: int = 60
    schedule: tuple[float, ...] = SCHEDULE_PRESETS["default"]
    group_size: int = 10

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "mass", int(self.mass))
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "group_size", int(self.group_size))
        sched = tuple(float(t) for t in self.schedule)
        object.__setattr__(self, "schedule", sched)
        if self.mass < 1:
            raise DomainError("mass must be >= 1")
        if self.horizon < 1:
            raise DomainError("horizon must be >= 1")
        if self.group_size < 1:
            raise DomainError("group_size must be >= 1")
        if not sched:
            raise DomainError("schedule must not be empty")
        if any(not (t > 0 and float(t).is_integer()) for t in sched):
            raise DomainError("schedule times must be positive whole hours")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise DomainError("schedule must be strictly increasing")
        if sched[-1] > self.horizon:
            raise DomainError("schedule extends past the horizon")

    @property
    def n_trajectories(self) -> int:
        """Each scheduled time consumes group_size whole trajectories."""
        return len(self.schedule) * self.group_size


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, key...).

    SeedSequence hashes the whole tuple, so streams for different keys
    are statistically independent and stable across platforms.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


# ---------------------------------------------------------------------------
# elementary samplers (pure inverse-CDF maps)


def lead_time_from_uniform(lam: float, gamma: float, p):
    """Weibull inverse CDF: u = lam * (-log(1 - p))**(1/gamma)."""
    return weibull_ppf(p, lam, gamma)


def action_time_from_uniform(alpha: float, beta: float, p):
    """Inverse CDF of the action delay S with Pr[S <= s] =
    expit(alpha + beta * s) for s >= 0 and an atom expit(alpha) at 0:
    s = max(0, (logit(p) - alpha) / beta).  p is clipped away from
    {0, 1} so the logit stays finite."""
    if not (beta > 0 and math.isfinite(beta)):
        raise DomainError(f"beta must be > 0, got {beta!r}")
    p = np.clip(np.asarray(p, dtype=float), _P_LO, _P_HI)
    s = (np.log(p) - np.log1p(-p) - alpha) / beta
    out = np.maximum(s, 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# trajectories


def _counts_from_event_times(event_times: np.ndarray, horizon: int) -> np.ndarray:
    """counts[h] = #{T < h} for h = 0..horizon."""
    return np.searchsorted(np.sort(event_times), np.arange(horizon + 1),
                           side="left")


def _group_counts(start: float, alpha: float, beta: float, eta: float,
                  mass: int, horizon: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The tail both simulators share: all phase indicators, then all
    action delays; each responsive individual acts at start + delay."""
    if mass < 1:
        raise DomainError("mass must be >= 1")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    phase = rng.random(mass) < eta
    s = action_time_from_uniform(alpha, beta, rng.random(mass))
    return _counts_from_event_times(start + s[phase], horizon)


def simulate_trajectory(params: SsbParams, mass: int, horizon: int,
                        rng: np.random.Generator) -> Trajectory:
    """One shared-lead-time group.

    Draw order is fixed (lead time, then all phase indicators, then all
    action delays) so a given generator state always yields the same
    trajectory.  Individuals out of the responsive phase never act.
    """
    u = float(lead_time_from_uniform(params.lam, params.gamma, rng.random()))
    counts = _group_counts(u, params.alpha, params.beta, params.eta,
                           mass, horizon, rng)
    return Trajectory(counts=counts, lead_time=u)


@functools.lru_cache(maxsize=16)
def _re_cholesky(params: ReParams) -> np.ndarray:
    """The Cholesky factor of params.cov(), computed once per parameter
    value (read-only)."""
    chol = np.linalg.cholesky(params.cov())
    chol.flags.writeable = False
    return chol


def simulate_re_trajectory(params: ReParams, mass: int, horizon: int,
                           rng: np.random.Generator) -> Trajectory:
    """One random-effects group: (alpha, beta) ~ N(mean, cov), redrawn
    until beta > 0 (the action-delay inverse needs a positive slope);
    no lead time, so events start accruing from hour 0."""
    chol = _re_cholesky(params)
    mean = params.mean()
    for _ in range(_REJECTION_BUDGET):
        a, b = mean + chol @ rng.standard_normal(2)
        if b > 0:
            break
    else:
        raise RejectionBudgetExceeded(
            f"no beta > 0 draw in {_REJECTION_BUDGET} attempts")
    counts = _group_counts(0.0, float(a), float(b), params.eta,
                           mass, horizon, rng)
    return Trajectory(counts=counts, lead_time=0.0)


# ---------------------------------------------------------------------------
# sacrifice design


def sacrifice_sample(trajectories: Sequence[Trajectory],
                     schedule: Sequence[float], group_size: int,
                     rng: np.random.Generator, mass: int) -> CountDataset:
    """Destructively sample trajectories on a schedule.

    A random permutation assigns group_size trajectories to each
    scheduled time; each contributes N(t), the number of events strictly
    before its sacrifice time t (a system terminated at t cannot record
    anything later).  Needs len(trajectories) ==
    len(schedule) * group_size, and t a whole hour within the horizon.
    """
    sched = [float(t) for t in schedule]
    need = len(sched) * int(group_size)
    if len(trajectories) != need:
        raise SizeMismatch(
            f"{len(trajectories)} trajectories for {len(sched)} times x "
            f"{group_size} groups (need {need})")
    perm = rng.permutation(len(trajectories))
    cols = []
    for i, t in enumerate(sched):
        members = perm[i * group_size:(i + 1) * group_size]
        cols.append(tuple(int(trajectories[j].events_before(t))
                          for j in members))
    return CountDataset(schedule=tuple(sched), counts=tuple(cols), mass=mass)


def simulate_design(params: SsbParams,
                    config: SimConfig) -> tuple[list[Trajectory], CountDataset]:
    """Simulate config.n_trajectories shared-lead-time trajectories and
    sacrifice them on the schedule.

    Sub-streams: (seed, 0, i) drives trajectory i, (seed, 1) the
    sacrifice permutation.
    """
    trajs = [simulate_trajectory(params, config.mass, config.horizon,
                                 substream(config.seed, 0, i))
             for i in range(config.n_trajectories)]
    data = sacrifice_sample(trajs, config.schedule, config.group_size,
                            substream(config.seed, 1), config.mass)
    return trajs, data


# ---------------------------------------------------------------------------
# the full generate / sacrifice / fit / regenerate protocol


@dataclass
class ProtocolResult:
    """Everything produced by one run of the comparison protocol; the
    LRM fit is the one LRM-RE started from."""

    theta0: SsbParams
    config: SimConfig
    trajectories: list          # shared-lead-time trajectories at theta0
    dataset: CountDataset
    lrm_fit: "FitResult"
    ssb_fit: "FitResult"
    re_fit: "FitResult"
    re_params: ReParams
    re_trajectories: list       # random-effects trajectories at the RE fit
    log_lr: float = field(init=False)

    def __post_init__(self):
        self.log_lr = float(self.ssb_fit.loglik - self.re_fit.loglik)


def run_protocol(theta0: SsbParams, config: SimConfig,
                 fit_config: Optional["FitConfig"] = None) -> ProtocolResult:
    """Simulate at theta0, sacrifice into counts, fit LRM, LRM-RE and
    SSB to the counts through fit_models, then simulate the fitted
    random-effects model.

    Sub-streams: those of simulate_design, plus (seed, 2, i) for
    random-effects trajectory i.
    """
    from .estimation import FitConfig, fit_models  # deferred, avoids cycle

    cfg = fit_config or FitConfig(compute_se=False)
    trajs, data = simulate_design(theta0, config)
    lrm_fit, re_fit, ssb_fit = fit_models(
        data, (ModelKind.LRM, ModelKind.LRM_RE, ModelKind.SSB), cfg)
    re_params = validate_params(ModelKind.LRM_RE, re_fit.estimates)
    re_trajs = [simulate_re_trajectory(re_params, config.mass, config.horizon,
                                       substream(config.seed, 2, i))
                for i in range(config.n_trajectories)]
    return ProtocolResult(theta0=theta0, config=config, trajectories=trajs,
                          dataset=data, lrm_fit=lrm_fit, ssb_fit=ssb_fit,
                          re_fit=re_fit, re_params=re_params,
                          re_trajectories=re_trajs)
