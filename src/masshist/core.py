"""Core data types: parameter vectors, count datasets, trajectories,
fit results, and their file representations.

Numbers in, numbers out: every container validates its documented
invariants at construction so downstream numerics never have to guard
against, say, a negative rate or a count exceeding the group size.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CsvFormatError, DomainError

__all__ = [
    "ModelKind",
    "SsbParams",
    "ReParams",
    "CountDataset",
    "Trajectory",
    "FitResult",
    "validate_params",
    "params_to_dict",
    "params_from_dict",
    "parse_count_csv",
    "format_count_csv",
    "read_count_csv",
    "write_count_csv",
    "fit_result_to_dict",
    "fit_result_from_dict",
]


class ModelKind(str, Enum):
    """The five count models the package fits and compares."""

    LRM = "lrm"
    LRM_PLUS = "lrm_plus"
    LRM_RE = "lrm_re"
    SSB = "ssb"
    SSB_PLUS = "ssb_plus"

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def n_params(self) -> int:
        """Free parameter count in the default parametrization.

        LRM_RE reports 5 here (eta pinned at 1); a free-eta random
        effects fit carries 6 and fit results record their own count.
        """
        return _NPARAMS[self]


_LABELS = {
    ModelKind.LRM: "LRM",
    ModelKind.LRM_PLUS: "LRM+",
    ModelKind.LRM_RE: "LRM-RE",
    ModelKind.SSB: "SSB",
    ModelKind.SSB_PLUS: "SSB+",
}

_NPARAMS = {
    ModelKind.LRM: 2,
    ModelKind.LRM_PLUS: 3,
    ModelKind.LRM_RE: 5,
    ModelKind.SSB: 4,
    ModelKind.SSB_PLUS: 5,
}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _finite(x: float, name: str) -> float:
    x = float(x)
    _require(math.isfinite(x), f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class SsbParams:
    """Parameters of the shared-lead-time logistic count model.

    alpha, beta give the logistic response expit(alpha + beta * (t - u));
    lam, gamma are the Weibull scale/shape of the shared lead time; eta
    is the probability an individual is in the responsive phase.  With
    eta = 1 this is the base shared-lead-time model, eta < 1 the
    extended one.
    """

    alpha: float
    beta: float
    lam: float
    gamma: float
    eta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _finite(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _finite(self.beta, "beta"))
        object.__setattr__(self, "lam", _finite(self.lam, "lambda"))
        object.__setattr__(self, "gamma", _finite(self.gamma, "gamma"))
        object.__setattr__(self, "eta", _finite(self.eta, "eta"))
        _require(self.beta > 0.0, f"beta must be > 0, got {self.beta!r}")
        _require(self.lam > 0.0, f"lambda must be > 0, got {self.lam!r}")
        _require(self.gamma > 0.0, f"gamma must be > 0, got {self.gamma!r}")
        _require(0.0 <= self.eta <= 1.0,
                 f"eta must lie in [0, 1], got {self.eta!r}")


@dataclass(frozen=True)
class ReParams:
    """Bivariate-normal random-intercept/slope logistic parameters.

    (alpha_h, beta_h) ~ N((mu1, mu2), Sigma) independently across
    groups, Sigma built from (sigma1, sigma2, rho).  eta as in
    SsbParams; the default 1 gives the five-parameter variant.
    """

    mu1: float
    mu2: float
    rho: float
    sigma1: float
    sigma2: float
    eta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mu1", _finite(self.mu1, "mu1"))
        object.__setattr__(self, "mu2", _finite(self.mu2, "mu2"))
        object.__setattr__(self, "rho", _finite(self.rho, "rho"))
        object.__setattr__(self, "sigma1", _finite(self.sigma1, "sigma1"))
        object.__setattr__(self, "sigma2", _finite(self.sigma2, "sigma2"))
        object.__setattr__(self, "eta", _finite(self.eta, "eta"))
        _require(-1.0 < self.rho < 1.0,
                 f"rho must lie in (-1, 1), got {self.rho!r}")
        _require(self.sigma1 > 0.0, f"sigma1 must be > 0, got {self.sigma1!r}")
        _require(self.sigma2 > 0.0, f"sigma2 must be > 0, got {self.sigma2!r}")
        _require(0.0 <= self.eta <= 1.0,
                 f"eta must lie in [0, 1], got {self.eta!r}")

    def mean(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2])

    def cov(self) -> np.ndarray:
        c = self.rho * self.sigma1 * self.sigma2
        return np.array([[self.sigma1 ** 2, c], [c, self.sigma2 ** 2]])


@dataclass(frozen=True)
class CountDataset:
    """Cross-sectional counts: at each scheduled time, the counts seen in
    the groups examined at that time.

    schedule: strictly increasing positive times, one entry per column.
    counts:   per time, the tuple of observed counts (missing cells are
              simply absent, so columns may have different lengths).
    mass:     number of individuals per group; every count must lie in
              [0, mass].
    """

    schedule: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]
    mass: int

    def __post_init__(self):
        sched = tuple(float(t) for t in self.schedule)
        object.__setattr__(self, "schedule", sched)
        _require(len(sched) >= 1, "schedule must not be empty")
        _require(all(math.isfinite(t) and t > 0 for t in sched),
                 "schedule times must be finite and > 0")
        _require(all(b > a for a, b in zip(sched, sched[1:])),
                 "schedule times must be strictly increasing")
        mass = int(self.mass)
        object.__setattr__(self, "mass", mass)
        _require(mass >= 1, f"mass must be >= 1, got {mass}")
        _require(len(self.counts) == len(sched),
                 "counts must have one tuple per scheduled time")
        norm = []
        for i, col in enumerate(self.counts):
            col = tuple(int(k) for k in col)
            for k in col:
                _require(0 <= k <= mass,
                         f"count {k} at time {sched[i]} outside [0, {mass}]")
            norm.append(col)
        object.__setattr__(self, "counts", tuple(norm))

    @property
    def n_times(self) -> int:
        return len(self.schedule)

    @property
    def n_obs(self) -> int:
        return sum(len(col) for col in self.counts)

    def observations(self) -> Iterable[tuple[float, int]]:
        """Yield (time, count) pairs in column-major order."""
        for t, col in zip(self.schedule, self.counts):
            for k in col:
                yield t, k

    def grouped(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """Per time: (t, distinct counts, multiplicities).

        Likelihoods are sums over observations, so identical (t, k)
        cells are collapsed once here instead of re-integrated.
        """
        out = []
        for t, col in zip(self.schedule, self.counts):
            if not col:
                continue
            ks, mult = np.unique(np.asarray(col, dtype=np.int64),
                                 return_counts=True)
            out.append((t, ks, mult))
        return out

    def n_distinct_times(self) -> int:
        return sum(1 for col in self.counts if col)


def _as_locked_array(x, dtype) -> np.ndarray:
    arr = np.asarray(x, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Trajectory:
    """One simulated group followed on an hourly grid.

    grid:        integer hours 0, 1, ..., horizon.
    counts:      cumulative event counts; counts[j] is the number of
                 events strictly before hour grid[j] + 1, hence
                 nondecreasing.
    lead_time:   the group's shared latent lead time (0 for models
                 without one).
    event_times: optional per-individual event times, +inf for
                 individuals that never act.
    """

    grid: np.ndarray
    counts: np.ndarray
    lead_time: float
    event_times: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = _as_locked_array(self.grid, np.int64)
        counts = _as_locked_array(self.counts, np.int64)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "counts", counts)
        _require(grid.ndim == 1 and counts.ndim == 1, "grid and counts must be 1-D")
        _require(grid.size == counts.size, "grid and counts must align")
        _require(grid.size >= 1 and grid[0] == 0, "grid must start at hour 0")
        _require(bool(np.all(np.diff(grid) == 1)), "grid must be consecutive hours")
        _require(bool(np.all(counts >= 0)), "counts must be nonnegative")
        _require(bool(np.all(np.diff(counts) >= 0)), "counts must be nondecreasing")
        object.__setattr__(self, "lead_time", _finite(self.lead_time, "lead_time"))
        if self.event_times is not None:
            ev = np.asarray(self.event_times, dtype=float).copy()
            ev.flags.writeable = False
            object.__setattr__(self, "event_times", ev)

    @property
    def horizon(self) -> int:
        return int(self.grid[-1])

    def count_at(self, hour: float) -> int:
        """Cumulative count recorded at an integer hour on the grid."""
        h = float(hour)
        if h != int(h) or not (0 <= int(h) <= self.horizon):
            raise DomainError(f"hour {hour!r} not on the trajectory grid")
        return int(self.counts[int(h)])

    def events_before(self, t: float) -> int:
        """Number of events strictly before time t.

        Uses the exact event times when the trajectory carries them;
        otherwise t must be a whole hour, for which the hourly record at
        index t - 1 is the same quantity.
        """
        t = float(t)
        if self.event_times is not None:
            ev = self.event_times[np.isfinite(self.event_times)]
            return int(np.count_nonzero(ev < t))
        if t != int(t) or not (0 <= int(t) <= self.horizon + 1):
            raise DomainError(
                f"time {t!r} needs event times or a whole hour on the grid")
        h = int(t)
        return 0 if h == 0 else int(self.counts[h - 1])


@dataclass
class FitResult:
    """Outcome of fitting one model to one dataset."""

    model: ModelKind
    estimates: dict[str, float]
    loglik: float
    n_params: int
    converged: bool
    info: Optional[np.ndarray] = None
    std_errors: Optional[dict[str, Optional[float]]] = None
    trace: list = field(default_factory=list)

    def __post_init__(self):
        self.model = ModelKind(self.model)
        self.estimates = {k: float(v) for k, v in self.estimates.items()}
        self.loglik = float(self.loglik)
        self.n_params = int(self.n_params)
        self.converged = bool(self.converged)
        if self.info is not None:
            self.info = np.asarray(self.info, dtype=float)
            _require(self.info.ndim == 2 and
                     self.info.shape[0] == self.info.shape[1],
                     "info must be a square matrix")


# ---------------------------------------------------------------------------
# parameter <-> plain-dict conversion ("lambda" is the external key; the
# attribute is lam because of the Python keyword)

_PARAM_FIELDS = {
    ModelKind.LRM: ("alpha", "beta"),
    ModelKind.LRM_PLUS: ("alpha", "beta", "eta"),
    ModelKind.LRM_RE: ("mu1", "mu2", "rho", "sigma1", "sigma2", "eta"),
    ModelKind.SSB: ("alpha", "beta", "lambda", "gamma"),
    ModelKind.SSB_PLUS: ("alpha", "beta", "lambda", "gamma", "eta"),
}


def param_names(model: ModelKind, *, free_eta: bool = False) -> tuple[str, ...]:
    """External parameter names for a model, in canonical order."""
    model = ModelKind(model)
    names = _PARAM_FIELDS[model]
    if model is ModelKind.LRM_RE and not free_eta:
        names = names[:-1]
    return names


def validate_params(model: ModelKind, values: Mapping[str, float]):
    """Turn a name->value mapping into the parameter object for a model,
    applying that model's domain checks.

    SSB / SSB_PLUS return SsbParams and LRM_RE returns ReParams.  LRM /
    LRM_PLUS have no lead-time or random-effect parameters, so they
    return a plain dict {"alpha", "beta", "eta"} of checked floats.
    """
    model = ModelKind(model)
    vals = dict(values)
    if "lambda" in vals and "lam" in vals:
        raise DomainError("give either 'lambda' or 'lam', not both")
    if "lam" in vals:
        vals["lambda"] = vals.pop("lam")
    if model in (ModelKind.SSB, ModelKind.SSB_PLUS):
        eta = vals.get("eta", 1.0)
        if model is ModelKind.SSB and float(eta) != 1.0:
            raise DomainError("the base shared-lead-time model fixes eta = 1")
        missing = [n for n in ("alpha", "beta", "lambda", "gamma")
                   if n not in vals]
        if missing:
            raise DomainError(f"missing parameter(s): {', '.join(missing)}")
        return SsbParams(alpha=vals["alpha"], beta=vals["beta"],
                         lam=vals["lambda"], gamma=vals["gamma"], eta=eta)
    if model is ModelKind.LRM_RE:
        missing = [n for n in ("mu1", "mu2", "rho", "sigma1", "sigma2")
                   if n not in vals]
        if missing:
            raise DomainError(f"missing parameter(s): {', '.join(missing)}")
        return ReParams(mu1=vals["mu1"], mu2=vals["mu2"], rho=vals["rho"],
                        sigma1=vals["sigma1"], sigma2=vals["sigma2"],
                        eta=vals.get("eta", 1.0))
    # plain logistic models
    missing = [n for n in ("alpha", "beta") if n not in vals]
    if missing:
        raise DomainError(f"missing parameter(s): {', '.join(missing)}")
    alpha = _finite(vals["alpha"], "alpha")
    beta = _finite(vals["beta"], "beta")
    _require(beta > 0.0, f"beta must be > 0, got {beta!r}")
    eta = _finite(vals.get("eta", 1.0), "eta")
    if model is ModelKind.LRM and eta != 1.0:
        raise DomainError("the plain logistic model fixes eta = 1")
    _require(0.0 <= eta <= 1.0, f"eta must lie in [0, 1], got {eta!r}")
    return {"alpha": alpha, "beta": beta, "eta": eta}


def params_to_dict(params) -> dict[str, float]:
    """Serialize a parameter object to external names."""
    if isinstance(params, SsbParams):
        return {"alpha": params.alpha, "beta": params.beta,
                "lambda": params.lam, "gamma": params.gamma,
                "eta": params.eta}
    if isinstance(params, ReParams):
        return {"mu1": params.mu1, "mu2": params.mu2, "rho": params.rho,
                "sigma1": params.sigma1, "sigma2": params.sigma2,
                "eta": params.eta}
    if isinstance(params, Mapping):
        return {str(k): float(v) for k, v in params.items()}
    raise DomainError(f"unsupported parameter object {type(params)!r}")


def params_from_dict(model: ModelKind, d: Mapping[str, float]):
    """Inverse of params_to_dict for a given model."""
    return validate_params(model, d)


# ---------------------------------------------------------------------------
# CSV dataset format
#
# Optional leading '#' comment lines, then a header row of observation
# times (an alphabetic unit suffix such as "2hrs" is tolerated and
# stripped), then one row per replicate group.  A cell of "." or the
# empty string marks a missing observation.  The group size is carried
# out of band.

_TIME_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                      r"\s*([A-Za-z]*)\s*$")


def _parse_time_cell(cell: str, col: int) -> float:
    m = _TIME_RE.match(cell)
    if not m:
        raise CsvFormatError(
            f"header column {col + 1}: cannot read a time from {cell!r}")
    return float(m.group(1))


def parse_count_csv(text: str, mass: int) -> CountDataset:
    """Parse the dataset format described above into a CountDataset."""
    lines = [ln for ln in text.splitlines()]
    body = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise CsvFormatError("no header row found")
    header = [c.strip() for c in body[0].split(",")]
    times = [_parse_time_cell(c, j) for j, c in enumerate(header)]
    columns: list[list[int]] = [[] for _ in times]
    for r, ln in enumerate(body[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(times):
            raise CsvFormatError(
                f"row {r}: expected {len(times)} cells, got {len(cells)}")
        for j, cell in enumerate(cells):
            if cell in (".", ""):
                continue
            try:
                val = int(cell)
            except ValueError:
                raise CsvFormatError(
                    f"row {r}, column {j + 1}: {cell!r} is not a count") from None
            if not (0 <= val <= mass):
                raise CsvFormatError(
                    f"row {r}, column {j + 1}: count {val} outside [0, {mass}]")
            columns[j].append(val)
    try:
        return CountDataset(schedule=tuple(times),
                            counts=tuple(tuple(c) for c in columns),
                            mass=mass)
    except DomainError as e:
        raise CsvFormatError(str(e)) from None


def _fmt_time(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else repr(float(t))


def format_count_csv(data: CountDataset, comments: Sequence[str] = ()) -> str:
    """Serialize a CountDataset; parse_count_csv(format_count_csv(d), d.mass)
    reproduces d exactly.  Columns shorter than the longest are padded
    with "." at the bottom."""
    out = [f"# {c}" for c in comments]
    out.append(",".join(_fmt_time(t) for t in data.schedule))
    depth = max((len(c) for c in data.counts), default=0)
    for r in range(depth):
        row = [str(col[r]) if r < len(col) else "." for col in data.counts]
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def read_count_csv(path, mass: int) -> CountDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_count_csv(fh.read(), mass)


def write_count_csv(path, data: CountDataset, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_count_csv(data, comments))


# ---------------------------------------------------------------------------
# fit result <-> JSON document


def fit_result_to_dict(fit: FitResult, *, config: Optional[Mapping] = None,
                       seed: Optional[int] = None) -> dict:
    doc = {
        "model": fit.model.value,
        "estimates": {k: float(v) for k, v in fit.estimates.items()},
        "loglik": fit.loglik,
        "n_params": fit.n_params,
        "converged": fit.converged,
        "std_errors": (None if fit.std_errors is None else
                       {k: (None if v is None else float(v))
                        for k, v in fit.std_errors.items()}),
        "info": None if fit.info is None else
                [[float(x) for x in row] for row in fit.info],
        "trace": fit.trace,
    }
    if config is not None:
        doc["config"] = dict(config)
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def fit_result_from_dict(doc: Mapping) -> FitResult:
    return FitResult(
        model=ModelKind(doc["model"]),
        estimates=dict(doc["estimates"]),
        loglik=float(doc["loglik"]),
        n_params=int(doc["n_params"]),
        converged=bool(doc["converged"]),
        info=None if doc.get("info") is None else np.asarray(doc["info"]),
        std_errors=doc.get("std_errors"),
        trace=list(doc.get("trace", [])),
    )


def dump_json(obj, path) -> None:
    """Write a JSON document with a stable layout (sorted keys, newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
