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
from dataclasses import astuple, dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import CsvFormatError, DomainError

__all__ = [
    "ModelKind",
    "SsbParams",
    "ReParams",
    "CountDataset",
    "CellTable",
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
    def names(self) -> tuple[str, ...]:
        """External parameter names in canonical order, the order of a
        fit's estimates ("lambda" is the external name of SsbParams.lam).
        LRM_RE lists its five (eta pinned at 1); a free-eta random
        effects fit appends "eta"."""
        return _NAMES[self]

    @property
    def n_params(self) -> int:
        """Free parameter count in the default parametrization; fit
        results record their own count."""
        return len(self.names)


_LABELS = {
    ModelKind.LRM: "LRM",
    ModelKind.LRM_PLUS: "LRM+",
    ModelKind.LRM_RE: "LRM-RE",
    ModelKind.SSB: "SSB",
    ModelKind.SSB_PLUS: "SSB+",
}

_NAMES = {
    ModelKind.LRM: ("alpha", "beta"),
    ModelKind.LRM_PLUS: ("alpha", "beta", "eta"),
    ModelKind.LRM_RE: ("mu1", "mu2", "rho", "sigma1", "sigma2"),
    ModelKind.SSB: ("alpha", "beta", "lambda", "gamma"),
    ModelKind.SSB_PLUS: ("alpha", "beta", "lambda", "gamma", "eta"),
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

    The likelihoods read the dataset through its cell table (`cells`):
    the distinct (t, k) cells with their multiplicities and binomial
    coefficients, built once on first use.
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

    @property
    def cells(self) -> CellTable:
        """The dataset's cell table, built on first use and kept: the
        dataset is frozen, so every likelihood evaluation reads the same
        arrays."""
        table = self.__dict__.get("_cells")
        if table is None:
            table = _cell_table(self)
            self.__dict__["_cells"] = table
        return table

    def grouped(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """Per time with observations: (t, distinct counts ascending,
        multiplicities), as read-only views into the cell table."""
        c = self.cells
        return [(float(t), c.k[a:b], c.mult[a:b])
                for t, a, b in zip(c.times, c.starts[:-1], c.starts[1:])]

    def n_distinct_times(self) -> int:
        return self.cells.times.size


@dataclass(frozen=True)
class CellTable:
    """A CountDataset's distinct (t, k) cells, in time order and by
    ascending count within a time; likelihoods are sums over
    observations, so each cell is evaluated once and weighted by its
    multiplicity.

    t, k, mult, logc: per cell, the time, the count, how many groups
                      showed it, and log C(mass, k).
    times:            the times with at least one observation.
    starts:           cells starts[j]:starts[j+1] belong to times[j];
                      len(times) + 1 entries.
    time_index:       per cell, the index of its time in `times`.
    All arrays are read-only.
    """

    t: np.ndarray
    k: np.ndarray
    mult: np.ndarray
    logc: np.ndarray
    times: np.ndarray
    starts: np.ndarray
    time_index: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.k.size


def _cell_table(data: CountDataset) -> CellTable:
    """Collapse data's observations into its CellTable."""
    times, ks, mults = [], [], []
    for t, col in zip(data.schedule, data.counts):
        if col:
            k, m = np.unique(np.asarray(col, dtype=np.int64),
                             return_counts=True)
            times.append(t)
            ks.append(k)
            mults.append(m)
    sizes = np.array([k.size for k in ks], dtype=np.int64)
    times = np.array(times, dtype=float)
    time_index = np.repeat(np.arange(times.size), sizes)
    none = np.zeros(0, dtype=np.int64)
    k = np.concatenate([none, *ks])
    mult = np.concatenate([none, *mults])
    mass = data.mass
    logc = gammaln(mass + 1) - gammaln(k + 1) - gammaln(mass - k + 1)
    arrays = dict(t=times[time_index], k=k, mult=mult, logc=logc,
                  times=times, starts=np.concatenate(([0], np.cumsum(sizes))),
                  time_index=time_index)
    for a in arrays.values():
        a.flags.writeable = False
    return CellTable(**arrays)


@dataclass(frozen=True)
class Trajectory:
    """One simulated group's hourly count record.

    counts:    counts[h] = N(h), the number of events strictly before
               hour h, for h = 0, 1, ..., horizon; nondecreasing, and
               N(0) = 0 for every simulated group.
    lead_time: the group's shared latent lead time (0 for models
               without one).
    """

    counts: np.ndarray
    lead_time: float

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        _require(counts.ndim == 1 and counts.size >= 1,
                 "counts must be a non-empty 1-D array")
        _require(bool(np.all(counts >= 0)), "counts must be nonnegative")
        _require(bool(np.all(np.diff(counts) >= 0)), "counts must be nondecreasing")
        object.__setattr__(self, "lead_time", _finite(self.lead_time, "lead_time"))

    @property
    def horizon(self) -> int:
        return self.counts.size - 1

    def events_before(self, t: float) -> int:
        """N(t), the number of events strictly before the whole hour t
        in 0..horizon."""
        t = float(t)
        if not (t.is_integer() and 0 <= t <= self.horizon):
            raise DomainError(f"time {t!r} is not a whole hour in 0..{self.horizon}")
        return int(self.counts[int(t)])


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
# parameter <-> plain-dict conversion, by ModelKind.names


def validate_params(model: ModelKind, values: Mapping[str, float]):
    """Turn a name->value mapping into the parameter object for a model,
    applying that model's domain checks.  values needs the model's
    names; eta defaults to 1, which LRM and SSB require, and "lam" is
    accepted for "lambda".  Other keys are ignored.

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
    names = [n for n in model.names if n != "eta"]
    missing = [n for n in names if n not in vals]
    if missing:
        raise DomainError(f"missing parameter(s): {', '.join(missing)}")
    eta = vals.get("eta", 1.0)
    if model in (ModelKind.LRM, ModelKind.SSB) and float(eta) != 1.0:
        raise DomainError(f"{model.label} fixes eta = 1")
    theta = [vals[n] for n in names]
    if model is ModelKind.LRM_RE:
        return ReParams(*theta, eta=eta)
    if model in (ModelKind.SSB, ModelKind.SSB_PLUS):
        return SsbParams(*theta, eta=eta)
    alpha, beta = (_finite(vals[n], n) for n in names)
    _require(beta > 0.0, f"beta must be > 0, got {beta!r}")
    eta = _finite(eta, "eta")
    _require(0.0 <= eta <= 1.0, f"eta must lie in [0, 1], got {eta!r}")
    return {"alpha": alpha, "beta": beta, "eta": eta}


def params_to_dict(params) -> dict[str, float]:
    """Serialize a parameter object to external names, eta last."""
    if isinstance(params, (SsbParams, ReParams)):
        model = (ModelKind.SSB if isinstance(params, SsbParams)
                 else ModelKind.LRM_RE)
        return dict(zip(model.names + ("eta",), astuple(params)))
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
