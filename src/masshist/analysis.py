"""Ensemble diagnostics: mean curves, cross-sections, and the principal
component structure of trajectory variation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Trajectory
from .errors import DomainError, GridMismatch, NotSymmetric

__all__ = [
    "Spectrum",
    "DynamicsReport",
    "mean_curve",
    "cross_section",
    "trajectory_covariance",
    "pca_cumvar",
    "dynamics_report",
]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order and the cumulative fraction of
    total variance they carry."""

    eigenvalues: np.ndarray
    cum_frac: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float).copy()
        cf = np.asarray(self.cum_frac, dtype=float).copy()
        if ev.ndim != 1 or cf.shape != ev.shape:
            raise DomainError("eigenvalues and cum_frac must be 1-D and align")
        if np.any(np.diff(ev) > 0):
            raise DomainError("eigenvalues must be nonincreasing")
        ev.flags.writeable = False
        cf.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "cum_frac", cf)

    def components_for(self, fraction: float) -> int:
        """Smallest number of leading components whose cumulative
        variance fraction reaches `fraction`."""
        if not (0.0 < fraction <= 1.0):
            raise DomainError("fraction must lie in (0, 1]")
        idx = np.nonzero(self.cum_frac >= fraction - 1e-12)[0]
        if idx.size == 0:
            return self.cum_frac.size
        return int(idx[0]) + 1


def _count_matrix(trajectories: Sequence[Trajectory]) -> np.ndarray:
    """The ensemble's hourly records stacked into one (n, horizon + 1)
    matrix; row i is trajectory i's N(0), ..., N(horizon)."""
    if not trajectories:
        raise DomainError("need at least one trajectory")
    if len({tr.counts.size for tr in trajectories}) > 1:
        raise GridMismatch("trajectories cover different horizons")
    return np.stack([tr.counts for tr in trajectories])


def mean_curve(trajectories: Sequence[Trajectory]) -> np.ndarray:
    """Pointwise mean of N(h) over an ensemble sharing one horizon."""
    return _count_matrix(trajectories).mean(axis=0)


def cross_section(trajectories: Sequence[Trajectory],
                  hour: float) -> dict[int, int]:
    """Empirical distribution of N(hour) at a whole hour in
    0..horizon: {count: number of trajectories showing it}."""
    x = _count_matrix(trajectories)
    h = float(hour)
    if not (h.is_integer() and 0 <= h < x.shape[1]):
        raise DomainError(f"hour {hour!r} is not a whole hour in "
                          f"0..{x.shape[1] - 1}")
    ks, n = np.unique(x[:, int(h)], return_counts=True)
    return {int(k): int(c) for k, c in zip(ks, n)}


def trajectory_covariance(trajectories: Sequence[Trajectory]) -> np.ndarray:
    """Sample covariance (divisor n - 1) of the count vectors over hours
    1..horizon; hour 0 is dropped because N(0) = 0 for every group.
    The result is symmetrized entry-by-entry so downstream eigensolvers
    see an exactly symmetric matrix."""
    x = _count_matrix(trajectories)
    if len(trajectories) < 2:
        raise DomainError("covariance needs at least two trajectories")
    if x.shape[1] < 2:
        raise DomainError("covariance needs hours beyond 0")
    x = x[:, 1:].astype(float)
    x -= x.mean(axis=0)
    cov = x.T @ x / (len(trajectories) - 1)
    return 0.5 * (cov + cov.T)


def pca_cumvar(cov: np.ndarray, asym_tol: float = 1e-10) -> Spectrum:
    """Principal component spectrum of a covariance matrix.

    Validates symmetry (relative to the largest entry), takes the
    eigenvalues from LAPACK's symmetric solver, and returns them in
    descending order with cumulative variance fractions.
    A zero matrix has no variance to apportion; its cum_frac is all
    ones by convention.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DomainError("covariance must be square")
    biggest = float(np.max(np.abs(cov))) if cov.size else 0.0
    asym = float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0
    if asym > asym_tol * max(biggest, 1e-300):
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds {asym_tol:.1e} of the largest "
            f"entry {biggest:.3e}")
    ev = np.linalg.eigvalsh(0.5 * (cov + cov.T))[::-1]
    total = float(ev.sum())
    if total <= 0.0:
        cum = np.ones_like(ev)
    else:
        cum = np.minimum(np.cumsum(ev) / total, 1.0)
    return Spectrum(eigenvalues=ev, cum_frac=cum)


# ---------------------------------------------------------------------------
# side-by-side ensemble report


@dataclass
class DynamicsReport:
    """Summaries of the two competing trajectory ensembles over their
    common hours `grid` = 0..horizon: mean curves, count distributions
    at selected hours, principal component spectra, the fitted
    log-likelihood ratio, and the BIC table when a baseline fit is
    available."""

    grid: np.ndarray
    hours: tuple[float, ...]
    mean_ssb: np.ndarray
    mean_re: np.ndarray
    cross_ssb: dict[float, dict[int, int]]
    cross_re: dict[float, dict[int, int]]
    spectrum_ssb: Spectrum
    spectrum_re: Spectrum
    fits: dict[str, "FitResult"]
    log_lr: Optional[float]
    bic: Optional[list[dict]]
    n_obs: int


def dynamics_report(ssb_ensemble: Sequence[Trajectory],
                    re_ensemble: Sequence[Trajectory],
                    dataset: "CountDataset",
                    fits: Sequence["FitResult"],
                    hours: Sequence[float] = (4, 16, 30)) -> DynamicsReport:
    """Bundle every §-style comparison between the two ensembles.

    `fits` are the models fitted to `dataset`; when both a shared-lead-
    time fit and a random-effects fit are present their log-likelihood
    ratio is reported, and when the plain logistic baseline is present
    the BIC table is included.
    """
    from .core import ModelKind
    from .estimation import bic_delta

    mean_ssb, mean_re = mean_curve(ssb_ensemble), mean_curve(re_ensemble)
    if mean_ssb.size != mean_re.size:
        raise GridMismatch("the two ensembles cover different horizons")
    by_model = {f.model: f for f in fits}
    ssb_fit = by_model.get(ModelKind.SSB) or by_model.get(ModelKind.SSB_PLUS)
    re_fit = by_model.get(ModelKind.LRM_RE)
    log_lr = (float(ssb_fit.loglik - re_fit.loglik)
              if ssb_fit is not None and re_fit is not None else None)
    bic = (bic_delta(list(fits), dataset.n_obs)
           if ModelKind.LRM in by_model else None)
    return DynamicsReport(
        grid=np.arange(mean_ssb.size),
        hours=tuple(float(h) for h in hours),
        mean_ssb=mean_ssb,
        mean_re=mean_re,
        cross_ssb={float(h): cross_section(ssb_ensemble, h) for h in hours},
        cross_re={float(h): cross_section(re_ensemble, h) for h in hours},
        spectrum_ssb=pca_cumvar(trajectory_covariance(ssb_ensemble)),
        spectrum_re=pca_cumvar(trajectory_covariance(re_ensemble)),
        fits={f.model.value: f for f in fits},
        log_lr=log_lr,
        bic=bic,
        n_obs=dataset.n_obs,
    )


def _fmt_hour(h: float) -> str:
    return str(int(h)) if float(h).is_integer() else repr(float(h))


def write_report(report: DynamicsReport, outdir) -> list[str]:
    """Serialize a DynamicsReport to plot-data CSVs plus summary.json in
    outdir; returns the file names written."""
    import os

    from .core import dump_json, fit_result_to_dict

    os.makedirs(outdir, exist_ok=True)
    written = []

    def emit(name: str, lines: list[str]) -> None:
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(name)

    emit("mean_curves.csv",
         ["hour,ssb,re"]
         + [f"{int(h)},{float(ssb)!r},{float(re)!r}" for h, ssb, re in
            zip(report.grid, report.mean_ssb, report.mean_re)])
    for h in report.hours:
        da, db = report.cross_ssb[h], report.cross_re[h]
        keys = sorted(set(da) | set(db))
        emit(f"cross_section_{_fmt_hour(h)}.csv",
             ["count,ssb,re"] + [f"{k},{da.get(k, 0)},{db.get(k, 0)}"
                                 for k in keys])
    for name, spec in (("ssb", report.spectrum_ssb), ("re", report.spectrum_re)):
        emit(f"spectrum_{name}.csv",
             ["component,eigenvalue,cum_frac"]
             + [f"{i + 1},{float(ev)!r},{float(cf)!r}" for i, (ev, cf) in
                enumerate(zip(spec.eigenvalues, spec.cum_frac))])
    summary = {
        "hours": list(report.hours),
        "log_lr": report.log_lr,
        "n_obs": report.n_obs,
        "n_params": {m: f.n_params for m, f in report.fits.items()},
        "loglik": {m: f.loglik for m, f in report.fits.items()},
        "fits": {m: fit_result_to_dict(f) for m, f in report.fits.items()},
        "bic": report.bic,
        "first_component_fraction": {
            "ssb": float(report.spectrum_ssb.cum_frac[0]),
            "re": float(report.spectrum_re.cum_frac[0]),
        },
    }
    dump_json(summary, os.path.join(outdir, "summary.json"))
    written.append("summary.json")
    return written
