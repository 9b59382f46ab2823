"""Shared fixtures and the acceptance-summary hook.

Expensive artifacts (fits, large ensembles) are session-scoped so the
suite builds each once.  Acceptance tests record one line per criterion
through record_criterion; the terminal-summary hook prints them all at
the end of the run whether or not the assertions passed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import masshist
from masshist.core import ModelKind, SsbParams, read_count_csv
from masshist.estimation import FitConfig, fit_models
from masshist.simulation import (SimConfig, simulate_design,
                                 simulate_trajectory, substream)

REPO_ROOT = Path(__file__).resolve().parent.parent
REAL_DATA_CSV = REPO_ROOT / "data" / "invasion_counts.csv"

THETA0 = SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5, eta=1.0)

_ACCEPTANCE_LINES: list[tuple[int, bool, str]] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Collect one acceptance-criterion verdict for the final summary."""
    _ACCEPTANCE_LINES.append((int(number), bool(passed), str(detail)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(_ACCEPTANCE_LINES):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def theta0() -> SsbParams:
    return THETA0


@pytest.fixture(scope="session")
def real_dataset():
    return read_count_csv(REAL_DATA_CSV, mass=300)


def make_protocol_dataset(seed: int, params: SsbParams = THETA0,
                          mass: int = 300, horizon: int = 60,
                          schedule=(2, 4, 6, 8, 10, 12, 24, 36, 48, 60),
                          group_size: int = 10):
    """One simulated design exactly as the simulate command builds it."""
    return simulate_design(params, SimConfig(seed=seed, mass=mass,
                                             horizon=horizon,
                                             schedule=schedule,
                                             group_size=group_size))


@pytest.fixture(scope="session")
def sim_dataset():
    """The standard simulated design at theta0 (seed 0), counts only."""
    return make_protocol_dataset(seed=0)[1]


@pytest.fixture(scope="session")
def ssb_ensemble_2000(theta0):
    """A large trajectory ensemble at theta0 for distributional checks."""
    return [simulate_trajectory(theta0, 300, 60, substream(123, 0, i))
            for i in range(2000)]


@pytest.fixture(scope="session")
def sim_fits(sim_dataset):
    """All four fixed-parameter models fitted to the simulated design,
    each once: LRM+ and SSB+ reuse the LRM and SSB fits."""
    models = (ModelKind.LRM, ModelKind.LRM_PLUS, ModelKind.SSB,
              ModelKind.SSB_PLUS)
    fits = fit_models(sim_dataset, models, FitConfig(compute_se=False))
    return {f.model: f for f in fits}


@pytest.fixture(scope="session")
def cli_env() -> dict[str, str]:
    """The environment for running the CLI as a subprocess: this
    process's, with ``PYTHONPATH`` led by the absolute directory holding
    the ``masshist`` imported here.  The child then runs the same package
    from any working directory (a relative ``PYTHONPATH=src`` does not
    survive ``cwd=tmp_path``), from a source checkout or an installed copy.
    """
    package_root = str(Path(masshist.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, inherited) if p)
    return env


def run_cli_subprocess(cli_env: dict[str, str], args, cwd, timeout: float):
    """Run ``python -m masshist.cli *args`` in ``cwd`` under the ``cli_env``
    environment, with text output captured."""
    return subprocess.run([sys.executable, "-m", "masshist.cli", *args],
                          env=cli_env, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def charpoly_eigenvalues_3x3(matrix):
    """Eigenvalues of a symmetric 3x3 matrix, descending, found with no
    linear algebra at all: bisection on the characteristic determinant
    det(A - x I), with roots bracketed by Gershgorin discs."""
    a = np.asarray(matrix, dtype=float)

    def p(x):
        m = a - x * np.eye(3)
        return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))

    radius = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    lo = float(np.min(np.diag(a) - radius)) - 1.0
    hi = float(np.max(np.diag(a) + radius)) + 1.0
    xs = np.linspace(lo, hi, 20001)
    vals = np.array([p(x) for x in xs])
    roots = []
    for i in range(xs.size - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
            continue
        if vals[i] * vals[i + 1] >= 0.0:
            continue
        left, right, f_left = float(xs[i]), float(xs[i + 1]), float(vals[i])
        for _ in range(200):
            mid = 0.5 * (left + right)
            f_mid = p(mid)
            if f_mid == 0.0:
                left = right = mid
                break
            if (f_left < 0.0) == (f_mid < 0.0):
                left, f_left = mid, f_mid
            else:
                right = mid
        roots.append(0.5 * (left + right))
    return np.array(sorted(roots, reverse=True))
