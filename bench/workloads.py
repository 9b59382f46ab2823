"""The benchmark's workloads.

Each workload makes its inputs from the seed when it is constructed
(set-up), as many as a run of the given seconds can use, runs one
operation per `op(i)` call, and checks each result in
`check(i, result)`, which run.py calls outside the timed window; oracle
work happens there.  Every call into masshist goes through the package
namespace at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

import masshist as mh
import masshist.cli  # noqa: F401  (binds mh.cli)

MASS = 300
HORIZON = 60
THETA0 = mh.SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5)
# gamma < 1 puts the Weibull density's u^(gamma-1) singularity at the
# origin, where the fit engine's u-mesh is least accurate
THETA_G075 = mh.SsbParams(alpha=-3.0, beta=0.15, lam=4.0, gamma=0.75)
# a random-effects ensemble with a mean curve near THETA0's
RE_PARAMS = mh.ReParams(mu1=-4.0, mu2=0.15, rho=-0.3, sigma1=1.0,
                        sigma2=0.04)


def op_seeds(seed: int, n: int) -> list[int]:
    """Per-op seeds drawn as replicate-study draws its replicate seeds."""
    return [int(np.random.SeedSequence((seed, i)).generate_state(
        1, dtype=np.uint64)[0]) for i in range(n)]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Workload:
    """Runs end after a whole multiple of `period` ops, and at the latest
    when the inputs run out: set-up makes inputs for `seconds` of ops
    that each take `min_op_s`, a floor far below today's op times."""

    period = 1
    min_op_s = 0.1

    def __init__(self, seed: int, workdir: str, seconds: float):
        n = math.ceil(seconds / self.min_op_s) + self.period
        self.n_inputs = n - n % self.period

    def release(self, i: int, result) -> None:
        """Drop what op i left behind once its result has been used."""


class Recovery(Workload):
    """One replicate of the C1 recovery study, made with the public calls
    replicate-study makes per replicate."""

    name = "recovery"
    why = ("C1 unit of work: simulate 100 trajectories, sacrifice, profiled "
           "SSB fit; the fixed-mesh grid engine dominates; truths alternate "
           "gamma 1.5 and 0.75")
    truths = (THETA0, THETA_G075)
    period = len(truths)  # ops alternate the truths; runs end on a pair
    schedule = mh.SCHEDULE_PRESETS["default"]
    group_size = 10

    def __init__(self, seed: int, workdir: str, seconds: float):
        super().__init__(seed, workdir, seconds)
        self.seeds = op_seeds(seed, self.n_inputs)
        self.gains: list[float] = []

    def op(self, i: int):
        theta = self.truths[i % self.period]
        rep_seed = self.seeds[i]
        trajs = [mh.simulate_trajectory(theta, MASS, HORIZON,
                                        mh.substream(rep_seed, 0, j))
                 for j in range(len(self.schedule) * self.group_size)]
        data = mh.sacrifice_sample(trajs, self.schedule, self.group_size,
                                   mh.substream(rep_seed, 1), MASS)
        lam0, gamma0 = mh.initial_weibull_estimate(data)
        fit = mh.profile_iterate(data, lam0, gamma0, mh.ModelKind.SSB,
                                 config=mh.FitConfig(compute_se=False))
        return data, fit

    def digest(self, i: int, result) -> str:
        _, fit = result
        return _sha(sorted(fit.estimates.items()), fit.loglik, fit.converged)

    def check(self, i: int, result) -> list[str]:
        data, fit = result
        truth = mh.ssb_dataset_loglik(self.truths[i % self.period], data)
        self.gains.append(fit.loglik - truth)
        problems = []
        if not all(math.isfinite(v) for v in fit.estimates.values()):
            problems.append(f"non-finite estimate {fit.estimates}")
        if not fit.loglik >= truth - 1e-6:
            problems.append(f"fitted loglik {fit.loglik!r} below the truth's "
                            f"{truth!r}")
        return problems

    def accuracy(self) -> dict:
        return {"loglik_gain": float(np.mean(self.gains))
                if self.gains else math.nan}


class ModelSelect(Workload):
    """The cheap models of the C8 table, each fitted with standard
    errors by one in-process `masshist fit --model` call: op 0 on the
    shipped counts, later ops on column-wise bootstrap resamples."""

    name = "model_select"
    why = ("C8 path users run: masshist fit --model lrm, lrm_plus, ssb with "
           "standard errors through cli.main on the shipped counts and "
           "bootstrap resamples")
    models = ("lrm", "lrm_plus", "ssb")
    min_op_s = 1.0  # each resample is a CSV written at set-up

    def __init__(self, seed: int, workdir: str, seconds: float):
        super().__init__(seed, workdir, seconds)
        here = os.path.dirname(os.path.abspath(__file__))
        shipped = os.path.join(os.path.dirname(here), "data",
                               "invasion_counts.csv")
        with open(shipped, "r", encoding="utf-8") as fh:
            data = mh.parse_count_csv(fh.read(), MASS)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
        self.workdir = workdir
        self.csvs = [shipped]
        for i in range(1, self.n_inputs):
            cols = tuple(tuple(int(k) for k in rng.choice(col, size=len(col)))
                         for col in data.counts)
            path = os.path.join(workdir, f"boot_{i}.csv")
            mh.write_count_csv(path, mh.CountDataset(
                schedule=data.schedule, counts=cols, mass=MASS))
            self.csvs.append(path)
        self.totals: list[float] = []

    def op(self, i: int):
        status = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for m in self.models:
                out = os.path.join(self.workdir, f"op{i}", m)
                status[m] = mh.cli.main(["fit", self.csvs[i], "--model", m,
                                         "--mass", str(MASS), "--out", out])
        return status

    def _fits(self, i: int, result) -> tuple[dict, list[str]]:
        fits, problems = {}, []
        for m, code in result.items():
            path = os.path.join(self.workdir, f"op{i}", m, "fit.json")
            if code != 0:
                problems.append(f"fit --model {m} exited {code}")
            elif not os.path.exists(path):
                problems.append(f"fit --model {m} wrote no fit.json")
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc.pop("config", None)  # holds the temporary paths
                fits[m] = doc
        return fits, problems

    def digest(self, i: int, result) -> str:
        fits, problems = self._fits(i, result)
        return _sha(json.dumps(fits, sort_keys=True), problems)

    def check(self, i: int, result) -> list[str]:
        fits, problems = self._fits(i, result)
        ll = {m: f.get("loglik") for m, f in fits.items()}
        for m, v in ll.items():
            if not (isinstance(v, float) and math.isfinite(v)):
                problems.append(f"{m} loglik {v!r} is not finite")
        if not problems:
            if ll["lrm_plus"] < ll["lrm"] - 1e-6:
                problems.append(f"nesting: LRM+ {ll['lrm_plus']!r} < "
                                f"LRM {ll['lrm']!r}")
            self.totals.append(sum(ll.values()))
        return problems

    def release(self, i: int, result) -> None:
        shutil.rmtree(os.path.join(self.workdir, f"op{i}"),
                      ignore_errors=True)

    def accuracy(self) -> dict:
        return {"loglik_total": float(np.mean(self.totals))
                if self.totals else math.nan}


class Ensemble(Workload):
    """Simulate-and-diagnose: two 2000-trajectory ensembles, the dynamics
    report without fits, and two count pmfs at mass 300."""

    name = "ensemble"
    why = ("compare's simulate-and-diagnose loop: 2000+2000 trajectories, "
           "Jacobi spectra, two mass-300 pmfs; no fitting, so fit "
           "optimisations are bypassed")
    n_traj = 2000
    hours = (4, 16, 30)
    pmf_points = ((THETA0, 4.0), (THETA_G075, 16.0))
    # 1000x tighter than the default rel_tol, with 30x the subdivisions
    oracle_quad = mh.QuadConfig(rel_tol=1e-13, abs_tol=1e-300,
                                max_subdivisions=2000)

    def __init__(self, seed: int, workdir: str, seconds: float):
        super().__init__(seed, workdir, seconds)
        self.seeds = op_seeds(seed, self.n_inputs)
        self.schedule = mh.SCHEDULE_PRESETS["default"]
        self.oracle = None
        self.pmf_err: list[float] = []
        self.spectrum_err: list[float] = []

    def op(self, i: int):
        s = self.seeds[i]
        ssb = [mh.simulate_trajectory(THETA0, MASS, HORIZON,
                                      mh.substream(s, 0, j))
               for j in range(self.n_traj)]
        data = mh.sacrifice_sample(ssb, self.schedule,
                                   self.n_traj // len(self.schedule),
                                   mh.substream(s, 1), MASS)
        re = [mh.simulate_re_trajectory(RE_PARAMS, MASS, HORIZON,
                                        mh.substream(s, 2, j))
              for j in range(self.n_traj)]
        report = mh.dynamics_report(ssb, re, data, fits=[], hours=self.hours)
        pmfs = [mh.marginal_count_pmf(p, MASS, t) for p, t in self.pmf_points]
        return ssb, re, report, pmfs

    def digest(self, i: int, result) -> str:
        _, _, rep, pmfs = result
        return _sha(rep.mean_ssb.tobytes(), rep.mean_re.tobytes(),
                    rep.cross_ssb, rep.cross_re,
                    rep.spectrum_ssb.eigenvalues.tobytes(),
                    rep.spectrum_re.eigenvalues.tobytes(),
                    *(p.probs.tobytes() for p in pmfs))

    def check(self, i: int, result) -> list[str]:
        ssb, re, rep, pmfs = result
        if self.oracle is None:
            self.oracle = [mh.marginal_count_pmf(p, MASS, t, self.oracle_quad)
                           for p, t in self.pmf_points]
        problems = []
        for pmf, ref in zip(pmfs, self.oracle):
            total = float(pmf.probs.sum())
            if not abs(total - 1.0) <= 1e-8:
                problems.append(f"pmf at t={pmf.t} sums to {total!r}")
        self.pmf_err.append(max(float(np.max(np.abs(p.probs - r.probs)))
                                for p, r in zip(pmfs, self.oracle)))
        err = 0.0
        for ens, spec in ((ssb, rep.spectrum_ssb), (re, rep.spectrum_re)):
            ref = np.linalg.eigvalsh(mh.trajectory_covariance(ens))[::-1]
            err = max(err, float(np.max(np.abs(spec.eigenvalues - ref))
                                 / ref[0]))
        self.spectrum_err.append(err)
        if not err <= 1e-8:
            problems.append(f"Jacobi spectrum off eigvalsh by {err!r}")
        # sacrifice convention: events strictly before t (ROADMAP item 1)
        p0 = float(pmfs[0].probs[0])
        zero = sum(tr.events_before(4.0) == 0 for tr in ssb) / len(ssb)
        se = math.sqrt(p0 * (1.0 - p0) / len(ssb))
        if not abs(zero - p0) <= 4.0 * se:
            problems.append(f"zero fraction at t=4 {zero!r} vs pmf "
                            f"{p0!r} (4 SE = {4.0 * se!r})")
        return problems

    def accuracy(self) -> dict:
        return {"pmf_err_max": max(self.pmf_err, default=math.nan),
                "spectrum_err_max": max(self.spectrum_err, default=math.nan)}


WORKLOADS = {w.name: w for w in (Recovery, ModelSelect, Ensemble)}
