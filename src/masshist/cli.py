"""Command-line front-end.

Four subcommands:

  fit              fit one model (or all five plus a BIC table) to a
                   count CSV
  simulate         generate a trajectory ensemble and its sacrificed
                   count dataset
  compare          the full simulate / sacrifice / fit / re-simulate
                   comparison run with plot-data outputs
  replicate-study  repeated simulate-and-refit for parameter recovery

Every run resolves its options from flags plus an optional JSON config
file (flags win), writes the resolved values to config_echo.json next to
its outputs, and is a pure function of (inputs, flags, seed): re-running
reproduces every output byte for byte.  Exit codes: 0 success, 2 input
error, 3 numerical/fit error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .analysis import dynamics_report, write_report
from .core import (CountDataset, ModelKind, SsbParams, dump_json,
                   fit_result_to_dict, format_count_csv, parse_count_csv)
from .errors import CsvFormatError, DomainError, MassHistError
from .estimation import (FitConfig, bic_delta, fit_model,
                         initial_weibull_estimate, profile_iterate,
                         MODEL_ORDER)
from .simulation import (SCHEDULE_PRESETS, SimConfig, sacrifice_sample,
                         simulate_trajectory, substream, run_protocol)

log = logging.getLogger("masshist")

THETA0 = {"alpha": -3.0, "beta": 0.15, "lambda": 4.0, "gamma": 1.5,
          "eta": 1.0}

_THETA_KEYS = ("alpha", "beta", "lambda", "gamma", "eta")
_DESIGN_DEFAULTS = {"mass": 300, "horizon": 60, "group_size": 10,
                    "schedule": "default", "seed": 0}


def _add_theta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="lead-time Weibull scale")
    p.add_argument("--gamma", type=float, default=None,
                   help="lead-time Weibull shape")
    p.add_argument("--eta", type=float, default=None,
                   help="responsive-phase probability (default 1)")


def _add_design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mass", type=int, default=None,
                   help="individuals per group (default 300)")
    p.add_argument("--horizon", type=int, default=None,
                   help="hours simulated per trajectory (default 60)")
    p.add_argument("--schedule", default=None,
                   help="sacrifice times: preset name "
                        f"({'/'.join(SCHEDULE_PRESETS)}) or comma list")
    p.add_argument("--group-size", type=int, default=None,
                   help="replicates sacrificed per time (default 10)")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="masshist",
        description="Fit, simulate, and compare grouped event-count models.")
    top.add_argument("-v", "--verbose", action="count", default=0)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit model(s) to a count CSV")
    p.add_argument("dataset", nargs="?", default=None,
                   help="CSV of counts (header = times, rows = replicates)")
    p.add_argument("--model", default=None,
                   choices=[m.value for m in ModelKind],
                   help="which model to fit")
    p.add_argument("--all-models", action="store_true", default=None,
                   help="fit all five models and write a BIC table")
    p.add_argument("--mass", type=int, default=None,
                   help="individuals per group (default 300)")
    p.add_argument("--no-se", action="store_true", default=None,
                   help="skip standard errors")
    p.add_argument("--out", default=None, help="output directory (default .)")
    p.add_argument("--config", default=None, help="JSON config file")

    p = sub.add_parser("simulate",
                       help="simulate an ensemble and sacrifice it")
    _add_theta_flags(p)
    _add_design_flags(p)
    p.add_argument("--n-trajectories", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("compare",
                       help="full generate/fit/regenerate comparison run")
    _add_theta_flags(p)
    _add_design_flags(p)
    p.add_argument("--n-trajectories", type=int, default=None)
    p.add_argument("--hours", default=None,
                   help="cross-section hours, comma list (default 4,16,30)")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("replicate-study",
                       help="repeated simulate-and-refit recovery study")
    _add_theta_flags(p)
    _add_design_flags(p)
    p.add_argument("--n-reps", type=int, default=None,
                   help="number of replicate studies (default 100)")
    p.add_argument("--workers", type=int, default=None,
                   help="concurrent worker processes (default 1)")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    return top


# ---------------------------------------------------------------------------
# option resolution: flags beat config file beats defaults


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CsvFormatError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise CsvFormatError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise CsvFormatError(f"config {path} must hold a JSON object")
    return doc


def _resolve(ns: argparse.Namespace, keys: dict) -> dict:
    """keys: name -> default.  Namespace attributes left at None fall
    back to the config file, then to the default."""
    cfgfile = _load_config(getattr(ns, "config", None))
    out = {}
    for name, default in keys.items():
        flag = getattr(ns, name, None)
        if flag is not None:
            out[name] = flag
        elif name in cfgfile and cfgfile[name] is not None:
            out[name] = cfgfile[name]
        else:
            out[name] = default
    return out


def _theta_from(opts: dict) -> SsbParams:
    return SsbParams(alpha=float(opts["alpha"]), beta=float(opts["beta"]),
                     lam=float(opts["lam"]), gamma=float(opts["gamma"]),
                     eta=float(opts["eta"]))


def _schedule_from(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(t) for t in value)
    value = str(value)
    if value in SCHEDULE_PRESETS:
        return SCHEDULE_PRESETS[value]
    try:
        return tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError:
        raise DomainError(f"cannot parse schedule {value!r}") from None


def _hours_from(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(h) for h in value)
    try:
        return tuple(float(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError:
        raise DomainError(f"cannot parse hours {value!r}") from None


def _write_echo(outdir: str, echo: dict) -> None:
    os.makedirs(outdir, exist_ok=True)
    dump_json(echo, os.path.join(outdir, "config_echo.json"))


def _read_dataset(path: Optional[str], mass: int) -> CountDataset:
    if not path:
        raise CsvFormatError("no dataset file given")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CsvFormatError(f"cannot read dataset {path}: {e}") from None
    return parse_count_csv(text, mass)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(ns: argparse.Namespace) -> int:
    # re_free_eta (config-file key only): observed datasets are fitted
    # with the random-effects phase probability free by default; the
    # simulation protocol keeps it pinned at 1 so the model stays at
    # five parameters there.
    opts = _resolve(ns, {"dataset": None, "model": None, "all_models": False,
                         "mass": 300, "no_se": False, "out": ".",
                         "re_free_eta": True})
    data = _read_dataset(opts["dataset"], int(opts["mass"]))
    if opts["all_models"]:
        models = list(MODEL_ORDER)
    elif opts["model"]:
        models = [ModelKind(opts["model"])]
    else:
        raise DomainError("give --model or --all-models")
    outdir = str(opts["out"])
    echo = {"command": "fit", "dataset": opts["dataset"],
            "model": opts["model"], "all_models": bool(opts["all_models"]),
            "mass": int(opts["mass"]), "no_se": bool(opts["no_se"]),
            "re_free_eta": bool(opts["re_free_eta"]), "out": outdir}
    _write_echo(outdir, echo)
    cfg = FitConfig(compute_se=not opts["no_se"],
                    re_free_eta=bool(opts["re_free_eta"]))
    fits = []
    for m in models:
        log.info("fitting %s", m.value)
        fit = fit_model(data, m, cfg)
        fits.append(fit)
        name = "fit.json" if len(models) == 1 else f"fit_{m.value}.json"
        dump_json(fit_result_to_dict(fit, config=echo),
                  os.path.join(outdir, name))
        print(f"{m.label}: loglik={fit.loglik!r} params="
              + " ".join(f"{k}={v!r}" for k, v in fit.estimates.items()))
    if opts["all_models"]:
        rows = bic_delta(fits, data.n_obs)
        lines = ["model,label,n_params,loglik,delta_bic"]
        for r in rows:
            lines.append(f"{r['model']},{r['label']},{r['n_params']},"
                         f"{r['loglik']!r},{r['delta_bic']!r}")
        with open(os.path.join(outdir, "bic.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        best = min(rows, key=lambda r: r["delta_bic"])
        print(f"lowest delta-BIC: {best['label']} ({best['delta_bic']!r})")
    return 0


def _write_trajectories(path: str, trajectories) -> None:
    horizon = trajectories[0].horizon
    header = "traj,lead_time," + ",".join(f"h{j}" for j in range(horizon + 1))
    lines = [header]
    for i, tr in enumerate(trajectories):
        lines.append(f"{i},{tr.lead_time!r},"
                     + ",".join(str(int(c)) for c in tr.counts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _sim_options(ns: argparse.Namespace, extra: dict) -> dict:
    keys = {"alpha": THETA0["alpha"], "beta": THETA0["beta"],
            "lam": THETA0["lambda"], "gamma": THETA0["gamma"],
            "eta": THETA0["eta"], **_DESIGN_DEFAULTS,
            "n_trajectories": None, "out": ".", **extra}
    opts = _resolve(ns, keys)
    opts["schedule"] = _schedule_from(opts["schedule"])
    if opts["n_trajectories"] is None:
        opts["n_trajectories"] = len(opts["schedule"]) * int(opts["group_size"])
    return opts


def _sim_config(opts: dict) -> SimConfig:
    return SimConfig(seed=int(opts["seed"]),
                     n_trajectories=int(opts["n_trajectories"]),
                     mass=int(opts["mass"]), horizon=int(opts["horizon"]),
                     schedule=opts["schedule"],
                     group_size=int(opts["group_size"]))


def _sim_echo(command: str, opts: dict, extra: dict) -> dict:
    return {"command": command, "alpha": opts["alpha"], "beta": opts["beta"],
            "lambda": opts["lam"], "gamma": opts["gamma"], "eta": opts["eta"],
            "mass": int(opts["mass"]), "horizon": int(opts["horizon"]),
            "schedule": list(opts["schedule"]),
            "group_size": int(opts["group_size"]),
            "n_trajectories": int(opts["n_trajectories"]),
            "seed": int(opts["seed"]), "out": str(opts["out"]), **extra}


def cmd_simulate(ns: argparse.Namespace) -> int:
    opts = _sim_options(ns, {})
    params = _theta_from(opts)
    config = _sim_config(opts)
    outdir = str(opts["out"])
    _write_echo(outdir, _sim_echo("simulate", opts, {}))
    trajs = [simulate_trajectory(params, config.mass, config.horizon,
                                 substream(config.seed, 0, i))
             for i in range(config.n_trajectories)]
    data = sacrifice_sample(trajs, config.schedule, config.group_size,
                            substream(config.seed, 1), config.mass)
    _write_trajectories(os.path.join(outdir, "trajectories.csv"), trajs)
    with open(os.path.join(outdir, "dataset.csv"), "w", encoding="utf-8") as fh:
        fh.write(format_count_csv(data))
    print(f"wrote {config.n_trajectories} trajectories and a "
          f"{data.n_times}x{config.group_size} dataset to {outdir}")
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    opts = _sim_options(ns, {"hours": "4,16,30"})
    hours = _hours_from(opts["hours"])
    params = _theta_from(opts)
    config = _sim_config(opts)
    outdir = str(opts["out"])
    _write_echo(outdir, _sim_echo("compare", opts,
                                  {"hours": list(hours)}))
    fit_cfg = FitConfig(compute_se=False)
    result = run_protocol(params, config, fit_cfg)
    lrm_fit = fit_model(result.dataset, ModelKind.LRM, fit_cfg)
    fits = [lrm_fit, result.re_fit, result.ssb_fit]
    report = dynamics_report(result.trajectories, result.re_trajectories,
                             result.dataset, fits, hours)
    _write_trajectories(os.path.join(outdir, "trajectories_ssb.csv"),
                        result.trajectories)
    _write_trajectories(os.path.join(outdir, "trajectories_re.csv"),
                        result.re_trajectories)
    with open(os.path.join(outdir, "dataset.csv"), "w", encoding="utf-8") as fh:
        fh.write(format_count_csv(result.dataset))
    write_report(report, outdir)
    print(f"log_lr={result.log_lr!r} "
          f"(shared-lead-time {result.ssb_fit.n_params} params, "
          f"random-effects {result.re_fit.n_params} params)")
    print(f"first-component variance fraction: "
          f"ssb={float(report.spectrum_ssb.cum_frac[0])!r} "
          f"re={float(report.spectrum_re.cum_frac[0])!r}")
    return 0


# one recovery replicate; module-level so process pools can pickle it
def _one_replicate(theta: tuple, design: tuple, rep_seed: int) -> dict:
    params = SsbParams(alpha=theta[0], beta=theta[1], lam=theta[2],
                       gamma=theta[3], eta=theta[4])
    mass, horizon, schedule, group_size = design
    n = len(schedule) * group_size
    trajs = [simulate_trajectory(params, mass, horizon,
                                 substream(rep_seed, 0, i))
             for i in range(n)]
    data = sacrifice_sample(trajs, schedule, group_size,
                            substream(rep_seed, 1), mass)
    lam0, gamma0 = initial_weibull_estimate(data)
    fit = profile_iterate(data, lam0, gamma0, ModelKind.SSB,
                          config=FitConfig(compute_se=False))
    return {"lambda0": lam0, "gamma0": gamma0,
            "alpha": fit.estimates["alpha"], "beta": fit.estimates["beta"],
            "lambda": fit.estimates["lambda"],
            "gamma": fit.estimates["gamma"],
            "loglik": fit.loglik, "converged": fit.converged}


_SUMMARY_ROWS = ("lambda0", "gamma0", "alpha", "beta", "lambda", "gamma")


def cmd_replicate_study(ns: argparse.Namespace) -> int:
    opts = _sim_options(ns, {"n_reps": 100, "workers": 1})
    n_reps = int(opts["n_reps"])
    if n_reps < 1:
        raise DomainError("--n-reps must be >= 1")
    workers = max(1, int(opts["workers"]))
    params = _theta_from(opts)  # validates theta early
    outdir = str(opts["out"])
    _write_echo(outdir, _sim_echo("replicate-study", opts,
                                  {"n_reps": n_reps, "workers": workers}))
    theta = (params.alpha, params.beta, params.lam, params.gamma, params.eta)
    design = (int(opts["mass"]), int(opts["horizon"]), opts["schedule"],
              int(opts["group_size"]))
    seed = int(opts["seed"])
    rep_seeds = [int(np.random.SeedSequence((seed, i)).generate_state(
        1, dtype=np.uint64)[0]) for i in range(n_reps)]

    results: list[Optional[dict]] = [None] * n_reps
    failures = 0
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_one_replicate, theta, design,
                                      rep_seeds[i]) for i in range(n_reps)}
            for i in range(n_reps):
                try:
                    results[i] = futures[i].result()
                except Exception:
                    # one replicate (or a dead worker) must not lose the
                    # study: count it as failed and keep going
                    log.exception("replicate %d failed", i)
                    failures += 1
    else:
        for i in range(n_reps):
            try:
                results[i] = _one_replicate(theta, design, rep_seeds[i])
            except Exception:
                log.exception("replicate %d failed", i)
                failures += 1

    lines = ["replicate," + ",".join(_SUMMARY_ROWS) + ",loglik,converged"]
    for i, r in enumerate(results):
        if r is None:
            continue
        lines.append(f"{i}," + ",".join(f"{r[k]!r}" for k in _SUMMARY_ROWS)
                     + f",{r['loglik']!r},{int(r['converged'])}")
    with open(os.path.join(outdir, "replicates.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    used = [r for r in results if r is not None]
    lines = ["parameter,mean,sd"]
    for name in _SUMMARY_ROWS:
        vals = np.array([r[name] for r in used])
        mean = repr(float(vals.mean())) if used else "nan"
        sd = repr(float(vals.std(ddof=1))) if len(used) > 1 else "nan"
        lines.append(f"{name},{mean},{sd}")
    lines.append(f"n_replicates,{n_reps},")
    lines.append(f"n_used,{len(used)},")
    lines.append(f"n_failed,{failures},")
    with open(os.path.join(outdir, "summary.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for ln in lines[1:7]:
        print(ln)
    if failures:
        print(f"{failures} of {n_reps} replicates failed (see log)")
    return 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=(logging.DEBUG if ns.verbose >= 2
               else logging.INFO if ns.verbose == 1 else logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    commands = {"fit": cmd_fit, "simulate": cmd_simulate,
                "compare": cmd_compare, "replicate-study": cmd_replicate_study}
    try:
        return commands[ns.command](ns)
    except (CsvFormatError, DomainError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except MassHistError as e:
        print(f"fit error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
