"""Which masshist functions the traced run spans, and how the spans
become per-layer metrics.

The layers are the package modules.  Each metric is given per op (its
total over the traced ops divided by their number) unless its unit says
otherwise, together with the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import Target, self_times

LAYERS = ("cli", "core", "estimation", "likelihood", "quadrature",
          "simulation", "analysis")


def _count_evals(tracer, counts, args, kwargs):
    counts["evals"] = 0
    args = list(args)
    fn = args[0] if args else kwargs["loglik"]

    def counted(theta):
        counts["evals"] += 1
        return fn(theta)

    if args:
        args[0] = counted
    else:
        kwargs = dict(kwargs, loglik=counted)
    return tuple(args), kwargs


def _grid_counts(tracer, counts, args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    incumbent = args[2] if len(args) > 2 else kwargs.get("incumbent")
    counts["points"] = math.prod(ax.n_points for ax in spec.axes) * (
        spec.refine_levels + 1)
    best = -math.inf if incumbent is None else float(incumbent[1])
    improving = 0
    for lv in result.levels:
        improving += lv["scan_max"] > best
        best = lv["value"]
    counts["levels"] = len(result.levels)
    counts["improving"] = improving
    return result


def _quad_counts(tracer, counts, args, kwargs, result):
    counts["panels"] = len(result.panels)
    counts["unconverged"] = int(not result.converged)
    return result


def _not_converged(tracer, counts, args, kwargs, result):
    counts["not_converged"] = int(not result.converged)
    return result


def _trace_frozen(tracer, counts, args, kwargs, result):
    return tracer.wrap("likelihood.frozen_dataset_loglik.eval", result)


def _fit_label(args, kwargs):
    model = args[1] if len(args) > 1 else kwargs["model"]
    return f"estimation.fit_model.{getattr(model, 'value', model)}"


TARGETS = (
    Target("cli", "main"),
    Target("core", "parse_count_csv"),
    Target("estimation", "fit_model", after=_not_converged, label=_fit_label),
    Target("estimation", "observed_information", before=_count_evals),
    Target("estimation", "profile_iterate", after=_not_converged),
    Target("estimation", "grid_search_logistic"),
    Target("estimation", "grid_refine_max", after=_grid_counts),
    Target("estimation", "initial_weibull_estimate"),
    Target("likelihood", "ssb_dataset_loglik"),
    Target("likelihood", "frozen_dataset_loglik", after=_trace_frozen),
    Target("likelihood", "marginal_count_pmf"),
    Target("likelihood", "lrm_loglik"),
    Target("quadrature", "integrate_weibull", after=_quad_counts),
    Target("simulation", "substream"),
    Target("simulation", "simulate_trajectory"),
    Target("simulation", "simulate_re_trajectory"),
    Target("simulation", "sacrifice_sample"),
    Target("analysis", "trajectory_covariance"),
    Target("analysis", "pca_cumvar"),
    Target("analysis", "dynamics_report"),
)

_FIT = "ops_per_s, op_p50_s on recovery (~90% of an op) and model_select"
_MS = "ops_per_s, op_p50_s on model_select"
_ENS = "ops_per_s, op_p50_s on ensemble"

# (metric, span key, field, unit, better, what it should move).  A span
# key is the traced name without "masshist."; "lead_time_sweep" is the
# grid_refine_max spans whose parent is profile_iterate, because the
# lead-time stage is private.
SPAN_METRICS = (
    ("grid_search_logistic.calls", "estimation.grid_search_logistic", "calls",
     "count/op", "lower", _FIT),
    ("grid_search_logistic.s", "estimation.grid_search_logistic", "s",
     "s/op", "lower", _FIT),
    ("grid_search_logistic.points", "grid_search_logistic", "points",
     "count/op", "lower", _FIT),
    ("lead_time_sweep.calls", "lead_time_sweep", "calls", "count/op",
     "lower", _FIT),
    ("lead_time_sweep.s", "lead_time_sweep", "s", "s/op", "lower", _FIT),
    ("lead_time_sweep.points", "lead_time_sweep", "points", "count/op",
     "lower", _FIT),
    ("profile_iterate.self_s", "estimation.profile_iterate", "self_s",
     "s/op", "lower", _FIT + "; mostly the Nelder-Mead polish"),
    ("profile_iterate.not_converged", "estimation.profile_iterate",
     "not_converged", "count/op", "lower", "loglik_gain on recovery"),
    ("initial_weibull_estimate.s", "estimation.initial_weibull_estimate",
     "s", "s/op", "lower", _FIT),
    ("fit_model.lrm.s", "estimation.fit_model.lrm", "s", "s/op", "lower",
     _MS),
    ("fit_model.lrm_plus.s", "estimation.fit_model.lrm_plus", "s", "s/op",
     "lower", _MS),
    ("fit_model.ssb.s", "estimation.fit_model.ssb", "s", "s/op", "lower",
     _MS),
    ("fit_model.not_converged", "fit_model", "not_converged", "count/op",
     "lower", "loglik_total on model_select"),
    ("observed_information.s", "estimation.observed_information", "s",
     "s/op", "lower", _MS + " (standard errors)"),
    ("observed_information.evals", "estimation.observed_information",
     "evals", "count/op", "lower", _MS + " (standard errors)"),
    ("frozen_dataset_loglik.build_s", "likelihood.frozen_dataset_loglik",
     "s", "s/op", "lower", _MS + " (SSB standard errors)"),
    ("frozen_dataset_loglik.evals", "likelihood.frozen_dataset_loglik.eval",
     "calls", "count/op", "lower", _MS + " (SSB standard errors)"),
    ("frozen_dataset_loglik.eval_s", "likelihood.frozen_dataset_loglik.eval",
     "s", "s/op", "lower", _MS + " (SSB standard errors)"),
    ("ssb_dataset_loglik.calls", "likelihood.ssb_dataset_loglik", "calls",
     "count/op", "lower", "ops_per_s on recovery (~5%) and model_select"),
    ("ssb_dataset_loglik.s", "likelihood.ssb_dataset_loglik", "s", "s/op",
     "lower", "ops_per_s on recovery (~5%) and model_select"),
    ("marginal_count_pmf.calls", "likelihood.marginal_count_pmf", "calls",
     "count/op", "lower", _ENS + "; pmf_err_max"),
    ("marginal_count_pmf.s", "likelihood.marginal_count_pmf", "s", "s/op",
     "lower", _ENS + "; pmf_err_max"),
    ("lrm_loglik.calls", "likelihood.lrm_loglik", "calls", "count/op",
     "lower", _MS + " (small)"),
    ("lrm_loglik.s", "likelihood.lrm_loglik", "s", "s/op", "lower",
     _MS + " (small)"),
    ("integrate_weibull.calls", "quadrature.integrate_weibull", "calls",
     "count/op", "lower", "ops_per_s on all three; pmf_err_max"),
    ("integrate_weibull.s", "quadrature.integrate_weibull", "s", "s/op",
     "lower", "ops_per_s on all three; pmf_err_max"),
    ("integrate_weibull.panels", "quadrature.integrate_weibull", "panels",
     "count/op", "lower", "ops_per_s on all three; pmf_err_max"),
    ("integrate_weibull.unconverged", "quadrature.integrate_weibull",
     "unconverged", "count/op", "lower",
     "pmf_err_max, loglik_gain: integrals that exhausted their budget"),
    ("simulate_trajectory.calls", "simulation.simulate_trajectory", "calls",
     "count/op", "lower", _ENS + ", peak_rss_mb"),
    ("simulate_trajectory.s", "simulation.simulate_trajectory", "s", "s/op",
     "lower", _ENS + ", peak_rss_mb"),
    ("simulate_re_trajectory.calls", "simulation.simulate_re_trajectory",
     "calls", "count/op", "lower", _ENS + ", peak_rss_mb"),
    ("simulate_re_trajectory.s", "simulation.simulate_re_trajectory", "s",
     "s/op", "lower", _ENS + ", peak_rss_mb"),
    ("sacrifice_sample.s", "simulation.sacrifice_sample", "s", "s/op",
     "lower", _ENS),
    ("trajectory_covariance.s", "analysis.trajectory_covariance", "s",
     "s/op", "lower", _ENS + "; spectrum_err_max"),
    ("pca_cumvar.s", "analysis.pca_cumvar", "s", "s/op", "lower",
     _ENS + "; spectrum_err_max"),
    ("dynamics_report.self_s", "analysis.dynamics_report", "self_s", "s/op",
     "lower", _ENS),
    ("cli.main.self_s", "cli.main", "self_s", "s/op", "lower",
     _MS + " (output writing; small)"),
    ("core.parse_count_csv.s", "core.parse_count_csv", "s", "s/op", "lower",
     _MS + " (parsing; small)"),
) + tuple(
    (f"layer.{m}.self_s", f"layer.{m}", "self_s", "s/op", "lower",
     f"ops_per_s wherever the {m} layer runs") for m in LAYERS)

# metrics the runner adds beside the span metrics
RUN_METRICS = (
    ("n_ops", "count", "higher", "ops the traced run replayed"),
    ("wall_ops_per_s", "1/s", "higher",
     "ops_per_s by the wall clock, not scaled to the reference speed"),
    ("machine_speed", "ratio", "higher",
     "median REF_S / reference kernel time over the untraced ops"),
    ("untraced_ops_per_s", "1/s", "higher", "the ops run untraced"),
    ("traced_ops_per_s", "1/s", "higher", "the same ops run traced"),
    ("trace_overhead_frac", "fraction", "lower",
     "1 - traced_ops_per_s / untraced_ops_per_s"),
    ("unspanned_frac", "fraction", "lower",
     "share of op wall time outside every layer span (benchmark glue)"),
    ("grid_refine_max.improving_frac", "fraction", "higher",
     "share of grid refine levels whose scan beat the incumbent; tracks "
     "loglik_gain and loglik_total"),
    ("failed_frac", "fraction", "lower", "ops that raised or failed a check"),
    ("loglik_gain", "nat", "higher",
     "recovery: mean fitted minus truth loglik (0 elsewhere)"),
    ("loglik_total", "nat", "higher",
     "model_select: mean over ops of the summed fitted logliks "
     "(0 elsewhere)"),
    ("pmf_err_max", "prob", "lower",
     "ensemble: max |pmf - tight-quadrature oracle| (0 elsewhere)"),
    ("spectrum_err_max", "rel", "lower",
     "ensemble: max |jacobi - eigvalsh| / lambda_max (0 elsewhere)"),
)


def summarize(spans, n_ops: int, speeds=None) -> dict[str, float]:
    """Span metrics per op, plus grid_refine_max.improving_frac and
    unspanned_frac.  Span times of op i are multiplied by speeds[i]
    (the runner's machine-speed scale for that op) when given."""
    selfs = self_times(spans)
    agg: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for rec, self_s in zip(spans, selfs):
        name, start, end, parent, op, counts = rec
        scale = 1.0 if speeds is None else speeds[op]
        keys = [name]
        if name.startswith("estimation.fit_model."):
            keys.append("fit_model")
        if name != "op":
            keys.append("layer." + name.split(".")[0])
        if name == "estimation.grid_refine_max" and parent >= 0:
            pname = spans[parent][0]
            if pname == "estimation.profile_iterate":
                keys.append("lead_time_sweep")
            elif pname == "estimation.grid_search_logistic":
                keys.append("grid_search_logistic")
        for key in keys:
            a = agg[key]
            a["calls"] += 1
            a["s"] += (end - start) * scale
            a["self_s"] += self_s * scale
            for k, v in counts.items():
                a[k] += v
    out = {name: agg[key][field] / n_ops if key in agg else 0.0
           for name, key, field, *_ in SPAN_METRICS}
    grid = agg.get("estimation.grid_refine_max")
    out["grid_refine_max.improving_frac"] = (
        grid["improving"] / grid["levels"] if grid else 0.0)
    op = agg["op"]
    out["unspanned_frac"] = op["self_s"] / op["s"] if op["s"] else 0.0
    return out
