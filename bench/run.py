"""masshist benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload recovery --seed 1 --seconds 20 --trace 0

runs ops of the workload back to back until --seconds of op time have
passed (recovery ends on a whole pair of truths) or the inputs made at
set-up run out, checks every op's output outside the timed window, and
prints the end-to-end metrics; the last stdout line is one JSON object
{correct, attempted, failed, metrics}.  Times are scaled to a reference
machine speed measured between ops (see reference.py); the wall-clock
figures are kept beside them in the results file.  setup_s times fresh
processes from their start until the workload is set up.  With --trace 1
the same ops are then replayed with spans around the calls into each
masshist layer, and the last line carries the per-layer metrics instead
(see layers.py), including the tracing overhead.  Full results, per-op
digests and spans go to bench/out/.

    python3 bench/run.py --write-spec

rewrites BENCHMARK.json from the definitions here.  The tests of the
tracer run with `python3 -m pytest bench`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# single-threaded BLAS: the matrices are small, and one thread keeps runs
# steady on a shared two-core machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

from reference import REF_S, reference_s  # noqa: E402  (after BLAS_ENV)

RUN_SECONDS = 30
SETUP_SAMPLES = 3

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


def import_masshist():
    """Import masshist from this checkout's src by absolute path, never
    from an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "masshist")):
        sys.exit(f"no masshist sources under {SRC}")
    sys.path.insert(0, SRC)
    import masshist
    if os.path.dirname(os.path.abspath(masshist.__file__)) != os.path.join(
            SRC, "masshist"):
        sys.exit(f"imported masshist from {masshist.__file__}, not {SRC}")
    return masshist


def git_state() -> tuple:
    """(commit, whether the worktree differs from it) for a git checkout;
    (None, None) outside one.  Git never looks above the checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", "-C", ROOT,
                               *args], env=env, capture_output=True,
                              text=True, check=True, timeout=60).stdout

    try:
        return (git("rev-parse", "HEAD").strip(),
                bool(git("status", "--porcelain").strip()))
    except (OSError, subprocess.SubprocessError):
        return None, None


def provenance(mh, args) -> dict:
    import numpy
    import scipy
    commit, dirty = git_state()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "git_commit": commit, "git_dirty": dirty,
            "masshist": mh.__version__, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


class Timer:
    """Times calls, and the reference kernel between them: speeds[i] is
    REF_S over the mean of the kernel's times just before call i and
    just after it."""

    def __init__(self):
        self.before = reference_s()
        self.durations: list[float] = []
        self.speeds: list[float] = []

    def time(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.durations.append(time.perf_counter() - t0)

    def rate(self) -> None:
        """Time the kernel after the last call, once whatever that call
        returned has been dropped."""
        after = reference_s()
        self.speeds.append(REF_S / (0.5 * (self.before + after)))
        self.before = after

    def scaled(self) -> list[float]:
        """Durations as on a machine where the kernel takes REF_S."""
        return [d * s for d, s in zip(self.durations, self.speeds)]


def start_until_ready(cmd) -> subprocess.Popen:
    """Start a --setup-only process; return once it reports ready."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    if proc.stdout.readline() != "ready\n":
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up process ended before it was ready")
    return proc


def setup_samples(args) -> Timer:
    """Times fresh processes from their start until they have imported
    masshist and set the workload up; their exit is not timed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    timer = Timer()
    for _ in range(SETUP_SAMPLES):
        proc = timer.time(start_until_ready, cmd)
        proc.communicate(timeout=120)
        if proc.returncode:
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        timer.rate()
    return timer


def run_ops(wl, seconds: float):
    """Closed loop: the next op starts when the previous one returns.
    Checks run between ops, outside the op timings, and each op's result
    is dropped before the reference kernel and the next op run."""
    timer = Timer()
    digests, failures = [], []
    i = 0
    while i < wl.n_inputs and (sum(timer.durations) < seconds
                               or i % wl.period):
        try:
            result = timer.time(wl.op, i)
            cause = None
        except Exception:
            result = None
            cause = traceback.format_exc(limit=3)
        if result is not None:
            digests.append(wl.digest(i, result))
            problems = wl.check(i, result)
            wl.release(i, result)
            if problems:
                cause = "; ".join(problems)
        else:
            digests.append(None)
        result = None
        timer.rate()
        if cause is not None:
            failures.append({"op": i, "cause": cause})
        i += 1
    return timer, digests, failures


def replay_traced(wl, n_ops: int, digests: list):
    """Run ops 0..n_ops-1 again with spans around every layer call;
    returns (Timer, spans, ops whose outputs differ from the untraced
    run's)."""
    from layers import TARGETS
    from tracer import Tracer

    tracer = Tracer(TARGETS)
    timer = Timer()
    mismatched = []
    with tracer:
        for i in range(n_ops):
            tracer.op_id = i
            try:
                result = timer.time(tracer.span, "op", wl.op, (i,))
            except Exception:
                result = None
            digest = None if result is None else wl.digest(i, result)
            if result is not None:
                wl.release(i, result)
            result = None
            timer.rate()
            if digest != digests[i]:
                mismatched.append(i)
    return timer, tracer.spans, mismatched


def write_spec(path: str) -> None:
    from layers import RUN_METRICS, SPAN_METRICS
    from workloads import WORKLOADS

    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, _, _, u, b, _ in SPAN_METRICS]
        + [{"name": n, "unit": u, "better": b}
           for n, u, b, _ in RUN_METRICS],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (for setup_s)")
    p.add_argument("--write-spec", action="store_true",
                   help="rewrite BENCHMARK.json and exit")
    args = p.parse_args(argv)

    mh = import_masshist()
    from workloads import WORKLOADS

    if args.write_spec:
        write_spec(os.path.join(ROOT, "BENCHMARK.json"))
        return 0
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir, args.seconds)
            print("ready", flush=True)
            return 0
        setup = setup_samples(args)
        wl = WORKLOADS[args.workload](args.seed, workdir, args.seconds)
        ops, digests, failures = run_ops(wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n = len(ops.durations)
        e2e = {"ops_per_s": n / sum(ops.scaled()),
               "op_p50_s": statistics.median(ops.scaled()),
               "peak_rss_mb": rss_mb,
               "setup_s": statistics.median(setup.scaled())}
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
        wall = {"ops_per_s": n / sum(ops.durations),
                "op_p50_s": statistics.median(ops.durations),
                "setup_s": statistics.median(setup.durations)}
        result = {"provenance": provenance(mh, args), "n_ops": n,
                  "end_to_end": e2e, "wall_clock": wall,
                  "setup_samples_s": setup.durations,
                  "setup_speeds": setup.speeds,
                  "op_durations_s": ops.durations, "op_speeds": ops.speeds,
                  "op_digests": digests}
        if args.trace:
            from layers import RUN_METRICS, SPAN_METRICS, summarize
            replay, spans, mismatched = replay_traced(wl, n, digests)
            failures += [{"op": i, "cause": "traced replay output differs "
                          "from the untraced run"} for i in mismatched]
        failed = len({f["op"] for f in failures})
        accuracy = {"loglik_gain": 0.0, "loglik_total": 0.0,
                    "pmf_err_max": 0.0, "spectrum_err_max": 0.0,
                    **wl.accuracy(), "failed_frac": failed / n}
        result.update(accuracy=accuracy, failures=failures)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            untraced, traced = e2e["ops_per_s"], n / sum(replay.scaled())
            layer = {**summarize(spans, n, replay.speeds), **accuracy,
                     "n_ops": n, "wall_ops_per_s": wall["ops_per_s"],
                     "machine_speed": statistics.median(ops.speeds),
                     "untraced_ops_per_s": untraced,
                     "traced_ops_per_s": traced,
                     "trace_overhead_frac": 1.0 - traced / untraced}
            units = {m[0]: m[3] for m in SPAN_METRICS}
            units.update({m[0]: m[1] for m in RUN_METRICS})
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in units.items()}
            result["per_layer"] = layer
            result["layer_map"] = {m[0]: m[-1] for m in SPAN_METRICS}
            with open(os.path.join(OUT, tag + "-spans.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "op", "counts"], "spans": spans}, fh)
        with open(os.path.join(OUT, tag + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in failures:
        print(f"op {f['op']} failed: {f['cause']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
