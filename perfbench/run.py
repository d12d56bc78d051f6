"""Benchmark for fockop: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload truncation-oracle --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones (setup_s, jobs_per_s, job_p50_s,
job_tail_s, peak_rss_mb); with --trace 1 they are the per-layer ones, from
spans around fockop's public functions (see layers.py).  The jobs run whole
rounds, closed loop with one client, until --seconds have passed.  See
perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = str(len(os.sched_getaffinity(0)))
# at most nproc threads, OpenBLAS's own included; set before numpy loads,
# and inherited by every CLI process
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = NPROC
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = ("cli-oneshot", "truncation-oracle", "closed-form-sweep")
# the highest percentile with at least ten jobs beyond it at the job count
# of a --seconds 20 run: two rounds of 20 and of 48 jobs, and about 1300
TAIL_PCT = {"cli-oneshot": 75, "truncation-oracle": 89, "closed-form-sweep": 99}
SETUP_PROBES = 3
IMPORT_PROBES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def outdir_for(args):
    path = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup(args, outdir):
    """Import, build the seeded inputs and warm up; returns the workload."""
    if args.workload == "cli-oneshot":
        wl = W.CliOneshot(ROOT, outdir, args.seed, traced=bool(args.trace))
    else:
        import fockop as F

        cls = W.TruncationOracle if args.workload == "truncation-oracle" else W.ClosedFormSweep
        wl = cls(F, args.seed)
    for job in wl.warm:
        try:
            job.check(job.run())
        except Exception:  # warm-up answers are not scored; the timed jobs' are
            pass
    return wl


def time_setup(args):
    """Median seconds from process start to 'ready' over fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            times.append(time.perf_counter() - start)
            p.stdout.read()
        if line.strip() != "ready" or p.returncode != 0:
            raise SystemExit(f"set-up probe failed (exit {p.returncode})")
    return statistics.median(times)


def import_times():
    """Cumulative import seconds from `python -X importtime -c 'import fockop'`,
    median over fresh processes."""
    names = {"fockop": "import.fockop_s", "scipy.linalg": "import.scipy_linalg_s",
             "scipy.optimize": "import.scipy_optimize_s", "mpmath": "import.mpmath_s"}
    samples = {v: [] for v in names.values()}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for _ in range(IMPORT_PROBES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fockop"],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        seen = {}
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in names:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for mod, key in names.items():
            samples[key].append(seen.get(mod, 0.0))
    return {k: (statistics.median(v), "s") for k, v in samples.items()}


def percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks, as numpy's default."""
    h = (len(sorted_vals) - 1) * pct / 100.0
    lo = int(h)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def measure(wl, seconds, tracer):
    """Whole rounds of the workload's jobs until `seconds` have passed.

    Returns job durations, failures, check errors and the wall time of the
    timed phase less the time spent in the benchmark's own checks.
    """
    durations, names, failed, wrong = [], [], [], []
    check_time = 0.0
    start = time.perf_counter()
    while True:
        for job in wl.jobs:
            if tracer is not None:
                tracer.job = len(durations)
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a program fault fails this operation only
                out = exc
            t1 = time.perf_counter()
            durations.append(t1 - t0)
            names.append(job.name)
            try:
                if isinstance(out, Exception):
                    raise W.OperationFailed(f"{type(out).__name__}: {out}")
                job.check(out)
            except W.OperationFailed as exc:
                failed.append(f"{job.name}: {exc}")
            except Exception as exc:  # an answer the check cannot accept
                wrong.append(f"{job.name}: {type(exc).__name__}: {exc}")
            del out
            check_time += time.perf_counter() - t1
        if time.perf_counter() - start >= seconds:
            break
    return durations, names, failed, wrong, time.perf_counter() - start - check_time


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fockop", "__init__.py")):
        print(f"perfbench: no fockop sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    outdir = outdir_for(args)
    try:
        if args.setup_only:
            setup(args, outdir)
            print("ready", flush=True)
            return 0
        return run(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def run(args, outdir):
    setup_s = None if args.trace else time_setup(args)
    layer_imports = import_times() if args.trace else None
    wl = setup(args, outdir)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    durations, names, failed, wrong, wall = measure(wl, args.seconds, tracer)
    for line in failed + wrong:
        print(("FAILED " if line in failed else "WRONG ") + line, file=sys.stderr)

    stem = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-trace{args.trace}")
    with open(stem + "-jobs.json", "w") as fh:
        json.dump([[n, d] for n, d in zip(names, durations)], fh)
    if args.trace:
        metrics = dict(layer_imports)
        metrics.update(tracer.metrics(len(durations)))
        tracer.write(stem + "-spans.json")
    else:
        ds = sorted(durations)
        if args.workload == "cli-oneshot":
            rss_kb = wl.max_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (len(durations) / wall, "1/s"),
            "job_p50_s": (statistics.median(ds), "s"),
            "job_tail_s": (percentile(ds, TAIL_PCT[args.workload]), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    result = {
        "correct": not wrong,
        "attempted": len(durations),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload}: {len(durations)} jobs in {wall:.2f} s ({len(durations) / wall:.4g}/s), "
          f"{len(failed)} failed, {len(wrong)} wrong", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
