"""Run one smalltime benchmark workload and print its metrics.

    python3 perfbench/run.py --workload heis-alpha0 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  The
workload's job (see ``workloads.py``) is repeated until ``--seconds`` would
be exceeded, always at least once; every repetition uses the same inputs,
made from ``--seed``, and must give bit-identical outputs.

``--trace 0`` prints the end-to-end metrics: medians over repetitions of the
job's wall time, of the time in ``minimize_energy`` and of the Monte Carlo
path rate, the median set-up time of seven fresh processes, and the peak
resident memory.  ``--trace 1`` alternates untraced and traced repetitions,
prints the per-layer metrics from the traced ones and the tracing overhead,
and writes the spans to ``perfbench/out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_PROCESSES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="run the job at the self-check's tiny sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def measure_setup(args):
    """Median wall time of fresh processes that import, build and warm up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed:\n" + proc.stderr.decode())
    return statistics.median(times)


def run_job(workloads, name, ctx, seed, size):
    job = workloads.Job()
    t0 = time.perf_counter()
    workloads.WORKLOADS[name](ctx, job, seed, size)
    job.job_s = time.perf_counter() - t0
    return job


def layer_metrics(tr):
    """Per-layer metrics of one traced repetition, as listed in BENCHMARK.json."""
    tot, slf, calls, cnt = tr.total_s, tr.self_s, tr.calls, tr.counts

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    noise_self = (slf.get("asymptotics.estimate_density", 0.0)
                  + slf.get("asymptotics.leading_coefficient", 0.0))
    noise_madds = (cnt.get("asymptotics.estimate_density.noise_madds", 0)
                   + cnt.get("asymptotics.leading_coefficient.noise_madds", 0))
    evals = tr.constraint_evals
    return {
        "fgauss.gram.s": tot.get("fgauss.gram", 0.0),
        "fgauss.cholesky.s": tot.get("fgauss.cholesky", 0.0),
        "fgauss.cholesky.calls": calls.get("fgauss.cholesky", 0),
        "fgauss.sample_fbm.s": tot.get("fgauss.sample_fbm", 0.0),
        "fgauss.sample_fbm.paths": cnt.get("fgauss.sample_fbm.paths", 0),
        "fgauss.sample_madds": cnt.get("fgauss.sample_fbm.madds", 0),
        "fgauss.sample_madds_per_s": rate(cnt.get("fgauss.sample_fbm.madds", 0),
                                          slf.get("fgauss.sample_fbm", 0.0)),
        "asymptotics.estimate_density.self_s": slf.get("asymptotics.estimate_density", 0.0),
        "asymptotics.leading_coefficient.self_s":
            slf.get("asymptotics.leading_coefficient", 0.0),
        "asymptotics.fit_asymptotics.s": tot.get("asymptotics.fit_asymptotics", 0.0),
        "asymptotics.paths": (cnt.get("asymptotics.estimate_density.paths", 0)
                              + cnt.get("asymptotics.leading_coefficient.paths", 0)),
        "asymptotics.noise_madds": noise_madds,
        "asymptotics.noise_madds_per_s": rate(noise_madds, noise_self),
        "asymptotics.failures": tr.failures.get("asymptotics", 0),
        "rde.solve_increments.s": tot.get("rde.solve_increments", 0.0),
        "rde.solve_increments.path_steps": cnt.get("rde.solve_increments.path_steps", 0),
        "rde.solve_increments.path_steps_per_s": rate(
            cnt.get("rde.solve_increments.path_steps", 0), slf.get("rde.solve_increments", 0.0)),
        "rde.expansion_endpoints_batch.s": tot.get("rde.expansion_endpoints_batch", 0.0),
        "rde.expansion_endpoints_batch.path_steps":
            cnt.get("rde.expansion_endpoints_batch.path_steps", 0),
        "rde.expansion_endpoints_batch.path_steps_per_s": rate(
            cnt.get("rde.expansion_endpoints_batch.path_steps", 0),
            slf.get("rde.expansion_endpoints_batch", 0.0)),
        "rde.solve_rde.s": tot.get("rde.solve_rde", 0.0),
        "rde.solve_rde.cells": cnt.get("rde.solve_rde.cells", 0),
        "rde.solve_rde.cells_per_s": rate(cnt.get("rde.solve_rde.cells", 0),
                                          slf.get("rde.solve_rde", 0.0)),
        "rde.solve_skeleton.calls": calls.get("rde.solve_skeleton", 0),
        "rde.expansion_terms.s": tot.get("rde.expansion_terms", 0.0),
        "rde.remainder.s": tot.get("rde.remainder", 0.0),
        "rde.failures": tr.failures.get("rde", 0),
        "malliavin.malliavin_Q_batch.s": tot.get("malliavin.malliavin_Q_batch", 0.0),
        "malliavin.malliavin_Q_batch.matrices":
            cnt.get("malliavin.malliavin_Q_batch.matrices", 0),
        "malliavin.malliavin_Q_batch.matrices_per_s": rate(
            cnt.get("malliavin.malliavin_Q_batch.matrices", 0),
            slf.get("malliavin.malliavin_Q_batch", 0.0)),
        "malliavin.stochastic_gradient_rows.s": tot.get("malliavin.stochastic_gradient_rows", 0.0),
        "malliavin.sample_scaled_Q.self_s": slf.get("malliavin.sample_scaled_Q", 0.0),
        "malliavin.eigen_tail.s": tot.get("malliavin.eigen_tail", 0.0),
        "minimizer.minimize_energy.self_s": slf.get("minimizer.minimize_energy", 0.0),
        "minimizer.constraint_evals": statistics.mean(evals) if evals else 0,
        "minimizer.hessian_check.s": tot.get("minimizer.hessian_check", 0.0),
        "minimizer.failures": tr.failures.get("minimizer", 0),
        "roughlift.lift_grid_path.s": tot.get("roughlift.lift_grid_path", 0.0),
        "roughlift.lift_grid_path.calls": calls.get("roughlift.lift_grid_path", 0),
        "roughlift.young_translate.s": tot.get("roughlift.young_translate", 0.0),
        "roughlift.defects.s": tot.get("roughlift.defects", 0.0),
        "tensor_sig.chen_mul.calls": calls.get("tensor_sig.chen_mul", 0),
        "tensor_sig.chen_mul.s": tot.get("tensor_sig.chen_mul", 0.0),
        "tensor_sig.sig_root.calls": calls.get("tensor_sig.sig_root", 0),
        "metrics.ControlEvaluator.s": tot.get("metrics.ControlEvaluator", 0.0),
        "metrics.greedy_count.s": tot.get("metrics.greedy_count", 0.0),
        "metrics.besov_norm.s": tot.get("metrics.besov_norm", 0.0),
        "trace.spans": sum(calls.values()),
    }


END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_s": ("s", "lower"),
    "minimize_s": ("s", "lower"),
    "mc_paths_per_s": ("paths/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def layer_unit(name):
    """Unit and direction of a per-layer metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s", "higher"
    if name.endswith((".s", "_s")):
        return "s", "lower"
    return "count", "lower"


def median_dict(dicts):
    """Median of each metric; counts repeat exactly, so they stay whole numbers."""
    out = {}
    for k in dicts[0]:
        vals = [d[k] for d in dicts]
        exact = all(isinstance(v, int) for v in vals)
        out[k] = statistics.median_low(vals) if exact else statistics.median(vals)
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "smalltime" / "__init__.py").is_file():
        print(f"error: {SRC / 'smalltime'} not found; run from a smalltime source checkout",
              file=sys.stderr)
        return 2
    # fix the BLAS thread count before numpy loads OpenBLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import smalltime
    if Path(smalltime.__file__).resolve().parent != (SRC / "smalltime").resolve():
        print(f"error: imported smalltime from {smalltime.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    import spans

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    size = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
    if args.setup_only:
        workloads.build_context(args.workload, size)
        workloads.warm_up()
        return 0
    setup_s = None if args.trace else measure_setup(args)
    ctx = workloads.build_context(args.workload, size)
    workloads.warm_up()

    env = environment()
    tracer = spans.Tracer() if args.trace else None
    jobs, layers = [], []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        if traced:
            tracer.start_job()
            with tracer.patched():
                job = run_job(workloads, args.workload, ctx, args.seed, size)
            layers.append(layer_metrics(tracer))
        else:
            job = run_job(workloads, args.workload, ctx, args.seed, size)
        job.traced = traced
        jobs.append(job)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(j.job_s for j in jobs)
        if len(jobs) >= (2 if args.trace else 1) and elapsed + typical > args.seconds:
            break

    identical = all(j.outputs == jobs[0].outputs for j in jobs)
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    untraced = [j for j in jobs if not j.traced]
    traced_jobs = [j for j in jobs if j.traced]

    if args.trace:
        values = median_dict(layers)
        values["trace.overhead_s"] = (statistics.median(j.job_s for j in traced_jobs)
                                      - statistics.median(j.job_s for j in untraced))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz", env)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "job_s": statistics.median(j.job_s for j in untraced),
            "minimize_s": statistics.median(j.minimize_s for j in untraced),
            "mc_paths_per_s": statistics.median(
                j.mc_paths / j.mc_s if j.mc_s > 0 else 0.0 for j in untraced),
            "peak_rss_mb": rss_kb / 1024.0,
        }

    units = {n: layer_unit(n) for n in values} if args.trace else END_TO_END
    print("environment " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} repetitions {len(jobs)} "
          f"(traced {len(traced_jobs)}) outputs_identical {identical}")
    print("job_s " + " ".join(f"{j.job_s:.4f}{'T' if j.traced else ''}" for j in jobs))
    for name, value, tol, ok in jobs[0].checks:
        print(f"check {name:32s} {'ok  ' if ok else 'FAIL'} value {value} tolerance {tol}")
    for j in jobs:
        for err in j.errors:
            print("error " + err)
    for name, value in values.items():
        unit, better = units[name]
        print(f"metric {name:48s} {value!r:>24} {unit:8s} {better}")
    print(f"operations {attempted} failed {failed} error_rate {failed / attempted!r}")
    if args.trace:
        print("work counts (madds, path_steps, cells, matrices) are computed from array sizes")

    result = {"correct": bool(failed == 0 and identical), "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n][0]} for n, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
