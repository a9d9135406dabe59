#!/usr/bin/env python3
"""Benchmark of maxmin-cnn: seeded synthetic workloads through the public API.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark writes its synthetic
inputs under ``.bench_work/`` (removed on exit) and its report under
``.bench_out/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. See benchmark/README.md.
"""
import argparse
import ctypes
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
E2E_UNITS = {"train_img_s": "img/s", "eval_img_s": "img/s", "gradcheck_maxmin_s": "s",
             "gradcheck_baseline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Timing metrics are medians of the run's samples: a shared host's speed
# drifts from second to second, and the median of a whole run moved less
# across runs than its fastest sample did (see README.md).
TIMED = ("train_img_s", "eval_img_s", "gradcheck_maxmin_s", "gradcheck_baseline_s")
# Two repetitions at least, so the weights digests can be compared; a
# traced run needs a third, for a warm untraced one beside the traced one.
MIN_REPS = {0: 2, 1: 3}


def limit_blas_threads():
    """One BLAS thread; must run before numpy is imported.

    The GEMMs here are small: a second thread did not shorten a
    repetition, and on a shared host it made each call wait for
    whichever thread was descheduled, which spread the timings.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_revision():
    """The checked-out commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(cores, w, run, seed):
    import numpy as np
    import perlayer
    import workloads

    def gemm_gflop_s(dtype, n=1024):
        return 2 * n ** 3 / perlayer.gemm_seconds(n, n, n, dtype) / 1e9

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cores, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(), "env_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "git_revision": git_revision(),
        "workload": {"name": w.name, "dtype": np.dtype(workloads.DTYPE).name,
                     "batch": workloads.BATCH, "epochs": w.epochs,
                     "learning_rate": workloads.LEARNING_RATE,
                     "images": dict(zip(("train", "val", "test"), run.train_sizes or ())),
                     "grad_check": workloads.GRADCHECK,
                     "data_seed": seed, "net_seed": workloads.NET_SEED},
        "gemm_gflop_s": {"float32": gemm_gflop_s(np.float32), "float64": gemm_gflop_s(np.float64)},
    }


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def main(argv=None):
    cores = limit_blas_threads()
    if not (SRC / "maxmin_cnn" / "__init__.py").is_file():
        log(f"benchmark: library sources not found under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    import perlayer
    import tracing
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    w = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root)
    try:
        data_dir = os.path.join(work, "data")
        os.mkdir(data_dir)
        workloads.write_inputs(w, data_dir, args.seed)
        run = workloads.Run(w, data_dir, work, log)
        tracer = tracing.Tracer() if args.trace else None
        walls = {False: [], True: []}
        t_start = time.perf_counter()
        reps = 0
        while reps < MIN_REPS[args.trace] or (
                time.perf_counter() - t_start
                + statistics.mean(run.samples["rep_s"]) <= args.seconds):
            # A traced run alternates untraced and traced repetitions after the cold one.
            traced = tracer is not None and reps % 2 == 1
            t0 = time.perf_counter()
            if traced:
                restore = tracing.install(tracer)
                try:
                    with tracer.span("bench.rep"):
                        run.rep(reps, span=tracer.span)
                finally:
                    restore()
            else:
                run.rep(reps)
            walls[traced].append(time.perf_counter() - t0)
            reps += 1
        if tracer is None:
            # Too little time is left for another repetition: spend it on
            # more rounds of the short calls, whose samples are the fewest.
            while (time.perf_counter() - t_start
                   + statistics.mean(run.samples["round_s"]) <= args.seconds):
                run.round()

        medians = {k: statistics.median(v) if v else 0.0 for k, v in run.samples.items()}
        if tracer is None:
            values = {k: medians[k] for k in TIMED}
            values["setup_s"] = medians["setup_prepare_s"] + medians["setup_load_weights_s"]
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = E2E_UNITS
        else:
            overhead = statistics.median(walls[True]) / statistics.median(walls[False][1:])
            values = perlayer.compute(tracer, overhead, workloads.BATCH)
            units = perlayer.UNITS
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
        report = {
            "provenance": provenance(cores, w, run, args.seed),
            "reps": reps, "rep_walls_s": walls[False] + walls[True],
            "error_rate": run.failed / max(1, run.attempted),
            "weights_digests": run.digests,
            "gradcheck_counts": run.gradcheck_counts,
            "samples": run.samples,
            "sample_medians": medians,
        }
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}"
        with open(f"{stem}.json", "w") as fh:
            json.dump(dict(report, metrics=metrics), fh, indent=1)
        if tracer is not None:
            with open(f"{stem}.spans.jsonl", "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.phase]) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
