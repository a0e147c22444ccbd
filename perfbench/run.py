"""Run one workload of the spheregd benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload sep_batch --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: spheregd is imported from src/.
With --trace 0 it reports the end-to-end metrics of untraced rounds; with
--trace 1 it alternates untraced and traced rounds and reports per-layer
metrics from the traced ones, plus the tracing overhead.  A round runs every
batch and probe of the workload once; rounds repeat while the next one still
fits in --seconds, and medians over rounds are reported.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the line
before it records provenance.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import (DISPATCH_UNIT_S, REFERENCE_SEED, SHORT_WORKLOADS, WORKLOADS, Calibration,
                       run_round, write_configs)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 15  # fresh interpreters timed per --trace 0 run
SETUP_PER_ROUND = 3  # of them timed before each round, the rest at the end


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="about a twentieth of the work (self-tests)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def setup(workload, workdir):
    """What a user pays before the first batch: imports and config parsing."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from spheregd import cli

    configs = write_configs(workload, workdir)
    resolved = {label: cli.resolve_config(cli.parse_config(path)) for label, path in configs.items()}
    return cli, configs, resolved


def time_setup(args, workdir, count, cal):
    """Time ``count`` fresh interpreters from spawn to the end of setup().

    Returns (seconds, calibrated seconds) per spawn.  Start-up is interpreter
    work, so each spawn is calibrated by the dispatch unit sampled around it
    and turned back into seconds at DISPATCH_UNIT_S a unit.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
           "--workdir", workdir] + (["--short"] if args.short else [])
    samples = []
    cal.last = cal.sample()
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {rc}")
        samples.append((t1 - t0, cal.units(t1 - t0, 1.0) * DISPATCH_UNIT_S))
    return samples


def traced_round(workload, seed, configs, workdir, main, reference):
    from tracer import Tracer, install, layer_metrics

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", main)

    def run(argv):
        tracer.run_id += 1
        return traced_main(argv)

    install(tracer)
    try:
        tally = run_round(workload, seed, configs, workdir, run, reference)
    finally:
        tracer.unpatch()
    return tally, layer_metrics(tracer)


def measure(args, workload, workdir):
    timed = args.trace == 0
    if timed:
        cal = Calibration()
        time_setup(args, workdir, 1, cal)  # warms the file cache and the bytecode cache
    cli, configs, resolved = setup(workload, workdir)
    reference = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)

    # Set-up is timed in fresh interpreters spread over the run, so that its
    # median sees the host in the same mix of fast and slow phases as the rounds.
    setup_samples, plain, traced = [], [], []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if timed and len(setup_samples) < SETUP_SAMPLES:
            setup_samples += time_setup(args, workdir, SETUP_PER_ROUND, cal)
        plain.append(run_round(workload, args.seed, configs, workdir, cli.main, reference))
        if args.trace:
            traced.append(traced_round(workload, args.seed, configs, workdir, cli.main, reference))
        now = time.perf_counter()
        if now - began + (now - t0) > args.seconds:
            break
    if timed:
        setup_samples += time_setup(args, workdir, SETUP_SAMPLES - len(setup_samples), cal)

    tallies = plain + [t for t, _ in traced]
    median = statistics.median
    if args.trace:
        names = traced[0][1]
        metrics = {}
        for name, (_, unit) in names.items():
            vals = [m[name][0] for _, m in traced]
            metrics[name] = {"value": None if None in vals else median(vals), "unit": unit}
        overhead = median(t.wall_cal for t, _ in traced) / median(t.wall_cal for t in plain) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "wall_cal": {"value": median(t.wall_cal for t in plain), "unit": "cal"},
            "iters_per_cal": {"value": median(t.nominal / t.batch_wall_cal for t in plain),
                              "unit": "1/cal"},
            "setup_s": {"value": median(c for _, c in setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": metrics,
    }
    provenance = _provenance(args, workload, resolved, plain, setup_samples)
    return result, provenance


# ---------------------------------------------------------------------------
# provenance


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "spheregd", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _blas():
    import ctypes

    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.split()[-1].lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"library": name, "threads": threads}


def _caches():
    def read(d, name):
        with open(os.path.join(d, name), encoding="utf-8") as f:
            return f.read().strip()

    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if read(d, "type") != "Instruction":
                out["L" + read(d, "level")] = read(d, "size")
        except OSError:
            continue
    return out


def _provenance(args, workload, resolved, plain, setup_samples):
    import numpy as np

    keys = ("problem", "n", "p", "theta", "mu", "eta", "r_or_s", "zeta0", "c", "max_iters")
    shapes = {}
    for s in workload.shapes:
        seeds = [seed for label, seed, _, _ in plain[0].runs if label == s.label]
        shapes[s.label] = {
            "command": s.command, "width": s.width, "batches": s.batches, "nominal": s.nominal,
            "save_traces": s.save_traces, "seeds": [min(seeds), max(seeds)] if seeds else None,
            "iterations_seconds_units": [t.shapes.get(s.label) for t in plain],
            "resolved": {k: getattr(resolved[s.label], k) for k in keys},
        }
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "short": args.short, "rounds": len(plain),
        "shapes": shapes, "probes": [list(p.argv) for p in workload.probes],
        "rounds_raw": [{"wall_s": t.wall_s, "iters_per_s": t.nominal / t.batch_wall_s,
                        "cal_unit_s": t.wall_s / t.wall_cal} for t in plain],
        "setup_raw_s": [s for s, _ in setup_samples],
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "caches": _caches(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spheregd", "cli.py")):
        print("perfbench: no spheregd sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = (SHORT_WORKLOADS if args.short else WORKLOADS)[args.workload]
    if args.setup_only:
        setup(workload, args.workdir)
        print("ready", flush=True)
        return 0
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        result, provenance = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
