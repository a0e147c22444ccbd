"""Workloads of the spheregd benchmark and the checks on their outputs.

Every workload is driven in-process through ``spheregd.cli.main``, with the
CLI's default ``--jobs 1``.  A batch *shape* is one ``run-*`` subcommand at
one problem size, run as a few batches of several seeds each; the seeds a
run uses follow from ``--seed`` alone.  Per-seed iteration counts vary with
the seed (coefficient of variation 0.35 to 0.55), so a round's time would
depend on ``--seed`` more than on the code.  Each shape's time therefore
enters ``wall_cal`` scaled to a fixed nominal iteration count: seeds times
the shape's typical iterations per seed.

An *operation* is one seeded run or one check of a batch or probe: a run
counts as failed when it did not end ``ball_entered``, when it disagrees with
the recorded reference, or when its trace file is missing rows; a check
counts as failed on a nonzero exit or a statistical gate outside its window.
"""

import contextlib
import io
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

SEED_STRIDE = 1000  # seed_base = SEED_STRIDE * --seed; no shape uses this many seeds
STATUS_OK = "ball_entered"
VOLUME_SE = 3.0  # gate 5: zeta = 0 fraction within this many standard errors of 1/(2n)
SLOPE_WINDOW = (-0.65, -0.35)  # gate 9: log-log slope of deviation against p
REFERENCE_SEED = 0  # --seed whose per-seed results perfbench/reference.json holds


@dataclass(frozen=True)
class Shape:
    """One batch subcommand at one size: ``batches`` batches of ``width`` seeds."""

    label: str
    command: str
    config: dict
    width: int  # seeds per batch
    batches: int
    mean_iters: int  # typical iterations per seed: a fixed scale, not a check
    dispatch: float  # share of the time spent in interpreter dispatch (see Calibration)
    save_traces: bool = False
    reference: bool = True  # compare per-seed (status, iterations) to the reference

    @property
    def nominal(self):
        """Iterations that this shape's time is scaled to in ``wall_cal``."""
        return self.width * self.batches * self.mean_iters


@dataclass(frozen=True)
class Probe:
    """One probe subcommand and the gate applied to its CSV output."""

    label: str
    argv: tuple
    seed_offset: int
    dispatch: float = 0.0  # vectorized blocks over large arrays


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple
    probes: tuple = ()


_SEP = {"problem": "separable", "zeta0": 0.1}
_DL = {
    "problem": "dictionary",
    "theta": 0.25,
    "mu": 0.01,
    "eta": 0.01,
    "r_or_s": math.sqrt(1.0 - 0.99**2),
    "dictionary_mode": "random_orthogonal",
    "max_iters": 40000,
}
# Every seed must end ball_entered, so each budget is at least 30 times the
# shape's mean iterations (Shape.mean_iters) and stops only a run that is
# really stuck.  The gates' budgets (6000 for gate 7, 12000 and 40000 for
# gate 6) are too tight for that: the gates ask only a share of seeds to
# succeed, and a start near a saddle's stable manifold escapes slowly but
# does escape.  Seed 988276865000 at dl n=10, p=5000 enters the ball at
# iteration 7185; over 300 fresh seeds sep n=50 took up to 29568.
SEP10 = dict(_SEP, n=10, max_iters=40000)
SEP50 = dict(_SEP, n=50, max_iters=270000)
DL10 = dict(_DL, n=10, p=5000)
DL20 = dict(_DL, n=20, p=20000)
# gate-10 shape; max_iters only caps the per-run budget from iteration_budget
PR8 = {"problem": "phase_retrieval", "n": 8, "max_iters": 1_000_000, "zeta0": 0.1 / math.sqrt(16.0)}

VOLUME_SAMPLES = 1_000_000
FLUCT_P = "100,1000,10000,100000"


def _workloads(short):
    # short mode keeps every layer busy with about a twentieth of the work
    k = 20 if short else 1

    def shape(label, command, config, width, batches, mean_iters, dispatch, **kw):
        return Shape(label, command, config, max(1, width // k), batches, mean_iters, dispatch, **kw)

    samples = str(VOLUME_SAMPLES // (10 if short else 1))
    p_list = "100,1000,10000" if short else FLUCT_P
    # Dispatch shares follow the traced profile: sep and phase-retrieval
    # descent work on vectors of 8 to 50 entries, so interpreter dispatch is
    # nearly all their time; the dl oracle's BLAS passes take about 75% of
    # descent at p=5000 and 90% at p=20000.
    return {
        "sep_batch": Workload(
            "sep_batch",
            (
                shape("sep10", "run-sep", SEP10, 10, 4, 1385, 1.0),
                shape("sep50", "run-sep", SEP50, 5, 1, 9005, 1.0),
            ),
        ),
        "dl_batch": Workload(
            "dl_batch",
            (
                shape("dl10", "run-dl", DL10, 10, 1, 984, 0.25),
                shape("dl20", "run-dl", DL20, 4, 1, 1279, 0.1),
            ),
        ),
        "traced_batch": Workload(
            "traced_batch",
            (
                shape("sep10", "run-sep", SEP10, 10, 4, 1385, 1.0, save_traces=True),
                shape("dl10", "run-dl", DL10, 10, 1, 984, 0.25, save_traces=True),
            ),
        ),
        "probes": Workload(
            "probes",
            # gate-10 batches of 100 seeds, enough of them for two seconds of phase-retrieval descent
            (shape("pr8", "run-pr", PR8, 100, 10, 54, 1.0, reference=False),),
            (
                Probe("volume10", ("probe-volume", "--n", "10", "--zeta", "0", "--samples", samples), 1),
                Probe("volume50", ("probe-volume", "--n", "50", "--zeta", "0", "--samples", samples), 2),
                Probe(
                    "fluctuation",
                    ("probe-fluctuation", "--n", "10", "--theta", "0.25", "--p-list", p_list, "--trials", "20"),
                    3,
                ),
            ),
        ),
    }


WORKLOADS = _workloads(short=False)
SHORT_WORKLOADS = _workloads(short=True)


def config_text(config, num_seeds):
    """Config file for ``num_seeds`` seeds; seed_base is always set by ``--seed``."""
    lines = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in config.items()]
    return "\n".join(lines + [f"num_seeds = {num_seeds}", "seed_base = 0"]) + "\n"


def write_configs(workload, workdir):
    """Write each shape's config, for one batch; returns {label: path}."""
    paths = {}
    for s in workload.shapes:
        path = os.path.join(workdir, f"{s.label}.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(config_text(s.config, s.width))
        paths[s.label] = path
    return paths


# ---------------------------------------------------------------------------
# reading and checking outputs


def read_summary(path):
    """Parse summary.txt into (header dict, list of per-seed row dicts)."""
    header, rows = {}, []
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    i = lines.index("[runs]")
    for line in lines[:i]:
        if " = " in line:
            k, v = line.split(" = ", 1)
            header[k] = v
    cols = lines[i + 1].split(",")
    for line in lines[i + 2 :]:
        rows.append(dict(zip(cols, line.split(","))))
    return header, rows


def _trace_ok(path, seed, iterations):
    """A trace holds the seed line, the column header and rows 0..iterations."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        return False
    data = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    return (
        f"# seed={seed}" in lines
        and len(data) == iterations + 1
        and data[-1].split(",", 1)[0] == str(iterations)
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    nominal: int = 0  # the shapes' nominal iterations
    # seconds inside run-* calls and inside every CLI call, each shape's
    # scaled to its nominal iterations, and the same two in calibration units
    batch_wall_s: float = 0.0
    wall_s: float = 0.0
    batch_wall_cal: float = 0.0
    wall_cal: float = 0.0
    runs: list = field(default_factory=list)  # (label, seed, status, iterations)
    shapes: dict = field(default_factory=dict)  # label -> [iterations, seconds, units]

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok


def check_batch(tally, shape, out_dir, rc, seeds, reference):
    """Check one batch's exit code, summary rows, reference and traces.

    Returns the batch's iteration count (0 when the summary is unreadable).
    """
    tally.op(rc == 0)
    try:
        _, rows = read_summary(os.path.join(out_dir, "summary.txt"))
    except (OSError, ValueError, IndexError):
        rows = []
    by_seed = {}
    for r in rows:
        try:
            by_seed[int(r["seed"])] = (r["status"], int(r["iterations"]))
        except (KeyError, ValueError):
            continue
    total = 0
    for seed in seeds:
        got = by_seed.get(seed)
        if got is None:
            tally.op(False)
            continue
        status, iters = got
        total += iters
        tally.runs.append((shape.label, seed, status, iters))
        ok = status == STATUS_OK
        ref = reference.get(shape.label, {}).get(str(seed)) if shape.reference else None
        if ref is not None:
            ok &= [status, iters] == list(ref)
        if shape.save_traces:
            ok &= _trace_ok(os.path.join(out_dir, f"trace_seed{seed}.csv"), seed, iters)
        tally.op(ok)
    if set(by_seed) - set(seeds):  # rows for seeds that were not asked for
        tally.op(False)
    return total


def read_table(path):
    """Rows of a probe CSV as dicts of floats."""
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, map(float, ln.split(",")))) for ln in lines[1:]]


def volume_ok(rows):
    """Gate 5: at zeta = 0 the section fraction is 1/(2n) within VOLUME_SE s.e."""
    r = rows[0]
    return abs(r["fraction"] - 1.0 / (2.0 * r["n"])) <= VOLUME_SE * r["std_error"]


def slope_ok(rows):
    """Gate 9: mean deviation falls like p^(-1/2), slope within SLOPE_WINDOW."""
    p = np.log([r["p"] for r in rows])
    dev = np.log([r["mean_abs_deviation"] for r in rows])
    slope = float(np.polyfit(p, dev, 1)[0])
    return SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]


def probe_ok(probe, out_dir, rc):
    """Whether a probe exited 0 and its output passes the probe's gate."""
    name = probe.argv[0]
    try:
        rows = read_table(os.path.join(out_dir, f"{name}.csv"))
        return rc == 0 and (volume_ok(rows) if name == "probe-volume" else slope_ok(rows))
    except (OSError, ValueError, IndexError, KeyError):
        return False


# ---------------------------------------------------------------------------
# one round: every batch and probe of a workload, once


UNITS_PER_SAMPLE = 8
DISPATCH_UNIT_S = 2.0e-3  # the dispatch unit on a quiet 2-vCPU host; turns units back into seconds


class Calibration:
    """Two fixed units of work, timed between CLI calls.

    On a shared 2-vCPU virtual machine the host's speed changes by up to
    1.6x within seconds and drifts over minutes, and a slow phase does not
    slow all work alike: it slows interpreter dispatch and sphere descent
    on small vectors most (1.3x to 1.5x), BLAS passes over arrays beyond L2
    least (1.1x).  So a sample times two units:
    a pure-Python loop, and BLAS, ufunc and RNG passes over a 20x20000 array.
    Each is the fastest of UNITS_PER_SAMPLE in a row: interference only ever
    slows a unit, so the fastest tracks the host's current speed and ignores
    a preemption.  A call's seconds are divided by the mix of the two units
    given by its share of interpreter dispatch, averaged over the samples
    taken just before and just after it.  This keeps most of the host's
    drift out of the end-to-end metrics.
    """

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.Y = self.rng.standard_normal((20, 20_000))
        self.q = np.full(20, 20**-0.5)
        self.last = self.sample()

    def _dispatch_unit(self):
        acc = 0
        for i in range(30_000):
            acc += i * i

    def _array_unit(self):
        for _ in range(4):
            self.Y @ np.tanh(self.Y.T @ self.q / 0.01)
        self.rng.standard_normal(60_000)

    def sample(self):
        """Seconds of (dispatch unit, array unit), each the fastest of several."""
        best = [math.inf, math.inf]
        for _ in range(UNITS_PER_SAMPLE):
            for j, unit in enumerate((self._dispatch_unit, self._array_unit)):
                t0 = time.perf_counter()
                unit()
                best[j] = min(best[j], time.perf_counter() - t0)
        return best

    def units(self, seconds, dispatch):
        """Express a call that just ended in units sampled around it."""
        before, self.last = self.last, self.sample()
        d = (before[0] + self.last[0]) / 2.0
        a = (before[1] + self.last[1]) / 2.0
        return seconds / (dispatch * d + (1.0 - dispatch) * a)


def _call(main, argv, cal, dispatch):
    """Run one CLI call; returns (exit code, seconds, calibration units)."""
    sink = io.StringIO()  # the CLI prints each output path
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = main(argv)
    dt = time.perf_counter() - t0
    return rc, dt, cal.units(dt, dispatch)


def run_round(workload, seed, configs, workdir, main, reference):
    """Run the workload once; returns a Tally.  Only the CLI calls are timed."""
    tally = Tally()
    cal = Calibration()
    base = SEED_STRIDE * seed
    for shape in workload.shapes:
        start = base
        per = tally.shapes.setdefault(shape.label, [0, 0.0, 0.0])
        for _ in range(shape.batches):
            out = os.path.join(workdir, f"{shape.label}_{start}")
            argv = [shape.command, "--config", configs[shape.label],
                    "--seed", str(start), "--out", out, "--check"]
            if shape.save_traces:
                argv.append("--save-traces")
            rc, dt, du = _call(main, argv, cal, shape.dispatch)
            seeds = list(range(start, start + shape.width))
            per[0] += check_batch(tally, shape, out, rc, seeds, reference)
            per[1] += dt
            per[2] += du
            shutil.rmtree(out, ignore_errors=True)
            start += shape.width
        iters, dt, du = per
        scale = shape.nominal / iters if iters else 1.0
        tally.nominal += shape.nominal
        tally.batch_wall_s += dt * scale
        tally.batch_wall_cal += du * scale
        tally.wall_s += dt * scale
        tally.wall_cal += du * scale
    for probe in workload.probes:
        out = os.path.join(workdir, probe.label)
        seed_p = base + probe.seed_offset
        rc, dt, du = _call(main, _probe_argv(probe, seed_p, out), cal, probe.dispatch)
        tally.wall_s += dt
        tally.wall_cal += du
        ok = probe_ok(probe, out, rc)
        if rc == 0 and not ok:
            # Gates 5 and 9 are statistical: on fresh seeds a correct program
            # misses them now and then (3 s.e., and about 1 seed in 60 for the
            # slope).  A miss is confirmed once on another seed, untimed.
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(_probe_argv(probe, seed_p + SEED_STRIDE // 2, out))
            ok = probe_ok(probe, out, rc)
            print(f"perfbench: {probe.label} missed its gate at seed {seed_p}; "
                  f"confirmation {'passed' if ok else 'failed'}", file=sys.stderr)
        tally.op(ok)
        shutil.rmtree(out, ignore_errors=True)
    return tally


def _probe_argv(probe, seed, out):
    return list(probe.argv) + ["--seed", str(seed), "--out", out]
