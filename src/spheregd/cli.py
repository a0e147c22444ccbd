"""Command-line harness: seeded experiment batches and geometry probes.

Batches read a flat key = value config file, run num_seeds independent
descents with seeds seed_base .. seed_base + num_seeds - 1, and only then make
out_dir to write a summary (and per-seed traces with --save-traces): a
rejected batch writes nothing.  Outputs embed the resolved-config hash and
seed base, floats are printed at 17 significant digits, and aggregation is
seed-sorted, so a rerun reproduces every file byte for byte at any --jobs.

--jobs k runs a batch in min(k, num_seeds, usable CPUs) worker processes, or
in-process for 1.  run-dl defaults to every usable CPU and hands out each seed
as one task; a worker holds one instance, whose Y is n p 8 bytes.  run-sep
defaults to 1, one lockstep block per worker; run-pr runs in-process.
Workers run BLAS on one thread, set while the pool forks: a threaded GEMM
(Y = A0 X0 at n=10, p=20000) leaves a helper spinning ~128 ms beside the seed.
This reaches workers only by fork, the start method on Linux in Python 3.11.

Exit codes: 0 ok, 1 usage or config error, 2 numerical abort (non-finite
objective), 3 gate failure under --check.
"""

import argparse
import collections
import concurrent.futures
import contextlib
import ctypes
import functools
import hashlib
import math
import os
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import landscape, phase_retrieval
from .datagen import gen_instance
from .descent import (
    STATUS_BALL,
    STATUS_NAN,
    BallStop,
    DescentConfig,
    recovery_error,
    riemannian_gd,
    riemannian_gd_block,
)
from .objectives import (
    check_mu,
    default_sep_eta,
    default_sep_mu,
    dl_objective,
    sep_objective,
)
from .sphere import sample_uniform_sphere, scale_to_zeta

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_GATE = 3

TRACE_COLUMNS = ("iter", "f", "grad_norm", "zeta", "w_inf", "dist_target")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    n: int
    num_seeds: int
    seed_base: int
    max_iters: int
    p: int = 0
    theta: float = 0.0
    mu: float = 0.0  # 0 -> problem default
    eta: float = 0.0  # 0 -> problem default
    zeta0: float = 0.1
    r_or_s: float = 0.0  # 0 -> problem default target radius
    c: float = 1.0 / 35.0  # shell constant for phase retrieval
    dictionary_mode: str = "random_orthogonal"
    out_dir: str = "out"
    save_traces: bool = False

    def __post_init__(self):  # every construction and replace() is validated
        validate_config(self)


@dataclass(frozen=True)
class RunSummary:
    seed: int
    iterations: int
    final_f: float
    final_dist: float
    final_zeta: float
    status: str


_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
_COMMON_KEYS = {*_REQUIRED_KEYS, "out_dir"}  # every problem reads these


def parse_config(path):
    """Read a flat key = value file; unknown keys are errors."""
    vals = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in vals:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        kind = _KEY_TYPES[key]
        try:
            if kind is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError("expected true/false")
                vals[key] = value.lower() == "true"
            else:
                vals[key] = kind(value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {e}")
    missing = [k for k in _REQUIRED_KEYS if k not in vals]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return ExperimentConfig(**vals)


def validate_config(cfg):
    if cfg.problem not in _PROBLEMS:
        raise ConfigError(f"problem must be one of {tuple(_PROBLEMS)}, got {cfg.problem!r}")
    keys = _PROBLEMS[cfg.problem].keys
    for f in fields(cfg):  # a key the problem does not read must keep its default
        if f.name not in _COMMON_KEYS | keys and getattr(cfg, f.name) != f.default:
            raise ConfigError(f"problem {cfg.problem} does not read {f.name!r}; leave it unset")
    for key, kind in _KEY_TYPES.items():
        if kind is float and not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite")
    if cfg.n < 2:
        raise ConfigError("n must be >= 2")
    if cfg.seed_base < 0:
        raise ConfigError("seed_base must be >= 0")
    if cfg.num_seeds < 1 or cfg.max_iters < 1:
        raise ConfigError("num_seeds and max_iters must be >= 1")
    for key in ("mu", "eta", "r_or_s"):
        if getattr(cfg, key) < 0.0:
            raise ConfigError(f"{key} must be positive (or omitted for the default)")
    if cfg.zeta0 <= 0.0:
        raise ConfigError("zeta0 must be positive")
    if "p" in keys:  # the dictionary data
        if cfg.p < 1:
            raise ConfigError("dictionary problem needs p >= 1")
        if not (0.0 < cfg.theta < 0.5):
            raise ConfigError("dictionary problem needs theta in (0, 1/2)")
        if cfg.dictionary_mode not in ("identity", "random_orthogonal"):
            raise ConfigError(f"unknown dictionary_mode {cfg.dictionary_mode!r}")


def resolve_config(cfg):
    """Fill the problem's defaults for mu, eta and the target radius it reads,
    and check mu where the problem reads it, before any draw or fork."""
    problem = _PROBLEMS[cfg.problem]
    mu, eta, r_or_s = problem.defaults(cfg)
    if "mu" in problem.keys:  # warns here, once: forked workers inherit the warnings already shown
        check_mu(mu)
    return replace(cfg, mu=mu, eta=eta, r_or_s=r_or_s)


def _sep_defaults(cfg):
    mu = cfg.mu or float(default_sep_mu(cfg.n))
    r_or_s = cfg.r_or_s or float(mu * np.log(1.0 / mu))
    if not 0.0 < r_or_s < math.inf:  # mu >= 1, or 1/mu overflows
        raise ConfigError(f"mu = {_fmt(mu)} gives no positive finite default radius mu log(1/mu); set r_or_s")
    return mu, cfg.eta or float(default_sep_eta(cfg.n, mu)), r_or_s


def _pr_signal(n, c):
    """The phase-retrieval signal x = e_1 and its default step, 0.95 of the
    admissible cap; the dynamics only see ||x|| and the span of x."""
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    return x, 0.95 * phase_retrieval.max_step_size(x, c)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# keys that identify the experiment; out_dir / save_traces are presentation only
_PRESENTATION_KEYS = {"out_dir", "save_traces"}


def config_lines(cfg):
    return [
        f"{f.name} = {_fmt(getattr(cfg, f.name))}"
        for f in fields(cfg)
        if f.name not in _PRESENTATION_KEYS
    ]


def config_hash(cfg):
    """Hash of the resolved scientific configuration; embedded in every output."""
    payload = "\n".join(config_lines(cfg)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# batch runners


def _summary(seed, trace, final_dist):
    return RunSummary(
        seed=seed,
        iterations=int(trace.iters[-1]),
        final_f=float(trace.f[-1]),
        final_dist=final_dist,
        final_zeta=float(trace.zeta[-1]),
        status=trace.status,
    )


def _run_sep_seeds(cfg, seeds):
    """The separable seeds as one lockstep block; returns ([(RunSummary,
    DescentTrace)], extras)."""
    Q0 = [sample_uniform_sphere(cfg.n, np.random.default_rng(s)) for s in seeds]
    dcfg = DescentConfig(cfg.eta, cfg.max_iters, stop_ball=BallStop("linf", cfg.r_or_s))
    traces = riemannian_gd_block(sep_objective(cfg.mu), Q0, dcfg, traced=cfg.save_traces)
    results = [(_summary(s, tr, float(tr.dist_target[-1])), tr) for s, tr in zip(seeds, traces)]
    return results, {"theory_success_bound": landscape.sep_success_bound(cfg.n, cfg.zeta0)}


def _run_dl_seeds(cfg, seeds):
    """Each dictionary seed as a run of its own, since each draws its own data."""
    return [_run_dl_seed(cfg, s) for s in seeds], {}


def _run_dl_seed(cfg, seed):
    rng = np.random.default_rng(seed)
    inst = gen_instance(cfg.n, cfg.p, cfg.theta, cfg.dictionary_mode, rng)  # the instance first, then q0
    q0 = sample_uniform_sphere(cfg.n, rng)
    dcfg = DescentConfig(cfg.eta, cfg.max_iters, stop_ball=BallStop("l2", cfg.r_or_s))
    trace = riemannian_gd(dl_objective(inst.Y, cfg.mu), q0, dcfg, inst.A0, traced=cfg.save_traces)
    return _summary(seed, trace, recovery_error(trace.q_final, inst.A0)[1]), trace


def _run_pr_seeds(cfg, seeds):
    """The phase-retrieval seeds as one experiment, without traces; its band
    statistics pool the draws of every seed."""
    x = _pr_signal(cfg.n, cfg.c)[0]
    rngs = [np.random.default_rng(s) for s in seeds]
    exp = phase_retrieval.pr_experiment(cfg.n, x, cfg.eta, cfg.c, cfg.zeta0, rngs, max_iters=cfg.max_iters)
    final_f = phase_retrieval.pr_value(np.array([run.final_z for run in exp.runs]), x).tolist()
    results = [(RunSummary(seed, run.iterations, f, run.final_dist, run.final_zeta, run.status), None)
               for seed, run, f in zip(seeds, exp.runs, final_f)]
    extras = {
        "band_fraction": exp.band_fraction,
        "band_bound": exp.band_bound,
        "total_draws": exp.total_draws,
        "max_zeta_dev": max(r.max_zeta_dev for r in exp.runs),
        "max_w_dev": max(r.max_w_dev for r in exp.runs),
    }
    return results, extras


# What each batch problem is: its command; the keys it reads beyond _COMMON_KEYS;
# defaults(cfg) -> (mu, eta, r_or_s), each 0 replaced by the problem's default;
# run(cfg, seeds) -> ([(RunSummary, trace)], extras), module-level so that
# workers can unpickle it; pool, how run_batch hands seeds to workers: "block"
# (one contiguous block per worker), "seed" (one task per seed) or "inline"
# (in-process only, for extras that pool every seed); and gate(frac, sigma,
# extras), whether --check passes at success fraction frac with binomial
# standard error sigma.  A pooled runner's extras depend on cfg alone.
_Problem = collections.namedtuple("_Problem", "command keys defaults run pool gate")
_PROBLEMS = {
    "separable": _Problem(
        "run-sep", {"mu", "eta", "zeta0", "r_or_s", "save_traces"}, _sep_defaults, _run_sep_seeds, "block",
        lambda frac, sigma, extras: frac >= extras["theory_success_bound"] - 3.0 * sigma,
    ),
    "dictionary": _Problem(
        "run-dl", {"p", "theta", "mu", "eta", "r_or_s", "dictionary_mode", "save_traces"},
        lambda cfg: (cfg.mu or 0.01, cfg.eta or 0.01, cfg.r_or_s or 0.15), _run_dl_seeds, "seed",
        lambda frac, sigma, extras: frac >= 0.9,
    ),
    "phase_retrieval": _Problem(
        "run-pr", {"eta", "zeta0", "c"},
        lambda cfg: (cfg.mu, cfg.eta or _pr_signal(cfg.n, cfg.c)[1], cfg.r_or_s), _run_pr_seeds, "inline",
        lambda frac, sigma, extras: frac >= 1.0
        and extras["band_fraction"] <= extras["band_bound"] + 3.0 * math.sqrt(0.25 / extras["total_draws"]),
    ),
}


def _openblas_threads():
    """(get, set) of the thread count of each OpenBLAS that /proc/self/maps
    lists; none without /proc (not Linux) or without OpenBLAS (MKL)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = [ctypes.CDLL(path) for path in {line.split()[-1] for line in fh if "openblas" in line}]
    except OSError:
        return []
    symbols = ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_", "openblas_%s_num_threads")
    names = [next((name for name in symbols if hasattr(lib, name % "get")), None) for lib in libs]
    get, set_ = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)  # int get(void), void set(int)
    return [(get((name % "get", lib)), set_((name % "set", lib))) for lib, name in zip(libs, names) if name]


def run_batch(cfg, jobs=None):
    """Run the batch of a config that resolve_config filled and checked; returns
    (summaries, traces, extras) seed-sorted.

    extras carries problem-specific aggregate fields (theory bounds, band
    statistics).  jobs sets the workers as --jobs does, None as its default;
    runs are independent, so results do not depend on the worker count.
    """
    problem = _PROBLEMS[cfg.problem]
    seeds = range(cfg.seed_base, cfg.seed_base + cfg.num_seeds)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if jobs is None or problem.pool == "inline":
        jobs = cpus if problem.pool == "seed" else 1
    jobs = min(jobs, len(seeds), cpus)
    ntasks = len(seeds) if problem.pool == "seed" else jobs
    tasks = [seeds[k * len(seeds) // ntasks : (k + 1) * len(seeds) // ntasks] for k in range(ntasks)]
    if jobs > 1:
        with contextlib.ExitStack() as stack:  # exits in reverse: the pool shuts down, then the counts return
            for get, set_ in _openblas_threads():  # one thread, which the workers forked here inherit
                stack.callback(set_, get())
                set_(1)
            ex = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=jobs))
            parts = list(ex.map(problem.run, [cfg] * ntasks, tasks))
        results, extras = [r for part, _ in parts for r in part], parts[0][1]
    else:
        results, extras = problem.run(cfg, seeds)
    summaries = [s for s, _ in results]
    traces = {s.seed: t for s, t in results} if cfg.save_traces else {}
    return summaries, traces, extras


# ---------------------------------------------------------------------------
# output writers


def write_summary(path, cfg, summaries, extras):
    iters = np.array([s.iterations for s in summaries], dtype=float)
    nruns = len(summaries)
    nsucc = sum(s.status == STATUS_BALL for s in summaries)
    lines = ["# spheregd batch summary", f"config_hash = {config_hash(cfg)}"]
    lines += config_lines(cfg)
    lines += [
        f"num_runs = {nruns}",
        f"num_success = {nsucc}",
        f"success_fraction = {_fmt(nsucc / nruns)}",
    ]
    for q in (25, 50, 75):
        lines.append(f"iterations_p{q} = {_fmt(float(np.quantile(iters, q / 100)))}")
    for key in sorted(extras):
        lines.append(f"{key} = {_fmt(extras[key])}")
    lines.append("[runs]")
    lines.append("seed,success,iterations,final_f,final_dist,final_zeta,status")
    for s in sorted(summaries, key=lambda r: r.seed):
        lines.append(
            f"{s.seed},{int(s.status == STATUS_BALL)},{s.iterations},{_fmt(s.final_f)},"
            f"{_fmt(s.final_dist)},{_fmt(s.final_zeta)},{s.status}"
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def write_trace_csv(path, trace, cfg, seed):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# config_hash={config_hash(cfg)}\n")
        f.write(f"# seed_base={cfg.seed_base}\n")
        f.write(f"# seed={seed}\n")
        f.write(",".join(TRACE_COLUMNS) + "\n")
        row = "%d" + ",%.17g" * (len(TRACE_COLUMNS) - 1) + "\n"  # the bytes _fmt writes
        cols = [getattr(trace, name) for name in ("iters",) + TRACE_COLUMNS[1:]]  # DescentTrace fields
        for a in range(0, trace.iters.size, 128):  # as Python numbers, 128 rows at a time
            f.writelines(row % values for values in zip(*(col[a : a + 128].tolist() for col in cols)))


def _emit_table(args, columns, rows, **extras):
    """Write a probe's CSV to --out, or to stdout.  The header holds every
    parsed argument of the probe, their hash, then the probe's extras."""
    meta = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    payload = "\n".join(f"{k}={_fmt(meta[k])}" for k in sorted(meta)).encode()
    meta["params_hash"] = hashlib.sha256(payload).hexdigest()[:16]
    lines = [f"# spheregd {args.command}"]
    for k, v in {**meta, **extras}.items():
        lines.append(f"# {k}={_fmt(v)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        print(path)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args):
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed_base=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.save_traces:
        cfg = replace(cfg, save_traces=True)
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    if cfg.problem != args.problem:
        raise ConfigError(f"{args.command} needs problem = {args.problem}, config says {cfg.problem!r}")
    problem = _PROBLEMS[cfg.problem]
    if (args.jobs or 1) > 1 and problem.pool == "inline":
        raise ConfigError(f"{args.command} runs in one process; it does not read --jobs")
    cfg = resolve_config(cfg)
    summaries, traces, extras = run_batch(cfg, jobs=args.jobs)

    os.makedirs(cfg.out_dir, exist_ok=True)  # only once the batch ran: a rejected batch writes nothing
    write_summary(os.path.join(cfg.out_dir, "summary.txt"), cfg, summaries, extras)
    for seed in sorted(traces):
        write_trace_csv(
            os.path.join(cfg.out_dir, f"trace_seed{seed}.csv"), traces[seed], cfg, seed
        )
    print(os.path.join(cfg.out_dir, "summary.txt"))

    if any(s.status == STATUS_NAN for s in summaries):
        return EXIT_NUMERIC
    if args.check:
        frac = sum(s.status == STATUS_BALL for s in summaries) / len(summaries)
        sigma = math.sqrt(max(frac * (1.0 - frac), 1.0 / len(summaries)) / len(summaries))
        if not problem.gate(frac, sigma, extras):
            return EXIT_GATE
    return EXIT_OK


def _cmd_probe_volume(args):
    rng = np.random.default_rng(args.seed)
    frac, se = landscape.volume_estimate(args.n, args.zeta, args.samples, rng)
    _emit_table(
        args,
        ("n", "zeta", "samples", "fraction", "std_error", "lower_bound"),
        [(args.n, args.zeta, args.samples, frac, se,
          max(0.0, 1.0 / (2 * args.n) - args.zeta * math.log(args.n) / args.n))],
    )
    return EXIT_OK


def _cmd_probe_projection(args):
    rng = np.random.default_rng(args.seed)
    zetas = [float(z) for z in args.zetas.split(",")]
    rows, fitted_c = landscape.projection_scan(args.n, args.mu, zetas, args.samples, rng)
    _emit_table(
        args,
        ("zeta", "w_inf", "w_i_abs", "slope", "slope_over_winf_zeta"),
        rows,
        fitted_c=fitted_c,
        analytic_floor=landscape.projection_constant_floor(args.mu),
    )
    return EXIT_OK


def _cmd_probe_fluctuation(args):
    if args.n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(args.seed)
    d = rng.standard_normal(args.n - 1)
    w = scale_to_zeta(d, args.zeta)
    i = int(np.argmax(np.abs(w)))
    p_list = [int(p) for p in args.p_list.split(",")]
    rows = landscape.fluctuation_probe(w, i, args.mu, args.theta, p_list, args.trials, rng)
    _emit_table(args, ("p", "mean_abs_deviation"), rows)
    return EXIT_OK


def _cmd_probe_critical(args):
    pts = landscape.enumerate_critical_points(args.n)
    rows = []
    for cp in pts:
        pat = "".join({1: "+", -1: "-", 0: "0"}[v] for v in cp.pattern)
        rows.append((pat, cp.support_size, cp.kind))
    counts = collections.Counter(cp.kind for cp in pts)
    counts = {f"count_{kind}": counts[kind] for kind in sorted(counts)}
    _emit_table(args, ("pattern", "support_size", "kind"), rows, **counts)
    return EXIT_OK


def _cmd_probe_pr_identities(args):
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    if not 1 <= args.steps < 2**63:  # the engine counts steps in int64
        raise ValueError("--steps must be from 1 to 2**63 - 1")
    rng = np.random.default_rng(args.seed)
    x, eta = _pr_signal(args.n, args.c)
    z0 = phase_retrieval.sample_ball(args.n, 1.0 / math.sqrt(2.0), rng)
    run = phase_retrieval.pr_descend(z0, x, eta, args.c, args.steps, stop_at_target=False)
    _emit_table(
        args,
        ("steps", "max_zeta_rel_dev", "max_w_rel_dev", "converged"),
        [(run.iterations, run.max_zeta_dev, run.max_w_dev, int(run.converged))],
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1 (argparse defaults to 2) and one line
    def error(self, message):
        self.exit(EXIT_USAGE, f"spheregd: error: {message} (see {self.prog} --help)\n")


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser():
    parser = _Parser(prog="spheregd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for problem, spec in _PROBLEMS.items():
        sp = sub.add_parser(spec.command, help=f"{spec.command} batch from a config file")
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None, help="override seed_base")
        sp.add_argument("--jobs", type=int, help="worker processes (default: usable CPUs for run-dl, else 1)")
        sp.add_argument("--out", default=None, help="override out_dir")
        sp.add_argument("--save-traces", action="store_true")
        sp.add_argument("--check", action="store_true", help="exit 3 if the gate fails")
        sp.set_defaults(func=_cmd_run, problem=problem)

    sp = sub.add_parser("probe-volume")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--zeta", type=float, required=True)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.set_defaults(func=_cmd_probe_volume)

    sp = sub.add_parser("probe-projection")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=float, default=0.01)
    sp.add_argument("--zetas", default="0.1,0.2,0.5,1.0")
    sp.add_argument("--samples", type=int, default=100, help="points per zeta")
    sp.set_defaults(func=_cmd_probe_projection)

    sp = sub.add_parser("probe-fluctuation")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=float, default=0.01)
    sp.add_argument("--theta", type=float, default=0.25)
    sp.add_argument("--zeta", type=float, default=0.5)
    sp.add_argument("--p-list", default="100,1000,10000")
    sp.add_argument("--trials", type=int, default=10)
    sp.set_defaults(func=_cmd_probe_fluctuation)

    sp = sub.add_parser("probe-critical")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_probe_critical)

    sp = sub.add_parser("probe-pr-identities")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--c", type=float, default=1.0 / 35.0)
    sp.set_defaults(func=_cmd_probe_pr_identities)

    # declared last: a probe's CSV header lists its arguments in declaration order
    for name, sp in sub.choices.items():
        if name.startswith("probe-"):
            if name != "probe-critical":  # the probes that draw
                sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--out", default=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning  # a warning the command shows is one stderr line
    warnings.formatwarning = lambda message, *_: f"spheregd: warning: {message}\n"
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # a rejected input (ConfigError too) or an --out that cannot be made
        print(f"spheregd: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
