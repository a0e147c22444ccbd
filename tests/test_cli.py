import concurrent.futures
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spheregd import cli, phase_retrieval
from spheregd.cli import (
    EXIT_GATE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    ExperimentConfig,
    _fmt,
    _openblas_threads,
    _run_dl_seed,
    config_hash,
    main,
    parse_config,
    resolve_config,
    run_batch,
    write_trace_csv,
)
from spheregd.descent import DescentTrace

SEP_CFG = """\
# small separable batch
problem = separable
n = 6
num_seeds = 3
seed_base = 11
max_iters = 4000
zeta0 = 0.1
save_traces = true
"""

DL_CFG = """\
problem = dictionary
n = 6
p = 200
theta = 0.25
eta = 0.01
num_seeds = 3
seed_base = 5
max_iters = 3000
save_traces = true
"""

PR_CFG = """\
problem = phase_retrieval
n = 6
num_seeds = 4
seed_base = 3
max_iters = 10000
zeta0 = 0.03
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_and_resolve(tmp_path):
    cfg = parse_config(_write(tmp_path, "a.cfg", SEP_CFG))
    assert cfg.problem == "separable" and cfg.n == 6 and cfg.save_traces
    rcfg = resolve_config(cfg)
    assert rcfg.mu > 0 and rcfg.eta > 0 and rcfg.r_or_s > 0
    # hash ignores presentation keys
    from dataclasses import replace

    assert config_hash(rcfg) == config_hash(replace(rcfg, out_dir="elsewhere"))


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "bad.cfg", SEP_CFG + "typo_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_missing_required_rejected(tmp_path):
    path = _write(tmp_path, "bad.cfg", "problem = separable\nn = 5\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_bad_values_rejected(tmp_path):
    base = "problem = dictionary\nn = 6\nnum_seeds = 1\nseed_base = 0\nmax_iters = 10\n"
    for extra in ("p = 0\ntheta = 0.2\n", "p = 100\ntheta = 0.7\n"):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, "bad.cfg", base + extra))


def test_cli_config_error_exit(tmp_path):
    path = _write(tmp_path, "bad.cfg", SEP_CFG + "zzz = 1\n")
    assert main(["run-sep", "--config", path]) == EXIT_USAGE


def test_cli_wrong_problem_for_command(tmp_path):
    path = _write(tmp_path, "a.cfg", SEP_CFG)
    assert main(["run-dl", "--config", path]) == EXIT_USAGE


@pytest.mark.parametrize(
    "edit, argv",
    [
        (("seed_base = 11", "seed_base = -1"), ["run-sep"]),
        (None, ["run-sep", "--seed", "-1"]),
        (None, ["run-sep", "--jobs", "0"]),
        (None, ["run-sep", "--jobs", "-3"]),
        (("zeta0 = 0.1", "zeta0 = 0.1\neta = nan"), ["run-sep"]),
        (("zeta0 = 0.1", "zeta0 = inf"), ["run-sep"]),
        (None, ["probe-volume", "--n", "3", "--zeta", "0", "--samples", "5"]),
        (None, ["probe-volume", "--n", "1", "--zeta", "0", "--samples", "20000"]),
        (None, ["probe-critical", "--n", "20"]),
        (None, ["probe-fluctuation", "--n", "6", "--p-list", "1000,100"]),
        (None, ["probe-projection", "--n", "6", "--zetas", "0,0.5"]),
        (None, ["probe-projection", "--n", "6", "--zetas", "a"]),
        (None, ["probe-projection", "--n", "4", "--mu", "0", "--samples", "2"]),
        (None, ["probe-volume", "--n", "3", "--zeta", "-5", "--samples", "10000"]),
        (None, ["probe-volume", "--n", "3", "--zeta", "nan", "--samples", "10000"]),
        (None, ["probe-fluctuation", "--n", "4", "--trials", "0", "--p-list", "10"]),
        (None, ["probe-projection", "--n", "6", "--samples", "0"]),
        (None, ["probe-projection", "--n", "6", "--zetas", "100", "--samples", "2"]),
        (None, ["probe-pr-identities", "--n", "0"]),
        (None, ["probe-pr-identities", "--n", "4", "--steps", "-1"]),
        (None, ["probe-pr-identities", "--n", "3", "--steps", "10000000000000000000"]),
        (None, ["probe-pr-identities", "--n", "3", "--steps", "100000000000000000000"]),
        (("zeta0 = 0.03", "zeta0 = 0.7"), ["run-pr"]),
        (None, ["probe-volume", "--n", "x", "--zeta", "0"]),
        (None, ["probe-volume", "--zeta", "0"]),
        (None, ["run-sep", "--jobs", "x"]),
        (None, ["probe-critical", "--n", "3", "--bogus", "1"]),
        (None, ["run-sep", "--config", "no-such-dir/a.cfg"]),
        (("zeta0 = 0.1", "zeta0 0.1"), ["run-sep"]),
        (("zeta0 = 0.1", "zeta0 = 0.1\nzeta0 = 0.2"), ["run-sep"]),
        (("save_traces = true", "save_traces = yes"), ["run-sep"]),
        (("n = 6", "n = six"), ["run-sep"]),
        (("problem = separable", "problem = sphere"), ["run-sep"]),
        (("n = 6", "n = 1"), ["run-sep"]),
        (("num_seeds = 3", "num_seeds = 0"), ["run-sep"]),
        (("max_iters = 4000", "max_iters = 0"), ["run-sep"]),
        (("zeta0 = 0.1", "zeta0 = 0.1\nmu = -0.1"), ["run-sep"]),
        (("zeta0 = 0.1", "zeta0 = 0"), ["run-sep"]),
        (("theta = 0.25", "theta = 0.25\ndictionary_mode = hadamard"), ["run-dl"]),
        (("theta = 0.25", "theta = 0.6"), ["run-dl"]),
        (("zeta0 = 0.03", "zeta0 = 0.03\nc = 0.3"), ["run-pr"]),
        (None, ["probe-fluctuation", "--n", "4", "--mu", "nan", "--p-list", "10"]),
        (None, ["probe-projection", "--n", "6", "--mu", "inf", "--samples", "2"]),
        (None, ["probe-projection", "--n", "1"]),
        (None, ["probe-fluctuation", "--n", "1", "--p-list", "10"]),
        (None, ["probe-fluctuation", "--n", "4", "--zeta", "nan", "--p-list", "10"]),
        (None, ["probe-fluctuation", "--n", "4", "--zeta", "inf", "--p-list", "10"]),
        (None, ["probe-projection", "--n", "6", "--zetas", "nan", "--samples", "2"]),
        (None, ["run-sep", "--out", "{tmp}/afile/sub"]),
        (None, ["probe-critical", "--n", "3", "--out", "{tmp}/afile"]),
        (("zeta0 = 0.1", "zeta0 = 0.1\nmu = 2"), ["run-sep"]),
        (("zeta0 = 0.1", "zeta0 = 0.1\nmu = 1"), ["run-sep"]),
        (("zeta0 = 0.1", "zeta0 = 0.1\nmu = 1e-320"), ["run-sep"]),
        (None, ["probe-fluctuation", "--n", "4", "--mu", "1e-320", "--p-list", "10,20", "--trials", "2"]),
        (("n = 6", "n = 4\nr_or_s = 0.1\nmu = 1e-320"), ["run-sep"]),
        (("n = 6\np = 200", "n = 4\np = 50\nmu = 1e-320"), ["run-dl"]),
        (("zeta0 = 0.03", "zeta0 = 0.03\neta = 1e-300"), ["run-pr"]),
        (("zeta0 = 0.03", "zeta0 = 0.03\nc = 1e-300"), ["run-pr"]),
        (None, ["probe-fluctuation", "--n", "4", "--zeta", "1e300", "--p-list", "10"]),
        (None, ["probe-projection", "--n", "4", "--zetas", "1e-320", "--samples", "2"]),
        (None, ["probe-projection", "--n", "4", "--mu", "1e300", "--zetas", "0.5", "--samples", "1"]),
    ],
    ids=[
        "seed_base-negative",
        "seed-override-negative",
        "jobs-0",
        "jobs-negative",
        "eta-nan",
        "zeta0-inf",
        "volume-few-samples",
        "volume-n1",
        "critical-n-over-guard",
        "fluctuation-p-list-decreasing",
        "projection-zeta-zero",
        "projection-zeta-not-a-number",
        "projection-mu-zero",
        "volume-zeta-negative",
        "volume-zeta-nan",
        "fluctuation-trials-0",
        "projection-samples-0",
        "projection-no-coordinate-over-floor",
        "pr-identities-n0",
        "pr-identities-steps-negative",
        "pr-identities-steps-past-int64",
        "pr-identities-steps-past-uint64",
        "pr-zeta0-near-start-radius",
        "usage-volume-n-not-an-int",
        "usage-volume-n-missing",
        "usage-jobs-not-an-int",
        "usage-critical-unknown-flag",
        "config-file-missing",
        "config-line-without-equals",
        "config-duplicate-key",
        "config-save_traces-yes",
        "config-n-not-an-int",
        "config-problem-unknown",
        "config-n1",
        "config-num_seeds-0",
        "config-max_iters-0",
        "config-mu-negative",
        "config-zeta0-0",
        "config-dictionary_mode-unknown",
        "config-dl-theta-over-half",
        "config-pr-c-over-quarter",
        "fluctuation-mu-nan",
        "projection-mu-inf",
        "projection-n1",
        "fluctuation-n1",
        "fluctuation-zeta-nan",
        "fluctuation-zeta-inf",
        "projection-zeta-nan",
        "out-under-a-file",
        "out-is-a-file",
        "config-sep-mu-2-without-r_or_s",
        "config-sep-mu-1-without-r_or_s",
        "config-sep-mu-1e-320-without-r_or_s",
        "fluctuation-mu-subnormal",
        "config-sep-mu-subnormal",
        "config-dl-mu-subnormal",
        "pr-eta-1e-300",
        "pr-c-1e-300",
        "fluctuation-zeta-1e300",
        "projection-winf-zeta-subnormal",
        "projection-mu-squared-overflows",
    ],
)
def test_invalid_input_exits_1_with_one_line(tmp_path, capsys, edit, argv):
    _write(tmp_path, "afile", "")  # a regular file where --out wants a directory
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if argv[0].startswith("run-"):
        base = {"run-sep": SEP_CFG, "run-dl": DL_CFG, "run-pr": PR_CFG}[argv[0]]
        text = base if edit is None else base.replace(*edit)
        if "--config" not in argv:
            argv = argv + ["--config", _write(tmp_path, "a.cfg", text)]
        if "--out" not in argv:
            argv = argv + ["--out", str(tmp_path / "o")]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse reports a malformed command line by exiting
        code = e.code
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spheregd: ")
    if edit is not None:  # the message names the key the edit set last
        assert re.search(rf"\b{edit[1].splitlines()[-1].split()[0]}\b", err[0])


@pytest.mark.parametrize(
    "command, extra, named",
    [
        ("run-sep", "p = 100", "'p'"),
        ("run-sep", "theta = 0.25", "'theta'"),
        ("run-sep", "dictionary_mode = identity", "'dictionary_mode'"),
        ("run-sep", "c = 0.1", "'c'"),
        ("run-dl", "zeta0 = 0.2", "'zeta0'"),
        ("run-dl", "c = 0.1", "'c'"),
        ("run-pr", "mu = 0.01", "'mu'"),
        ("run-pr", "p = 100", "'p'"),
        ("run-pr", "theta = 0.25", "'theta'"),
        ("run-pr", "r_or_s = 0.9", "'r_or_s'"),
        ("run-pr", "dictionary_mode = identity", "'dictionary_mode'"),
        ("run-pr", "save_traces = true", "'save_traces'"),
        ("run-pr", "--save-traces", "'save_traces'"),
        ("run-pr", "--jobs 2", "--jobs"),
    ],
    ids=[
        "sep-p", "sep-theta", "sep-dictionary_mode", "sep-c", "dl-zeta0", "dl-c", "pr-mu", "pr-p",
        "pr-theta", "pr-r_or_s", "pr-dictionary_mode", "pr-save_traces", "pr-save-traces-flag", "pr-jobs-2",
    ],
)
def test_unread_key_rejected(tmp_path, capsys, command, extra, named):
    text = {"run-sep": SEP_CFG, "run-dl": DL_CFG, "run-pr": PR_CFG}[command]
    argv = [command, "--out", str(tmp_path / "o")]
    if extra.startswith("--"):
        argv += extra.split()
    else:
        text += extra + "\n"
    assert main(argv + ["--config", _write(tmp_path, "a.cfg", text)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spheregd: ") and named in err[0]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_run_sep_outputs_and_traces(tmp_path):
    cfg = _write(tmp_path, "a.cfg", SEP_CFG)
    out = str(tmp_path / "out")
    assert main(["run-sep", "--config", cfg, "--out", out, "--check"]) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "config_hash = " in summary
    assert "seed_base = 11" in summary
    trace = (tmp_path / "out" / "trace_seed11.csv").read_text().splitlines()
    assert trace[0].startswith("# config_hash=")
    assert trace[3] == "iter,f,grad_norm,zeta,w_inf,dist_target"


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    return names


# Y = A0 X0 at n=10, p=20000 is a GEMM that OpenBLAS splits over threads in
# the calling process, and runs on one thread in a worker
DL_THREADED_CFG = (
    DL_CFG.replace("n = 6", "n = 10").replace("p = 200", "p = 20000").replace("max_iters = 3000", "max_iters = 40")
)


@pytest.mark.parametrize(
    "command, text",
    [("run-sep", SEP_CFG), ("run-dl", DL_CFG), ("run-dl", DL_THREADED_CFG)],
    ids=["sep", "dl", "dl-threaded-gemm"],
)
def test_run_jobs_equivalence(tmp_path, command, text):
    # --jobs 1 runs in-process; the default and --jobs 2 may use worker processes
    cfg = _write(tmp_path, "a.cfg", text)
    for out, jobs in (("o1", ["--jobs", "1"]), ("default", []), ("o2", ["--jobs", "2"])):
        assert main([command, "--config", cfg, "--out", str(tmp_path / out)] + jobs) == EXIT_OK
    assert len(_same_files(tmp_path / "o1", tmp_path / "default")) == 4  # summary.txt and one trace per seed
    _same_files(tmp_path / "o1", tmp_path / "o2")


def test_run_dl_more_seeds_than_workers(tmp_path, monkeypatch):
    # 5 one-seed tasks on 3 workers: some workers run two seeds, some one
    cfg = _write(tmp_path, "a.cfg", DL_CFG.replace("num_seeds = 3", "num_seeds = 5"))
    assert main(["run-dl", "--config", cfg, "--out", str(tmp_path / "o1"), "--jobs", "1"]) == EXIT_OK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert main(["run-dl", "--config", cfg, "--out", str(tmp_path / "o3")]) == EXIT_OK
    assert len(_same_files(tmp_path / "o1", tmp_path / "o3")) == 6


def test_run_dl_jobs_without_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: [])
    cfg = _write(tmp_path, "a.cfg", DL_CFG)
    for out, jobs in (("o1", "1"), ("o2", "2")):
        assert main(["run-dl", "--config", cfg, "--out", str(tmp_path / out), "--jobs", jobs]) == EXIT_OK
    assert len(_same_files(tmp_path / "o1", tmp_path / "o2")) == 4


class _WorkerBlasThreads(Exception):
    pass


def _raise_worker_blas_threads(cfg, seeds):
    raise _WorkerBlasThreads([get() for get, _ in _openblas_threads()])


@pytest.mark.skipif(not _openblas_threads(), reason="no OpenBLAS found")
@pytest.mark.parametrize("raises", [False, True], ids=["ok", "pool-raises"])
def test_pool_restores_the_callers_blas_threads(tmp_path, monkeypatch, raises):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = resolve_config(parse_config(_write(tmp_path, "a.cfg", DL_CFG)))
    threads = _openblas_threads()
    old = [get() for get, _ in threads]
    for _, set_ in threads:
        set_(2)  # a count that differs from the workers' 1
    try:
        if raises:
            dl = cli._PROBLEMS["dictionary"]
            monkeypatch.setitem(cli._PROBLEMS, "dictionary", dl._replace(run=_raise_worker_blas_threads))
            with pytest.raises(_WorkerBlasThreads) as err:
                run_batch(cfg, jobs=2)
            assert err.value.args[0] == [1] * len(threads)  # read in a worker
        else:
            run_batch(cfg, jobs=2)
        assert [get() for get, _ in threads] == [2] * len(threads)
    finally:
        for (_, set_), count in zip(threads, old):
            set_(count)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records the pools asked for and runs
    their tasks in this process."""

    pools = []

    def __init__(self, max_workers):
        self.max_workers, self.tasks = max_workers, []
        self.pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cfgs, tasks):
        self.tasks = [list(t) for t in tasks]
        return map(fn, cfgs, self.tasks)


@pytest.mark.parametrize(
    "command, text, tasks",
    [
        ("run-sep", SEP_CFG, [[11, 12], [13, 14, 15]]),  # one contiguous block per worker
        ("run-dl", DL_CFG, [[5], [6], [7], [8], [9]]),  # one task per seed
    ],
    ids=["sep", "dl"],
)
def test_jobs_are_clamped_to_usable_cpus(tmp_path, monkeypatch, command, text, tasks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "pools", [])
    cfg = _write(tmp_path, "a.cfg", text.replace("num_seeds = 3", "num_seeds = 5"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "64"]) == EXIT_OK
    assert [(pool.max_workers, pool.tasks) for pool in _InProcessPool.pools] == [(2, tasks)]


def test_run_sep_default_creates_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("run-sep created a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = _write(tmp_path, "a.cfg", SEP_CFG)
    assert main(["run-sep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK


def test_dl_seed_holds_only_its_data():
    n, p = 10, 20000
    cfg = resolve_config(
        ExperimentConfig(problem="dictionary", n=n, p=p, theta=0.25, num_seeds=1, seed_base=0, max_iters=40)
    )
    _run_dl_seed(replace(cfg, p=10), 0)  # the first run imports modules that tracemalloc would count
    tracemalloc.start()
    try:
        _run_dl_seed(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * n * p * 8  # the draw of Y = A0 X0 needs X0 and Y at once


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[lines.index("[runs]") + 2 :]


@pytest.mark.parametrize(
    "command, text", [("run-sep", SEP_CFG), ("run-dl", DL_CFG), ("run-pr", PR_CFG)], ids=["sep", "dl", "pr"]
)
def test_batch_row_matches_one_seed_batch(tmp_path, command, text):
    # row seed_base + k of a batch is the one-seed batch at --seed seed_base + k
    one = _write(tmp_path, "one.cfg", re.sub(r"num_seeds = \d+", "num_seeds = 1", text))
    assert main([command, "--config", _write(tmp_path, "a.cfg", text), "--out", str(tmp_path / "all")]) == EXIT_OK
    rows = _rows(tmp_path / "all" / "summary.txt")
    assert len(rows) > 1
    for row in rows:
        seed = row.split(",", 1)[0]
        out = tmp_path / f"seed{seed}"
        assert main([command, "--config", one, "--seed", seed, "--out", str(out)]) == EXIT_OK
        assert _rows(out / "summary.txt") == [row]


@pytest.mark.parametrize(
    "command, text",
    [
        # below 5 seeds the sigma floor 1/N puts this config's separable gate at or below 0
        ("run-sep", SEP_CFG.replace("num_seeds = 3", "num_seeds = 12")),
        ("run-dl", DL_CFG),
        ("run-pr", PR_CFG),
    ],
    ids=["sep", "dl", "pr"],
)
def test_check_gate_fails_on_tiny_budget(tmp_path, command, text):
    cfg = _write(tmp_path, "a.cfg", re.sub(r"max_iters = \d+", "max_iters = 1", text))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--check"]) == EXIT_GATE


def test_run_dl_default_step_converges(tmp_path):
    cfg = _write(tmp_path, "dl.cfg", DL_CFG.replace("eta = 0.01\n", ""))
    assert main(["run-dl", "--config", cfg, "--out", str(tmp_path / "o"), "--check"]) == EXIT_OK
    assert "\neta = 0.01\n" in (tmp_path / "o" / "summary.txt").read_text()


def test_run_pr(tmp_path):
    cfg = _write(tmp_path, "pr.cfg", PR_CFG)
    out = str(tmp_path / "pro")
    assert main(["run-pr", "--config", cfg, "--out", out, "--check"]) == EXIT_OK
    summary = (tmp_path / "pro" / "summary.txt").read_text()
    assert "band_fraction" in summary and "max_zeta_dev" in summary


def test_run_pr_start_law_of_one_is_not_hopeless(tmp_path):
    # P(margin >= 1e-9) rounds to 1: the first draw clears zeta0, so the band is not hopeless
    cfg = _write(tmp_path, "pr.cfg", PR_CFG.replace("n = 6", "n = 4").replace("zeta0 = 0.03", "zeta0 = 1e-9"))
    assert main(["run-pr", "--config", cfg, "--out", str(tmp_path / "pro"), "--check"]) == EXIT_OK


def test_run_pr_batch_does_not_depend_on_jobs(tmp_path, monkeypatch):
    # band statistics pool the draws of every seed: a batch split over workers would misreport them
    cfg = resolve_config(parse_config(_write(tmp_path, "pr.cfg", PR_CFG)))
    one = run_batch(cfg, jobs=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "pools", [])
    assert run_batch(cfg, jobs=2) == one
    assert one[2]["total_draws"] >= cfg.num_seeds and _InProcessPool.pools == []


def test_run_pr_non_finite_run_exits_2(tmp_path, monkeypatch):
    engine = phase_retrieval.pr_descend_block

    def blow_up_first_row(*args, **kwargs):
        first, *rest = engine(*args, **kwargs)
        bad = replace(first, final_z=np.full_like(first.final_z, np.inf), final_dist=math.inf, status="aborted_nan")
        return [bad] + rest

    monkeypatch.setattr(phase_retrieval, "pr_descend_block", blow_up_first_row)
    cfg = _write(tmp_path, "pr.cfg", PR_CFG)
    argv = ["run-pr", "--config", cfg, "--out", str(tmp_path / "pro"), "--check"]
    with np.errstate(invalid="ignore"):
        assert main(argv) == EXIT_NUMERIC
    rows = (tmp_path / "pro" / "summary.txt").read_text().split("[runs]\n")[1].splitlines()
    assert rows[1].endswith(",aborted_nan") and rows[1].startswith("3,0,")
    assert all(r.endswith(",ball_entered") for r in rows[2:])


def test_run_pr_final_zeta_is_the_last_margin(tmp_path, monkeypatch):
    engine = phase_retrieval.pr_descend_block
    runs = []

    def record(*args, **kwargs):
        runs.extend(engine(*args, **kwargs))
        return runs

    monkeypatch.setattr(phase_retrieval, "pr_descend_block", record)
    cfg = _write(tmp_path, "pr.cfg", PR_CFG)
    assert main(["run-pr", "--config", cfg, "--out", str(tmp_path / "pro")]) == EXIT_OK
    x = np.eye(6, dtype=complex)[0]
    column = [row.split(",")[5] for row in _rows(tmp_path / "pro" / "summary.txt")]
    assert column == [f"{phase_retrieval.pr_decompose(r.final_z, x).zeta:.17g}" for r in runs]


def test_trace_csv_rows_match_fmt(tmp_path):
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((5, 3000)) * 10.0 ** rng.integers(-320, 300, (5, 3000))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
    cols[:, : len(special)] = special
    trace = DescentTrace(np.arange(3000), *cols, status="ball_entered", q_final=np.eye(6)[0])
    cfg = resolve_config(parse_config(_write(tmp_path, "a.cfg", SEP_CFG)))
    write_trace_csv(str(tmp_path / "t.csv"), trace, cfg, 11)
    rows = (tmp_path / "t.csv").read_text().splitlines()[4:]
    assert rows == [",".join([str(k)] + [_fmt(float(c[k])) for c in cols]) for k in range(3000)]


def test_probe_volume(tmp_path, capsys):
    assert main(["probe-volume", "--n", "3", "--zeta", "0", "--samples", "20000"]) == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()[-2:]
    assert header.startswith("n,zeta,samples,fraction")
    frac = float(row.split(",")[3])
    assert abs(frac - 1.0 / 6.0) < 0.02


def test_probe_critical(tmp_path):
    out = str(tmp_path / "crit")
    assert main(["probe-critical", "--n", "3", "--out", out]) == EXIT_OK
    lines = (tmp_path / "crit" / "probe-critical.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 26
    assert "# count_minimizer=6" in lines
    assert "# count_saddle=12" in lines
    assert "# count_maximizer=8" in lines


def test_probe_pr_identities(capsys):
    assert main(["probe-pr-identities", "--n", "4", "--steps", "500"]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[-1]
    steps, zdev, wdev, _ = row.split(",")
    assert steps == "500"  # the recurrences are checked over the full run, not up to the target
    assert float(zdev) <= 1e-10 and float(wdev) <= 1e-10


def test_probe_projection(capsys):
    assert main(
        ["probe-projection", "--n", "6", "--mu", "0.01", "--zetas", "0.2,0.5", "--samples", "20"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "# fitted_c=" in out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert all(float(r.split(",")[3]) > 0.0 for r in rows)


def test_probe_fluctuation(capsys):
    assert main(
        [
            "probe-fluctuation",
            "--n", "6",
            "--theta", "0.25",
            "--mu", "0.01",
            "--p-list", "100,1000",
            "--trials", "5",
        ]
    ) == EXIT_OK
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 2


def test_probe_fluctuation_warns_once_above_mu_one_sixteenth():
    # every objective a probe builds checks mu, and the warning has one call site
    for argv in (
        ["probe-fluctuation", "--n", "4", "--mu", "0.07", "--p-list", "10", "--trials", "2"],
        ["probe-projection", "--n", "4", "--mu", "0.07", "--samples", "2"],
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # Python's default: once per call site
            assert main(argv) == EXIT_OK
        assert ["positivity is not guaranteed" in str(w.message) for w in caught] == [True]


@pytest.mark.parametrize(
    "argv",
    [
        ["run-sep", "--config", "{sep}", "--jobs", "2"],
        ["run-dl", "--config", "{dl}"],  # a worker per usable CPU
        ["probe-fluctuation", "--n", "4", "--mu", "0.07", "--p-list", "10,20", "--trials", "2"],
    ],
    ids=["run-sep-jobs-2", "run-dl-default-jobs", "probe-fluctuation"],
)
def test_mu_warning_is_one_stderr_line_per_command(tmp_path, argv):
    # resolving the config checks mu before any pool forks, and workers inherit the
    # warnings already shown; each command shows a warning as one line
    paths = {
        "{sep}": _write(tmp_path, "sep.cfg", SEP_CFG + "mu = 0.07\n"),
        "{dl}": _write(tmp_path, "dl.cfg", DL_CFG.replace("num_seeds = 3", "num_seeds = 4") + "mu = 0.07\n"),
    }
    argv = [paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "o")]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("PYTHONWARNINGS", None)  # Python's default filter
    run = subprocess.run([sys.executable, "-m", "spheregd.cli", *argv], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == EXIT_OK
    warning = "spheregd: warning: mu = 0.07 >= 1/16: outward-projection positivity is not guaranteed"
    assert run.stderr.splitlines() == [warning]


@pytest.mark.parametrize("mu", ["1e-320", "1e300"])
@pytest.mark.parametrize(
    "command, text, jobs",
    [
        ("run-sep", SEP_CFG + "r_or_s = 0.1\n", []),  # a radius, so that mu itself is what fails
        ("run-dl", DL_CFG, ["--jobs", "1"]),
        ("run-dl", DL_CFG, []),  # a worker per usable CPU
    ],
    ids=["run-sep", "run-dl-jobs-1", "run-dl-default-jobs"],
)
def test_invalid_mu_fails_before_any_output_or_draw(tmp_path, capsys, monkeypatch, command, text, jobs, mu):
    # resolving the config checks mu: no --out directory is made and no instance is drawn
    def no_draw(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "gen_instance", no_draw)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "o"
    argv = [command, "--config", _write(tmp_path, "a.cfg", text + f"mu = {mu}\n"), "--out", str(out)]
    assert main(argv + jobs) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.search(r"\bmu\b", err[0])
    assert not out.exists()
